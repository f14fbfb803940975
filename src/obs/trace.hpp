// Lightweight scoped tracing with per-thread ring buffers.
//
// A TraceSpan brackets one stage of work (construction, publication,
// fallback BFS, a campaign trial, ...). When tracing is DISABLED — the
// default — constructing and destroying a span costs one relaxed atomic
// load and a branch, so instrumentation stays resident on the hot query
// path permanently (bench_query_throughput pins the overhead at < 2%).
//
// When ENABLED, each completed span appends one fixed-size event to the
// calling thread's ring buffer. The ring is SINGLE-WRITER LOCK-FREE: the
// owning thread commits an event with a handful of relaxed atomic stores
// bracketed by a per-slot sequence counter (a seqlock), so an enabled span
// never takes a mutex either — the enabled-tracing throughput cost on the
// query hot path stays < 5% (pinned by the CI bench smoke check). Rings
// are bounded, drop-oldest; drain() snapshots every thread's slots and
// skips the (at most one per ring) event a concurrent wrap is mid-rewrite.
// Spans may nest freely; events carry wall-clock start/duration so nesting
// is reconstructed by containment — including across util::ThreadPool
// tasks, where a task's spans simply land on the worker thread's ring
// under that worker's tid (see DESIGN.md).
//
// Resetting (enable()/clear()) never mutates a ring a writer might be
// appending to: it bumps a global generation and starts a fresh ring set;
// each thread notices the stale generation on its next span and
// re-registers. Old rings stay alive (and inert) until their owner thread
// moves on or exits.
//
// A span can also feed a per-stage obs::Histogram (in µs) so aggregate
// stage latencies survive ring overflow; obs::stage_histogram(name) is the
// conventional sink. Draining gathers every thread's events (sorted by
// start time) for export as Chrome trace_event JSON (chrome://tracing,
// https://ui.perfetto.dev) or CSV — exporters live in trace.cpp.
//
// Everything needed to RECORD is header-inline for the same layering
// reason as metrics.hpp: hhc_core instruments itself without linking
// hhc_obs; only exporters need the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hhc::obs {

/// One completed span. `name` must point at a string with static storage
/// duration (the stage constants in obs/stages.hpp); events store the
/// pointer, not a copy.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_nanos = 0;  // since the enabling Tracer epoch
  std::uint64_t dur_nanos = 0;
  std::uint32_t tid = 0;  // dense per-thread id, assigned at first span
};

namespace detail {

[[nodiscard]] inline std::uint64_t monotonic_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's bounded event buffer. Exactly one writer (the owning
/// thread) appends; any thread may drain concurrently. Every slot field is
/// an atomic and each slot carries a seqlock-style sequence counter, so a
/// drain racing a wrap-around rewrite detects the torn slot and skips it
/// instead of blocking the writer.
struct TraceRing {
  struct Slot {
    std::atomic<std::uint32_t> seq{0};  // even = stable, odd = mid-write
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> start{0};
    std::atomic<std::uint64_t> dur{0};
  };

  TraceRing(std::size_t cap, std::uint32_t id)
      : capacity{cap}, tid{id},
        slots{cap > 0 ? std::make_unique<Slot[]>(cap) : nullptr} {}

  /// Owner thread only. Lock-free: a seq bump, three release stores, a
  /// closing seq store, and the count publication. The field stores are
  /// release so that a reader whose acquire load sees a new field value
  /// also sees the odd seq stored before it (x86 emits plain stores).
  void append(const char* name, std::uint64_t start,
              std::uint64_t dur) noexcept {
    if (capacity == 0) return;
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    Slot& slot = slots[n % capacity];
    const std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: mid-write
    slot.name.store(name, std::memory_order_release);
    slot.start.store(start, std::memory_order_release);
    slot.dur.store(dur, std::memory_order_release);
    slot.seq.store(seq + 2, std::memory_order_release);  // even: stable
    count.store(n + 1, std::memory_order_release);
  }

  /// Any thread. Appends every readable event to `out`; at most one slot
  /// (the one a concurrent wrap is rewriting) may be skipped per call.
  void snapshot(std::vector<TraceEvent>& out) const {
    const std::uint64_t n = count.load(std::memory_order_acquire);
    const std::uint64_t stored = n < capacity ? n : capacity;
    for (std::uint64_t i = 0; i < stored; ++i) {
      const Slot& slot = slots[i];
      const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // mid-write
      // Acquire loads: a value from a rewrite that began after s1 carries
      // that rewrite's odd seq with it, and the re-check below sees it.
      TraceEvent event{slot.name.load(std::memory_order_acquire),
                       slot.start.load(std::memory_order_acquire),
                       slot.dur.load(std::memory_order_acquire), tid};
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
      out.push_back(event);
    }
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    return n > capacity ? n - capacity : 0;
  }

  const std::size_t capacity;
  const std::uint32_t tid;
  const std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> count{0};  // total appends ever (owner writes)
};

struct TraceState {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> epoch_nanos{0};
  /// Bumped by enable()/clear(); threads re-register when their cached
  /// generation is stale, which is how "reset" never touches a live ring.
  std::atomic<std::uint64_t> generation{1};
  mutable std::mutex mutex;  // guards rings + capacity + next_tid
  std::vector<std::shared_ptr<TraceRing>> rings;  // current generation only
  std::size_t capacity = 1 << 13;  // events per thread
  std::uint32_t next_tid = 0;
};

[[nodiscard]] inline TraceState& trace_state() {
  static TraceState state;
  return state;
}

/// This thread's current-generation ring, created and registered on first
/// use (and re-created after every enable()/clear()). The registry holds a
/// shared_ptr so buffered events survive thread exit until the next reset.
[[nodiscard]] inline TraceRing& thread_ring() {
  struct Local {
    std::shared_ptr<TraceRing> ring;
    std::uint64_t generation = 0;
  };
  thread_local Local local;
  TraceState& state = trace_state();
  const std::uint64_t generation =
      state.generation.load(std::memory_order_acquire);
  if (local.generation != generation) {
    std::lock_guard lock{state.mutex};
    local.ring = std::make_shared<TraceRing>(state.capacity, state.next_tid++);
    state.rings.push_back(local.ring);
    // Re-read under the lock: a reset that slipped in since the relaxed
    // check above must not leave a stale generation cached.
    local.generation = state.generation.load(std::memory_order_relaxed);
  }
  return *local.ring;
}

}  // namespace detail

/// Global switch + collection point for trace spans. All methods are
/// static; thread-safe.
class Tracer {
 public:
  /// True when spans are being recorded. THE hot-path check: one relaxed
  /// atomic load.
  [[nodiscard]] static bool enabled() noexcept {
    return detail::trace_state().enabled.load(std::memory_order_relaxed);
  }

  /// Starts (or restarts) collection: drops all previously buffered
  /// events, sizes new rings to `events_per_thread`, and resets the trace
  /// epoch so new timestamps start near zero.
  static void enable(std::size_t events_per_thread = 1 << 13) {
    detail::TraceState& state = detail::trace_state();
    {
      std::lock_guard lock{state.mutex};
      state.capacity = events_per_thread;
      state.rings.clear();
      state.next_tid = 0;
    }
    state.generation.fetch_add(1, std::memory_order_release);
    state.epoch_nanos.store(detail::monotonic_nanos(),
                            std::memory_order_relaxed);
    state.enabled.store(true, std::memory_order_relaxed);
  }

  /// Stops recording; buffered events stay available to drain(). A span
  /// already open when tracing flips off still records its event.
  static void disable() noexcept {
    detail::trace_state().enabled.store(false, std::memory_order_relaxed);
  }

  /// Copies out every buffered event across all threads, sorted by start
  /// time. Safe while tracing is live (concurrent spans either make the
  /// cut or the next drain). Does not clear the buffers.
  [[nodiscard]] static std::vector<TraceEvent> drain();

  /// Drops all buffered events and zeroes the drop counters.
  static void clear();

  /// Events lost to ring overflow since the last enable()/clear().
  [[nodiscard]] static std::uint64_t dropped();
};

/// RAII span: times the enclosing scope and records it on destruction.
/// `name` must have static storage duration. When `stage_hist` is non-null
/// the duration (µs) is also recorded there — pass
/// obs::stage_histogram(name), cached in a function-local static at the
/// call site.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     Histogram* stage_hist = nullptr) noexcept {
    if (!Tracer::enabled()) return;  // name_ stays null: disabled span
    name_ = name;
    hist_ = stage_hist;
    start_ = detail::monotonic_nanos();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (name_ == nullptr) return;
    const std::uint64_t end = detail::monotonic_nanos();
    const std::uint64_t dur = end > start_ ? end - start_ : 0;
    detail::TraceState& state = detail::trace_state();
    const std::uint64_t epoch =
        state.epoch_nanos.load(std::memory_order_relaxed);
    detail::thread_ring().append(name_, start_ > epoch ? start_ - epoch : 0,
                                 dur);
    if (hist_ != nullptr) hist_->record(static_cast<double>(dur) / 1e3);
  }

 private:
  const char* name_ = nullptr;
  Histogram* hist_ = nullptr;
  std::uint64_t start_ = 0;
};

/// Chrome trace_event JSON ("X" complete events, ts/dur in µs): load the
/// string into chrome://tracing or https://ui.perfetto.dev. pid is 0; tid
/// is the dense per-thread id from the events.
[[nodiscard]] std::string to_chrome_trace_json(
    const std::vector<TraceEvent>& events);

/// name,tid,start_us,dur_us — one row per event, header included.
[[nodiscard]] std::string to_trace_csv(const std::vector<TraceEvent>& events);

}  // namespace hhc::obs

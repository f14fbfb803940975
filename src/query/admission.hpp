// Admission control, overload detection, and circuit breaking for the
// path-query engine.
//
// Three cooperating mechanisms keep PathService answering within bounded
// time when offered load exceeds capacity, instead of parking workers in
// expensive fallbacks:
//
//   AdmissionGate    a bounded in-flight limit with a configurable response
//                    when the bound is hit: reject (shed immediately) or
//                    degrade (admit, but flag the query so the expensive
//                    fault-aware BFS fallback is skipped and the answer is
//                    best-effort). The gate never blocks: it answers or
//                    refuses at once. Queueing is the caller's job, done in
//                    front of answer() (a bounded arrival queue, a
//                    try_submit door, a client retry with backoff) — a
//                    second queue behind the caller's would only hide the
//                    overload from it.
//   EWMA detector    an exponentially weighted moving average of answer
//                    latency, folded into the gate: when the smoothed
//                    latency crosses the configured threshold the service
//                    is "overloaded" and admissions degrade — or, with
//                    shed_on_overload, shed — regardless of in-flight
//                    occupancy.
//   CircuitBreaker   a per-fault-epoch memory of repeatedly-disconnected
//                    pairs: once a pair reports kDisconnected `threshold`
//                    consecutive times within one fault epoch, further
//                    queries for it short-circuit to an immediate shed
//                    until the epoch advances (i.e. the fault landscape
//                    changes), sparing the survivor-subgraph BFS the
//                    hopeless full-graph sweeps that make hostile fault
//                    sets so expensive.
//
// Shed-fast contract: a rejected decision performs NO shared-memory
// writes. The in-flight bound is split into striped slot counters, one per
// cache line, and claimed with a read + CAS that only writes on successful
// admission; completion feedback lands in per-thread cells and is folded
// into the EWMA on decision epochs, not per sample; and a disabled
// mechanism costs at most a relaxed load. This is what makes rejection
// effectively free and lets goodput plateau under overload instead of
// collapsing (the F6b closed-loop sweep in BENCH_query.json is the
// acceptance curve).
//
// Recovery contract: the EWMA only learns from completed answers, so a
// gate shedding 100% of traffic would otherwise never observe that load
// dropped. Under shed_on_overload every probe_interval-th shed decision
// per thread is admitted (degraded) as a half-open probe; probe
// completions feed the detector and close the loop, so a recovered
// backend reopens the gate within a handful of probes.
//
// All three are policy ONLY — they never alter the bits of an answer that
// is delivered with RouteOutcome::kOk. With the default config (no limit,
// no threshold, no breaker) every mechanism is inert and the service
// behaves exactly as it did before this layer existed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/topology.hpp"
#include "util/slot_pool.hpp"

namespace hhc::query {

/// What the gate does when the in-flight bound is reached.
enum class AdmissionPolicy {
  kReject,   // shed the query immediately (outcome kShed)
  kDegrade,  // admit anyway, but skip the expensive fault-aware fallback
};

[[nodiscard]] constexpr const char* to_string(AdmissionPolicy p) noexcept {
  switch (p) {
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kDegrade: return "degrade";
  }
  return "?";
}

struct AdmissionConfig {
  /// Concurrent in-flight answer() bound; 0 = unlimited. An unlimited gate
  /// does no occupancy accounting at all (admit/release are read-only), so
  /// the default config adds zero shared writes to the query hot path.
  std::size_t max_in_flight = 0;
  AdmissionPolicy policy = AdmissionPolicy::kReject;
  /// EWMA smoothing factor in (0, 1]; the weight of the newest sample.
  double ewma_alpha = 0.2;
  /// Smoothed-latency overload threshold in µs; 0 = detector disabled
  /// (completion feedback then never touches shared state either).
  double overload_latency_us = 0.0;
  /// Consecutive kDisconnected answers for one pair (within one fault
  /// epoch) that open its breaker; 0 = breaker disabled.
  std::size_t breaker_threshold = 0;
  /// When the EWMA detector flags overload, SHED instead of degrading
  /// admissions. This is the shed-fast posture: an overloaded service
  /// refuses work in nanoseconds rather than admitting ever-slower
  /// best-effort answers. false keeps the PR 5 degrade semantics.
  bool shed_on_overload = false;
  /// Under shed_on_overload, every Nth consecutive shed decision per
  /// thread is admitted (degraded) as a half-open probe so the detector
  /// keeps seeing completions and can observe recovery. 0 disables probing
  /// (a fully-shedding gate then stays shut until something else
  /// completes — only sensible in tests).
  std::size_t probe_interval = 64;
};

/// Gate verdicts, in decreasing order of service delivered.
enum class AdmissionVerdict {
  kAdmitted,          // run the full query
  kAdmittedDegraded,  // run, but skip the fault-aware fallback
  kShed,              // rejected: bound hit / overload under shed_on_overload
};

/// The bounded in-flight gate + EWMA overload detector. Thread-safe; one
/// admit() that returns kAdmitted/kAdmittedDegraded must be paired with
/// exactly one release() (PathService uses an RAII guard).
///
/// A bounded gate splits max_in_flight over striped slot counters, each on
/// its own cache line. The stripe count is derived, never configured:
/// min(max_in_flight, hardware threads this process may run on), with
/// capacities summing to the bound. A thread's home stripe is the one of
/// the CPU it runs on; it claims there first and scans the others only
/// when that one is full, so streams on different cores each keep to
/// their own line instead of all writing one shared word.
class AdmissionGate {
 public:
  explicit AdmissionGate(AdmissionConfig config);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Decides one query's fate at once; never blocks. A kShed verdict
  /// writes no shared memory: it is refused only after every stripe was
  /// seen full.
  [[nodiscard]] AdmissionVerdict admit();

  /// Returns one unit taken by a successful admit(). Units are
  /// interchangeable, so release() may run on any thread, not only the one
  /// that admitted: it takes the unit back from the calling thread's home
  /// stripe, or from the first other stripe holding one. Lock-free,
  /// noexcept and allocation-free. No-op on an unlimited gate (no slot was
  /// ever claimed). A release() without a matching admission breaks the
  /// pairing precondition and does not return once every stripe is empty.
  void release() noexcept;

  /// Feeds one completed answer's latency into the detector: per-thread
  /// cells, folded into the EWMA on decision epochs (every kDecisionEpoch
  /// completions, and eagerly while the gate is overloaded so probe
  /// completions reopen it promptly). With the detector disabled this
  /// touches thread-private cells only.
  void record_latency(double micros) noexcept;

  /// Smoothed latency estimate (µs); 0 until the first sample. Folds any
  /// pending completion samples first, so reads are exact when writers are
  /// quiescent (tests and stats() rely on that).
  [[nodiscard]] double ewma_latency_us() const noexcept;

  /// True when the detector is armed and the smoothed latency exceeds the
  /// configured threshold. Folds pending samples like ewma_latency_us();
  /// the hot admit() path reads the cached epoch-folded state instead.
  [[nodiscard]] bool overloaded() const noexcept;

  /// Occupancy summed over the stripes: exact when the gate is quiescent,
  /// and always 0 for an unlimited gate (which does no accounting — see
  /// AdmissionConfig::max_in_flight).
  [[nodiscard]] std::size_t in_flight() const noexcept;
  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }

  /// Length of the calling thread's per-gate table: bounded by the most
  /// gates alive at once.
  [[nodiscard]] static std::size_t thread_table_size();

  /// Completions folded per EWMA update when the detector is armed.
  static constexpr std::uint64_t kDecisionEpoch = 32;

 private:
  /// One slot counter. `used` may exceed `capacity` transiently through
  /// kDegrade and probe admissions.
  struct alignas(64) Stripe {
    std::atomic<std::size_t> used{0};
    std::size_t capacity = 0;
  };

  /// One thread's completion samples. Only the owning thread writes it; a
  /// fold reads {count, sum_ns} as one pair, retrying while `seq` is odd
  /// (the owner is mid-update) or moved during the read, so a sample is
  /// never folded with its count but without its latency.
  struct alignas(64) CompletionCell {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
  };

  /// The calling thread's entry for this gate.
  struct ThreadState {
    std::size_t shed_streak = 0;
    CompletionCell* cell = nullptr;  // owned by cells_
  };

  /// Folds completion samples recorded since the last fold into the EWMA
  /// and refreshes the cached overload flag. Blocking variant used by the
  /// exact read-side accessors; the completion path uses try-lock.
  void fold_completions() const noexcept;
  [[nodiscard]] bool try_fold_completions() const noexcept;
  void apply_fold_locked() const noexcept;
  [[nodiscard]] std::size_t home_stripe() const noexcept;
  [[nodiscard]] ThreadState& thread_state() const;
  [[nodiscard]] CompletionCell& completion_cell();
  [[nodiscard]] static util::ThreadTable<ThreadState>& tls_states();
  [[nodiscard]] static util::SlotPool& slot_pool();

  // Read by every admit(); written only by a fold that flips the verdict.
  AdmissionConfig config_;
  const util::SlotKey key_;  // keys this gate's per-thread state
  std::size_t stripe_count_ = 0;  // 0 for an unlimited gate
  std::unique_ptr<Stripe[]> stripes_;
  mutable std::atomic<bool> overload_cached_{false};

  // Completion feedback: per-thread cells on the write side, folded into
  // ewma_us_/overload_cached_ under fold_mutex_ on decision epochs. The
  // epoch trigger starts a new cache line so that armed completions do not
  // invalidate the line admit() reads.
  alignas(64) std::atomic<std::uint64_t> completions_{0};
  mutable std::mutex cells_mutex_;  // guards cells_ (registration, folds)
  std::vector<std::unique_ptr<CompletionCell>> cells_;
  mutable std::mutex fold_mutex_;
  mutable std::uint64_t folded_count_ = 0;  // under fold_mutex_
  mutable std::uint64_t folded_sum_ns_ = 0;
  mutable std::atomic<double> ewma_us_{0.0};
};

/// Per-fault-epoch short-circuit for repeatedly-disconnected pairs. The
/// breaker owns the epoch counter: advance_fault_epoch() is WAIT-FREE (one
/// relaxed increment) and entries from older epochs reset lazily on their
/// next touch, so a repair gives every pair a fresh chance without any
/// sweep. should_short_circuit() is read-only until the first breaker
/// entry exists (one relaxed load), so pristine-heavy traffic never pays
/// for the map mutex.
class CircuitBreaker {
 public:
  /// threshold = consecutive disconnects that open a pair's breaker;
  /// 0 disables the breaker entirely (both methods become no-ops).
  explicit CircuitBreaker(std::size_t threshold) : threshold_{threshold} {}

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Tells the breaker the fault landscape changed (faults added or
  /// repaired): every open breaker gets a fresh chance. Wait-free.
  void advance_fault_epoch() noexcept {
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fault_epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// True when (s, t) should be short-circuited at the current epoch — its
  /// breaker opened in this same epoch and has not been reset by an epoch
  /// advance.
  [[nodiscard]] bool should_short_circuit(core::Node s, core::Node t);

  /// Records one authoritative answer for (s, t): a disconnect extends the
  /// streak (opening the breaker at the threshold), anything else resets it.
  void record(core::Node s, core::Node t, bool disconnected);

  /// Breakers opened since construction (monotone; telemetry only).
  [[nodiscard]] std::uint64_t trips() const noexcept {
    return trips_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool enabled() const noexcept { return threshold_ > 0; }

 private:
  struct PairKey {
    core::Node s = 0;
    core::Node t = 0;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept {
      std::uint64_t h = k.s * 0x9e3779b97f4a7c15ULL;
      h ^= (k.t + 0xbf58476d1ce4e5b9ULL) + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    std::uint64_t epoch = 0;
    std::size_t streak = 0;
    bool open = false;
  };

  std::size_t threshold_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> trips_{0};
  std::atomic<bool> has_entries_{false};
  std::mutex mutex_;
  std::unordered_map<PairKey, Entry, PairKeyHash> entries_;
};

}  // namespace hhc::query

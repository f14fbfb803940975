#include "query/admission.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "obs/metrics.hpp"
#include "obs/stages.hpp"

namespace hhc::query {

namespace {

// The CPU the calling thread runs on (a cached read on Linux). Threads
// sharing a CPU take turns on it, so keying home stripes by CPU keeps each
// stripe's line on one core even when streams outnumber cores. Elsewhere,
// or if the CPU is unknown, a process-wide index handed out per thread on
// first use.
std::size_t current_cpu() noexcept {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0) return static_cast<std::size_t>(cpu);
#endif
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

// Hardware threads this process may run on: a CPU set narrower than the
// machine (taskset, a container's cpuset) gets fewer stripes, since
// stripes beyond the cores in use only lengthen a refusal's scan.
std::size_t hardware_threads() noexcept {
#if defined(__linux__)
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof cpus, &cpus) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&cpus)));
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

AdmissionGate::AdmissionGate(AdmissionConfig config)
    : config_{config}, key_{slot_pool()} {
  if (config_.max_in_flight == 0) return;  // unlimited: no accounting
  stripe_count_ = std::min(config_.max_in_flight, hardware_threads());
  stripes_ = std::make_unique<Stripe[]>(stripe_count_);
  // Capacities sum to the bound: the first (bound % stripes) stripes take
  // one extra slot.
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    stripes_[i].capacity = config_.max_in_flight / stripe_count_ +
                           (i < config_.max_in_flight % stripe_count_ ? 1 : 0);
  }
}

util::SlotPool& AdmissionGate::slot_pool() {
  static auto* slots = new util::SlotPool;  // never destroyed: outlives gates
  return *slots;
}

util::ThreadTable<AdmissionGate::ThreadState>& AdmissionGate::tls_states() {
  thread_local util::ThreadTable<ThreadState> states;
  return states;
}

AdmissionGate::ThreadState& AdmissionGate::thread_state() const {
  // One entry per live gate (the slot is recycled when a gate dies; the
  // entry restarts empty for the next gate holding it).
  return tls_states().get(key_);
}

std::size_t AdmissionGate::thread_table_size() {
  return tls_states().size();
}

std::size_t AdmissionGate::home_stripe() const noexcept {
  // One stripe (one usable CPU, or a bound of 1) needs no CPU lookup: it
  // would cost every admitted query two calls and a division for nothing.
  return stripe_count_ == 1 ? 0 : current_cpu() % stripe_count_;
}

std::size_t AdmissionGate::in_flight() const noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < stripe_count_; ++i) {
    total += stripes_[i].used.load(std::memory_order_relaxed);
  }
  return total;
}

AdmissionVerdict AdmissionGate::admit() {
  // One relaxed load: the overload verdict is the cached result of the
  // last decision-epoch fold, never computed inline on the hot path.
  const bool overload = overload_cached_.load(std::memory_order_relaxed);

  if (overload && config_.shed_on_overload) {
    // Shed-fast posture: a latency overload sheds instead of degrading —
    // admitting more work behind an already slow service only makes the
    // smoothed latency worse. Every probe_interval-th consecutive shed
    // decision per thread is admitted degraded as a half-open probe so
    // completions keep feeding the detector (recovery contract).
    std::size_t& streak = thread_state().shed_streak;
    if (config_.probe_interval == 0 ||
        ++streak % config_.probe_interval != 0) {
      return AdmissionVerdict::kShed;  // no shared writes
    }
    // The probe claims a slot like a kDegrade admission: it may transiently
    // exceed the bound, which is the price of keeping the feedback loop
    // closed while the gate is shut.
    if (stripe_count_ != 0) {
      stripes_[home_stripe()].used.fetch_add(1, std::memory_order_relaxed);
    }
    return AdmissionVerdict::kAdmittedDegraded;
  }

  if (stripe_count_ == 0) {
    // Unlimited gate: no occupancy accounting at all, so the default
    // config adds zero shared writes to answer()/answer_view().
    return overload ? AdmissionVerdict::kAdmittedDegraded
                    : AdmissionVerdict::kAdmitted;
  }

  // Claim a slot with a read + CAS on the striped counters, the home
  // stripe first: the write happens only on successful admission, so a
  // saturated gate sheds with one relaxed load per stripe and no
  // cache-line ping-pong, and streams that fit the bound each write their
  // own line rather than one word shared by every admission.
  const std::size_t home = home_stripe();
  std::size_t at = home;
  for (std::size_t left = stripe_count_; left > 0; --left) {
    Stripe& stripe = stripes_[at];
    std::size_t occupied = stripe.used.load(std::memory_order_relaxed);
    while (occupied < stripe.capacity) {
      if (stripe.used.compare_exchange_weak(occupied, occupied + 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
        return overload ? AdmissionVerdict::kAdmittedDegraded
                        : AdmissionVerdict::kAdmitted;
      }
    }
    if (++at == stripe_count_) at = 0;
  }

  if (config_.policy == AdmissionPolicy::kDegrade) {
    stripes_[home].used.fetch_add(1, std::memory_order_relaxed);
    return AdmissionVerdict::kAdmittedDegraded;
  }
  return AdmissionVerdict::kShed;
}

void AdmissionGate::release() noexcept {
  if (stripe_count_ == 0) return;  // nothing was claimed
  // The caller's unit is on some stripe, but not necessarily the home one:
  // the admission may have landed elsewhere, or run on another CPU. A
  // pass can miss it while concurrent admits and releases move units
  // between stripes, so passes repeat until one decrement lands; no stripe
  // ever drops below zero.
  const std::size_t home = home_stripe();
  for (std::size_t at = home;;) {
    std::atomic<std::size_t>& used = stripes_[at].used;
    std::size_t held = used.load(std::memory_order_relaxed);
    while (held > 0) {
      if (used.compare_exchange_weak(held, held - 1,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
        return;
      }
    }
    if (++at == stripe_count_) at = 0;
    if (at == home) std::this_thread::yield();  // a whole pass missed
  }
}

AdmissionGate::CompletionCell& AdmissionGate::completion_cell() {
  CompletionCell*& cell = thread_state().cell;
  if (cell == nullptr) {
    std::lock_guard lock{cells_mutex_};
    cells_.push_back(std::make_unique<CompletionCell>());
    cell = cells_.back().get();
  }
  return *cell;
}

void AdmissionGate::record_latency(double micros) noexcept {
  if (!(micros >= 0.0)) return;  // NaN/negative samples carry no signal
  // Owner-only update of this thread's cell: an odd `seq` marks it busy,
  // and the release stores keep a fold from pairing the new count with
  // the old sum (or the reverse).
  CompletionCell& cell = completion_cell();
  const std::uint64_t seq = cell.seq.load(std::memory_order_relaxed);
  cell.seq.store(seq + 1, std::memory_order_relaxed);
  cell.count.store(cell.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  cell.sum_ns.store(cell.sum_ns.load(std::memory_order_relaxed) +
                        static_cast<std::uint64_t>(micros * 1000.0),
                    std::memory_order_release);
  cell.seq.store(seq + 2, std::memory_order_release);
  if (config_.overload_latency_us <= 0.0) {
    // Detector disabled: the cells are pure telemetry, folded only when
    // ewma_latency_us() is read — no shared writes on the completion path.
    return;
  }
  // Decision-epoch fold: every kDecisionEpoch-th completion folds the
  // per-thread cells into the EWMA, and an overloaded gate folds eagerly so
  // the rare probe completions reopen it without waiting out an epoch.
  const std::uint64_t n =
      completions_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % kDecisionEpoch == 0 ||
      overload_cached_.load(std::memory_order_relaxed)) {
    (void)try_fold_completions();
  }
}

void AdmissionGate::apply_fold_locked() const noexcept {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  {
    std::lock_guard lock{cells_mutex_};
    for (const auto& cell : cells_) {
      // Reads one consistent {count, sum} pair: `seq` even and unchanged
      // across the two loads means no update overlapped them (the acquire
      // loads make a newer count or sum imply a newer `seq`).
      for (;;) {
        const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
        if (seq % 2 == 0) {
          const std::uint64_t c = cell->count.load(std::memory_order_acquire);
          const std::uint64_t s = cell->sum_ns.load(std::memory_order_acquire);
          if (cell->seq.load(std::memory_order_relaxed) == seq) {
            count += c;
            sum_ns += s;
            break;
          }
        }
        std::this_thread::yield();  // the owner is mid-update
      }
    }
  }
  const std::uint64_t pending = count - folded_count_;
  if (pending > 0) {
    const double mean_us = static_cast<double>(sum_ns - folded_sum_ns_) /
                           (1000.0 * static_cast<double>(pending));
    const double seen = ewma_us_.load(std::memory_order_relaxed);
    // n equal-weight samples of mean µ applied to an EWMA in closed form:
    // ewma' = µ + (ewma - µ)(1 - α)^n; a batch of one is exactly the
    // per-sample update, so sequential (test) use is bit-exact.
    const double next =
        seen == 0.0 ? mean_us
                    : mean_us + (seen - mean_us) *
                                    std::pow(1.0 - config_.ewma_alpha,
                                             static_cast<double>(pending));
    ewma_us_.store(next, std::memory_order_relaxed);
    folded_count_ = count;
    folded_sum_ns_ = sum_ns;
  }
  const bool overload = config_.overload_latency_us > 0.0 &&
                        ewma_us_.load(std::memory_order_relaxed) >
                            config_.overload_latency_us;
  if (overload_cached_.load(std::memory_order_relaxed) != overload) {
    overload_cached_.store(overload, std::memory_order_relaxed);
  }
}

void AdmissionGate::fold_completions() const noexcept {
  std::lock_guard lock{fold_mutex_};
  apply_fold_locked();
}

bool AdmissionGate::try_fold_completions() const noexcept {
  std::unique_lock lock{fold_mutex_, std::try_to_lock};
  if (!lock.owns_lock()) return false;  // a racing fold is already at it
  apply_fold_locked();
  return true;
}

double AdmissionGate::ewma_latency_us() const noexcept {
  fold_completions();
  return ewma_us_.load(std::memory_order_relaxed);
}

bool AdmissionGate::overloaded() const noexcept {
  fold_completions();
  return overload_cached_.load(std::memory_order_relaxed);
}

bool CircuitBreaker::should_short_circuit(core::Node s, core::Node t) {
  if (threshold_ == 0) return false;
  // Read-only fast path: until a record() has inserted the first entry,
  // no pair can possibly be open, so the map mutex is never touched.
  if (!has_entries_.load(std::memory_order_acquire)) return false;
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::lock_guard lock{mutex_};
  auto it = entries_.find(PairKey{s, t});
  if (it == entries_.end()) return false;
  if (it->second.epoch != epoch) {
    // The fault landscape changed since this entry was written: reset it
    // lazily instead of sweeping the whole map on every epoch advance.
    it->second = Entry{.epoch = epoch};
    return false;
  }
  return it->second.open;
}

void CircuitBreaker::record(core::Node s, core::Node t, bool disconnected) {
  if (threshold_ == 0) return;
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::lock_guard lock{mutex_};
  Entry& entry = entries_[PairKey{s, t}];
  has_entries_.store(true, std::memory_order_release);
  if (entry.epoch != epoch) entry = Entry{.epoch = epoch};
  if (!disconnected) {
    entry.streak = 0;
    entry.open = false;
    return;
  }
  if (entry.open) return;  // already open; nothing to count
  if (++entry.streak >= threshold_) {
    entry.open = true;
    trips_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& trips =
        obs::MetricRegistry::global().counter(obs::stages::kBreakerTripCount);
    trips.inc();
  }
}

}  // namespace hhc::query

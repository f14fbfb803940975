#include "query/admission.hpp"

#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stages.hpp"

namespace hhc::query {

util::SlotPool& AdmissionGate::slot_pool() {
  static auto* slots = new util::SlotPool;  // never destroyed: outlives gates
  return *slots;
}

util::ThreadTable<std::size_t>& AdmissionGate::tls_streaks() {
  thread_local util::ThreadTable<std::size_t> streaks;
  return streaks;
}

std::size_t& AdmissionGate::shed_streak() const {
  // One entry per live gate (the slot is recycled when a gate dies; the
  // entry restarts at 0 for the next gate holding it).
  return tls_streaks().get(key_);
}

std::size_t AdmissionGate::thread_table_size() {
  return tls_streaks().size();
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
    std::size_t& streak = shed_streak();
    if (config_.probe_interval == 0 ||
        ++streak % config_.probe_interval != 0) {
      return AdmissionVerdict::kShed;  // no shared writes
    }
    // The probe claims a slot like a kDegrade admission: it may transiently
    // exceed the bound, which is the price of keeping the feedback loop
    // closed while the gate is shut.
    if (config_.max_in_flight != 0) {
      in_flight_.fetch_add(1, std::memory_order_relaxed);
    }
    return AdmissionVerdict::kAdmittedDegraded;
  }

  if (config_.max_in_flight == 0) {
    // Unlimited gate: no occupancy accounting at all, so the default
    // config adds zero shared writes to answer()/answer_view().
    return overload ? AdmissionVerdict::kAdmittedDegraded
                    : AdmissionVerdict::kAdmitted;
  }

  // Claim a slot with a read + CAS: the write happens only on successful
  // admission, so a saturated gate sheds with a single relaxed load and no
  // cache-line ping-pong (the old optimistic fetch_add/fetch_sub pair made
  // every rejected query a shared writer).
  std::size_t occupied = in_flight_.load(std::memory_order_relaxed);
  while (occupied < config_.max_in_flight) {
    if (in_flight_.compare_exchange_weak(occupied, occupied + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      return overload ? AdmissionVerdict::kAdmittedDegraded
                      : AdmissionVerdict::kAdmitted;
    }
  }

  if (config_.policy == AdmissionPolicy::kDegrade) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return AdmissionVerdict::kAdmittedDegraded;
  }
  return AdmissionVerdict::kShed;
}

void AdmissionGate::release() noexcept {
  if (config_.max_in_flight == 0) return;  // nothing was claimed
  in_flight_.fetch_sub(1, std::memory_order_release);
}

void AdmissionGate::record_latency(double micros) noexcept {
  if (!(micros >= 0.0)) return;  // NaN/negative samples carry no signal
  completion_count_.add(1);
  completion_sum_ns_.add(static_cast<std::uint64_t>(micros * 1000.0));
  if (config_.overload_latency_us <= 0.0) {
    // Detector disabled: the cells are pure telemetry, folded only when
    // ewma_latency_us() is read — no shared writes on the completion path.
    return;
  }
  // Decision-epoch fold: every kDecisionEpoch-th completion folds the
  // striped cells into the EWMA, and an overloaded gate folds eagerly so
  // the rare probe completions reopen it without waiting out an epoch.
  const std::uint64_t n =
      completions_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % kDecisionEpoch == 0 ||
      overload_cached_.load(std::memory_order_relaxed)) {
    (void)try_fold_completions();
  }
}

void AdmissionGate::apply_fold_locked() const noexcept {
  const std::uint64_t count = completion_count_.fold();
  const std::uint64_t sum_ns = completion_sum_ns_.fold();
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
  overload_cached_.store(config_.overload_latency_us > 0.0 &&
                             ewma_us_.load(std::memory_order_relaxed) >
                                 config_.overload_latency_us,
                         std::memory_order_relaxed);
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

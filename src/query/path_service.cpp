#include "query/path_service.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace hhc::query {

namespace {

// Slot guard for an admitted query: every exit path (including an
// exception) must give the in-flight slot back.
struct SlotGuard {
  AdmissionGate& gate;
  ~SlotGuard() { gate.release(); }
};

// Preallocated fast-path answers. A shed/expired query returns a COPY of
// one of these: the paths vector is empty, so the copy allocates nothing,
// and no per-query RouteResult state is ever built on the rejection path.
const RouteResult& refused_result(RouteOutcome outcome) {
  static const RouteResult shed{.paths = {}, .outcome = RouteOutcome::kShed};
  static const RouteResult timed_out{.paths = {},
                                     .outcome = RouteOutcome::kTimedOut};
  return outcome == RouteOutcome::kShed ? shed : timed_out;
}

obs::Histogram& outcome_histogram(RouteOutcome outcome) {
  static obs::Histogram& ok = obs::stage_histogram(obs::stages::kAnswerOk);
  static obs::Histogram& timed_out =
      obs::stage_histogram(obs::stages::kAnswerTimedOut);
  switch (outcome) {
    case RouteOutcome::kTimedOut: return timed_out;
    default: return ok;  // kOk / kShed-by-breaker (kInvalid never finalizes)
  }
}

}  // namespace

PathService::PathService(const core::HhcTopology& net, PathServiceConfig config)
    : net_{net},
      config_{config},
      cache_{net, core::ContainerCache::Config{
                      .options = config.options,
                      .shards = config.cache_shards,
                      .max_entries_per_shard = config.max_entries_per_shard}},
      router_{net, &cache_},
      gate_{config.admission},
      breaker_{config.admission.breaker_threshold} {
  if (config_.threads != 1) pool_.emplace(config_.threads);
}

RouteOutcome PathService::admit(const PairQuery& query, bool& degraded) {
  if (!net_.contains(query.s) || !net_.contains(query.t)) {
    throw std::invalid_argument("PathService: node out of range");
  }
  // Shed-fast contract: the gate decides BEFORE any per-query work. A
  // query that arrives already expired answers kTimedOut exactly once,
  // here, without the gate ever seeing it; a refused query pays two
  // thread-private striped bumps — no span, no clock read, no histogram,
  // no cache or registry traffic.
  RouteOutcome refused = RouteOutcome::kShed;
  if (util::should_stop(query.deadline, query.cancel)) {
    refused = RouteOutcome::kTimedOut;
  } else if (const AdmissionVerdict verdict = gate_.admit();
             verdict != AdmissionVerdict::kShed) {
    degraded = verdict == AdmissionVerdict::kAdmittedDegraded;
    return RouteOutcome::kOk;
  }
  (query.faults == nullptr ? pristine_ : fault_aware_).add(1);
  (refused == RouteOutcome::kShed ? shed_ : timed_out_).add(1);
  return refused;
}

void PathService::finalize(const PairQuery& query, RouteOutcome outcome,
                           DegradationLevel level, double micros) {
  latency_.record(micros);
  outcome_histogram(outcome).record(micros);

  (query.faults == nullptr ? pristine_ : fault_aware_).add(1);
  switch (outcome) {
    case RouteOutcome::kOk:
      // Completed answers (and only those) feed the overload detector: a
      // shed query finishes in nanoseconds and would talk the EWMA out of
      // the very overload it is evidence of.
      gate_.record_latency(micros);
      switch (level) {
        case DegradationLevel::kGuaranteed:
          guaranteed_.fetch_add(1, std::memory_order_relaxed);
          break;
        case DegradationLevel::kBestEffort:
          best_effort_.fetch_add(1, std::memory_order_relaxed);
          break;
        case DegradationLevel::kDisconnected:
          disconnected_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
      break;
    case RouteOutcome::kTimedOut:
      // In-flight timeouts did real admitted work; their cost is signal the
      // detector should see and the .timed_out histogram keeps it visible.
      gate_.record_latency(micros);
      timed_out_.add(1);
      break;
    case RouteOutcome::kShed:
      // Admitted work reported non-authoritative: breaker short-circuits
      // and degraded skip-fallback answers. Gate sheds never get here —
      // they take the striped fast path in admit().
      shed_.add(1);
      break;
    case RouteOutcome::kInvalid:
      invalid_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

RouteResult PathService::answer(const PairQuery& query) {
  bool degraded = false;
  const RouteOutcome admission = admit(query, degraded);
  if (admission != RouteOutcome::kOk) return refused_result(admission);

  SlotGuard guard{gate_};
  // Telemetry starts only once the query is admitted: latency_ and the
  // stage histograms measure post-admission service time.
  static obs::Histogram& answer_hist =
      obs::stage_histogram(obs::stages::kAnswer);
  obs::TraceSpan span{obs::stages::kAnswer, &answer_hist};
  util::Stopwatch watch;

  if (degraded) {
    degraded_admissions_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& degrades = obs::MetricRegistry::global().counter(
        obs::stages::kDegradedAdmissionCount);
    degrades.inc();
  }
  RouteResult result = answer_impl(query, degraded);
  result.micros = watch.micros();
  finalize(query, result.outcome, result.level, result.micros);
  return result;
}

RouteView PathService::answer_view(const PairQuery& query) {
  if (query.faults != nullptr) {
    throw std::invalid_argument(
        "PathService::answer_view: pristine-only (fault-aware queries must "
        "use answer())");
  }
  // The zero-copy path goes through the same gate as answer(): under a
  // bounded in-flight config a data plane hammering views is exactly the
  // traffic the bound exists for. (Degraded admission is meaningless here —
  // there is no fallback to skip — so it collapses to plain admission.)
  RouteView view;
  bool degraded = false;
  view.outcome = admit(query, degraded);
  if (view.outcome != RouteOutcome::kOk) return view;

  SlotGuard guard{gate_};
  static obs::Histogram& view_hist =
      obs::stage_histogram(obs::stages::kAnswerView);
  obs::TraceSpan span{obs::stages::kAnswerView, &view_hist};
  util::Stopwatch watch;

  view.level = DegradationLevel::kGuaranteed;
  if (query.s == query.t) {
    // One shared trivial container {node 0}; the XOR mask relabels node 0
    // to s, so even the self-loop answer allocates nothing per query.
    static const auto kSelf = std::make_shared<const core::FlatContainer>(
        core::FlatContainer{{0}, {0, 1}});
    view.container = core::ContainerHandle{kSelf, query.s};
    view.cache_hit = true;
  } else {
    view.container =
        cache_.lookup(query.s, query.t, query.options, &view.cache_hit);
  }
  view.micros = watch.micros();
  finalize(query, view.outcome, view.level, view.micros);
  return view;
}

RouteResult PathService::answer_impl(const PairQuery& query, bool degraded) {
  RouteResult result;
  if (query.faults != nullptr) {
    if (breaker_.should_short_circuit(query.s, query.t)) {
      // The pair kept coming back disconnected this epoch; don't spend
      // another survivor sweep proving it again. kShed marks the verdict
      // as non-authoritative.
      result.outcome = RouteOutcome::kShed;
      breaker_short_circuits_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& short_circuits =
          obs::MetricRegistry::global().counter(
              obs::stages::kBreakerShortCircuitCount);
      short_circuits.inc();
      return result;
    }
    result = router_.route(query, {.skip_fallback = degraded});
    if (result.outcome == RouteOutcome::kOk && breaker_.enabled()) {
      breaker_.record(query.s, query.t,
                      result.level == DegradationLevel::kDisconnected);
    }
    return result;
  }

  result.level = DegradationLevel::kGuaranteed;
  if (query.s == query.t) {
    result.paths = {core::Path{query.s}};
    return result;
  }
  // lookup() hands back a borrowed view of the published entry; only the
  // answer that leaves the service materializes owning paths.
  result.paths =
      cache_.lookup(query.s, query.t, query.options, &result.cache_hit)
          .materialize()
          .paths;
  return result;
}

std::vector<RouteResult> PathService::answer(
    std::span<const PairQuery> queries) {
  std::vector<RouteResult> results(queries.size());
  const auto body = [&](std::size_t i) {
    try {
      results[i] = answer(queries[i]);
    } catch (const std::invalid_argument&) {
      // Batch isolation: one malformed element must not poison its
      // siblings (or kill the whole parallel_for). The slot reports
      // kInvalid; everything else in the batch completes normally.
      results[i] = RouteResult{};
      results[i].outcome = RouteOutcome::kInvalid;
      // Still one received query: keep it in the pristine/fault-aware totals
      // so the outcome partition keeps summing to `queries`.
      (queries[i].faults == nullptr ? pristine_ : fault_aware_).add(1);
      invalid_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& invalids =
          obs::MetricRegistry::global().counter(obs::stages::kInvalidCount);
      invalids.inc();
    }
  };
  if (pool_) {
    pool_->parallel_for(0, queries.size(), body);
  } else {
    for (std::size_t i = 0; i < queries.size(); ++i) body(i);
  }
  return results;
}

ServiceStats PathService::stats() const {
  ServiceStats stats;
  stats.pristine = pristine_.fold();
  stats.fault_aware = fault_aware_.fold();
  stats.queries = stats.pristine + stats.fault_aware;
  stats.guaranteed = guaranteed_.load(std::memory_order_relaxed);
  stats.best_effort = best_effort_.load(std::memory_order_relaxed);
  stats.disconnected = disconnected_.load(std::memory_order_relaxed);
  stats.shed = shed_.fold();
  stats.timed_out = timed_out_.fold();
  stats.invalid = invalid_.load(std::memory_order_relaxed);
  stats.degraded_admissions =
      degraded_admissions_.load(std::memory_order_relaxed);
  stats.breaker_short_circuits =
      breaker_short_circuits_.load(std::memory_order_relaxed);
  stats.breaker_trips = breaker_.trips();
  stats.fault_epoch = breaker_.fault_epoch();
  stats.ewma_latency_us = gate_.ewma_latency_us();
  stats.in_flight = gate_.in_flight();
  stats.cache = cache_.stats();
  stats.latency = latency_.snapshot();
  // Same read instant for the registry, so one ServiceStats carries every
  // telemetry surface (satellites read stats.metrics instead of touching
  // the global registry themselves).
  stats.metrics = obs::MetricRegistry::global().snapshot();
  return stats;
}

void PathService::reset_stats() noexcept {
  pristine_.reset();
  fault_aware_.reset();
  shed_.reset();
  timed_out_.reset();
  guaranteed_.store(0, std::memory_order_relaxed);
  best_effort_.store(0, std::memory_order_relaxed);
  disconnected_.store(0, std::memory_order_relaxed);
  invalid_.store(0, std::memory_order_relaxed);
  degraded_admissions_.store(0, std::memory_order_relaxed);
  breaker_short_circuits_.store(0, std::memory_order_relaxed);
  latency_.reset();
}

}  // namespace hhc::query

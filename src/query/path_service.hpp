// hhc::query::PathService — the concurrent path-query engine.
//
// One thread-safe object that every consumer of disjoint-path routing talks
// to, layered over the existing construction:
//
//   * a sharded translation-canonical ContainerCache (per-shard mutexes,
//     lock-free counters) so concurrent queries scale with shards, not a
//     global lock, while answers stay bit-identical to
//     node_disjoint_paths(net, s, t, options);
//   * a batch API answer(span<PairQuery>) that fans out over the in-repo
//     util::ThreadPool with deterministic result ordering: results[i] always
//     answers queries[i], and the routed paths/levels are identical for any
//     thread count (only the timing/cache_hit telemetry fields may differ,
//     since which racing thread populates a cache entry first is scheduling-
//     dependent);
//   * fault-aware queries: a PairQuery carrying a FaultModel view routes
//     through fault::AdaptiveRouter — which shares this service's cache for
//     its container lookups — so one service answers both pristine and
//     degraded-mode traffic;
//   * observability: per-shard hit/miss/eviction counters, a lock-free query
//     latency histogram, and a stats() snapshot renderable as table, CSV, or
//     JSON (query/stats.hpp).
//
// Semantics note: unlike the bare construction (which throws), a service
// treats s == t as the trivial answer — one zero-length path, kGuaranteed —
// because for an operational query engine "route to yourself" is a valid
// request, not a programming error. Out-of-range nodes still throw.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/container_cache.hpp"
#include "core/topology.hpp"
#include "fault/adaptive_router.hpp"
#include "query/admission.hpp"
#include "query/stats.hpp"
#include "query/types.hpp"
#include "util/deadline.hpp"
#include "util/striped.hpp"
#include "util/thread_pool.hpp"

namespace hhc::query {

/// Borrowed answer of the zero-copy pristine fast path (answer_view).
/// `container` shares ownership of the cached flat container — valid for as
/// long as the view lives, even across cache eviction — and relabels nodes
/// lazily, so a cache hit allocates nothing and copies no node data.
struct RouteView {
  core::ContainerHandle container;
  DegradationLevel level = DegradationLevel::kDisconnected;
  RouteOutcome outcome = RouteOutcome::kOk;  // kShed/kTimedOut => !ok()
  bool cache_hit = false;  // served without running the construction
  double micros = 0.0;     // service-side wall time

  [[nodiscard]] bool ok() const noexcept { return container.valid(); }
};

struct PathServiceConfig {
  /// Default construction knobs; PairQuery.options overrides per query.
  core::ConstructionOptions options{};
  /// Cache sharding / capacity (see core::ContainerCache::Config).
  std::size_t cache_shards = 16;
  std::size_t max_entries_per_shard = 0;  // 0 = unbounded
  /// Workers for the batch API: 0 = hardware concurrency, 1 = run batches
  /// inline on the caller's thread (no pool spawned at all).
  std::size_t threads = 1;
  /// Overload robustness (in-flight bound, EWMA detector, breaker). The
  /// default is fully inert: no limit, no threshold, no breaker — answers
  /// are bit-identical to a service without the admission layer.
  AdmissionConfig admission{};
};

class PathService {
 public:
  /// The topology is held by reference; keep it alive beside the service.
  explicit PathService(const core::HhcTopology& net,
                       PathServiceConfig config = {});

  PathService(const PathService&) = delete;
  PathService& operator=(const PathService&) = delete;

  /// Answers one query. Thread-safe: any number of threads may call
  /// concurrently (this is what the batch API does internally). Throws
  /// std::invalid_argument for out-of-range nodes, before admission, so a
  /// malformed query is never counted. Overload behavior: admission never
  /// waits — it admits or sheds the query (outcome kShed) at once; callers
  /// that want queueing queue in front of answer(). An expired deadline is
  /// noticed at the fault-aware router's stage boundaries, so completion
  /// never overruns the deadline by more than one stage-check interval.
  /// Shed-fast contract: a query that arrives already expired answers
  /// kTimedOut — exactly once, before the gate ever sees it — and a
  /// gate-shed query returns a copy of a preallocated result after bumping
  /// per-thread striped tallies only: no heap state, no cache traffic, no
  /// histogram or registry update, no clock read.
  [[nodiscard]] RouteResult answer(const PairQuery& query);

  /// Answers a batch, fanned out over the service's thread pool. results[i]
  /// corresponds to queries[i] regardless of thread count or scheduling.
  /// Unlike the single-query form, a malformed query (out-of-range node)
  /// does NOT throw here: it yields results[i] with outcome kInvalid and
  /// leaves every sibling result intact — one bad element must not poison
  /// a 10k-query batch.
  [[nodiscard]] std::vector<RouteResult> answer(
      std::span<const PairQuery> queries);

  /// The zero-copy pristine fast path: answers WITHOUT materializing the
  /// container (RouteView.container.materialize() reproduces answer()'s
  /// paths bit for bit). Pristine-only — throws std::invalid_argument when
  /// the query carries a fault view (degraded routes must be materialized;
  /// use answer()). Counted in the same telemetry as answer().
  [[nodiscard]] RouteView answer_view(const PairQuery& query);

  /// Consistent telemetry snapshot (cheap; safe under concurrent answer()).
  [[nodiscard]] ServiceStats stats() const;

  /// Zeroes the service-level counters and the latency histogram. Cache
  /// counters/entries are owned by the cache: use cache().clear().
  void reset_stats() noexcept;

  /// Tells the circuit breaker the fault landscape changed (faults added or
  /// repaired): every open breaker gets a fresh chance. Call this whenever
  /// the FaultModel you pass in queries is mutated or swapped, or when a
  /// scheduled repair window opens — the soak harness advances it once per
  /// fault epoch. Wait-free (one relaxed increment on the breaker's epoch);
  /// safe to call concurrently with answers from any thread.
  void advance_fault_epoch() noexcept { breaker_.advance_fault_epoch(); }
  [[nodiscard]] std::uint64_t fault_epoch() const noexcept {
    return breaker_.fault_epoch();
  }

  /// The admission gate (read-only access for telemetry/tests).
  [[nodiscard]] const AdmissionGate& gate() const noexcept { return gate_; }

  [[nodiscard]] core::ContainerCache& cache() noexcept { return cache_; }
  [[nodiscard]] const core::ContainerCache& cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] const core::HhcTopology& net() const noexcept { return net_; }
  /// Batch workers actually in use (1 when batches run inline).
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

 private:
  /// The admission prologue shared by answer() and answer_view(): throws
  /// std::invalid_argument for out-of-range nodes, then refuses an
  /// already-expired query (kTimedOut) or a gate shed (kShed) on the
  /// striped fast path, tallying it once. Returns kOk when the query was
  /// admitted — the caller then owns one gate slot — with `degraded` set
  /// for a degraded admission.
  [[nodiscard]] RouteOutcome admit(const PairQuery& query, bool& degraded);
  [[nodiscard]] RouteResult answer_impl(const PairQuery& query, bool degraded);
  /// The telemetry epilogue for ADMITTED queries: feeds the histograms and
  /// the EWMA, and bumps the outcome and level counters. Refused queries
  /// never reach it.
  void finalize(const PairQuery& query, RouteOutcome outcome,
                DegradationLevel level, double micros);

  const core::HhcTopology& net_;
  PathServiceConfig config_;
  core::ContainerCache cache_;
  fault::AdaptiveRouter router_;
  std::optional<util::ThreadPool> pool_;
  AdmissionGate gate_;
  CircuitBreaker breaker_;

  // pristine/fault-aware/shed/timed-out sit on the shed-fast and
  // expiry-fast paths, so they are per-thread striped cells folded by
  // stats(); the level counters only move on completed (admitted) answers
  // and stay plain atomics.
  util::StripedCounter pristine_;
  util::StripedCounter fault_aware_;
  util::StripedCounter shed_;
  util::StripedCounter timed_out_;
  std::atomic<std::uint64_t> guaranteed_{0};
  std::atomic<std::uint64_t> best_effort_{0};
  std::atomic<std::uint64_t> disconnected_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> degraded_admissions_{0};
  std::atomic<std::uint64_t> breaker_short_circuits_{0};
  obs::Histogram latency_;
};

}  // namespace hhc::query

// Built-in observability for the path-query engine.
//
// The service's answer-latency distribution is an obs::Histogram (µs): a
// fixed array of lock-free power-of-two buckets, so recording on the hot
// query path is one relaxed fetch_add and never blocks a concurrent reader.
// Percentiles read off upper bucket edges and follow sim::percentile's
// error semantics (see obs/metrics.hpp); the renderers below print 0 for
// an empty snapshot instead of throwing.
//
// Latency semantics: the histogram measures POST-ADMISSION service time.
// Gate-shed queries and admission-time deadline expiries never touch it —
// the shed-fast path records nothing but per-thread striped outcome
// tallies — so under overload the distribution describes the work actually
// performed, not a blur of sub-microsecond rejections.
//
// ServiceStats is the plain-data snapshot PathService::stats() returns:
// query/level totals, the cache's per-shard counters, and the latency
// distribution, renderable as an aligned table, CSV, or JSON (via core::io)
// so service telemetry lands in the same formats as campaign reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/container_cache.hpp"
#include "obs/metrics.hpp"

namespace hhc::query {

/// Point-in-time service telemetry; see PathService::stats().
struct ServiceStats {
  std::uint64_t queries = 0;
  std::uint64_t pristine = 0;       // container-only queries
  std::uint64_t fault_aware = 0;    // queries with a fault view attached
  // Level counters only count authoritative (outcome kOk) answers; the
  // outcome counters below cover the rest, so
  //   guaranteed + best_effort + disconnected + shed + timed_out + invalid
  // always equals `queries`.
  std::uint64_t guaranteed = 0;
  std::uint64_t best_effort = 0;
  std::uint64_t disconnected = 0;

  // Overload robustness (see DESIGN.md §8/§10). shed includes both gate
  // rejections and breaker short-circuits; the latter also counted apart.
  // shed/timed_out are folded from per-thread striped cells — the ONLY
  // tallies the shed-fast rejection path touches — so they are exact when
  // writers are quiescent and at-most-one-increment racy under load.
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t invalid = 0;               // malformed batch elements
  std::uint64_t degraded_admissions = 0;   // admitted with fallback skipped
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t breaker_trips = 0;         // breakers opened (monotone)
  std::uint64_t fault_epoch = 0;           // the breaker's current epoch
  double ewma_latency_us = 0.0;            // the overload detector's view
  std::uint64_t in_flight = 0;             // instantaneous occupancy

  core::CacheStats cache;           // aggregate + per-shard counters

  obs::Histogram::Snapshot latency;  // answer_us, post-admission

  /// The process-wide obs::MetricRegistry, captured at the same stats()
  /// read so one snapshot carries every telemetry surface.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] double hit_rate() const noexcept { return cache.hit_rate(); }

  /// Everything as unified core::StatRow rows: the query-level counters
  /// (section "service"), the answer-latency distribution (section
  /// "latency"), the cache snapshot (sections "cache"/"cache.shard<i>"),
  /// then the registry metrics (sections "counter"/"gauge"/"histogram").
  [[nodiscard]] std::vector<core::StatRow> rows() const;

  /// core::stat_rows_csv / core::stat_rows_json over rows() — the same
  /// schema ContainerCache stats and the obs registry export render with.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
  /// Aligned human-readable summary (util::Table).
  void print(std::ostream& os) const;
};

}  // namespace hhc::query

// Process-wide metric registry: named lock-free counters, gauges, and
// power-of-two histograms.
//
// The hot-path types are deliberately header-inline so that ANY layer —
// including hhc_core, which hhc_obs's exporters link against — can record
// metrics without introducing a library cycle: recording needs no symbol
// from hhc_obs, only the exporters (to_csv/to_json, Chrome traces) live in
// the compiled library.
//
// Usage pattern on a hot path: resolve the metric ONCE (registration takes
// a mutex; a function-local static amortizes it to one lookup per site),
// then update through the reference — a single relaxed atomic op:
//
//   static obs::Counter& refills =
//       obs::MetricRegistry::global().counter("construct.arena_refills");
//   refills.inc();
//
// Histogram is the one histogram type, also the query engine's answer
// latency (query/stats.hpp): kBuckets power-of-two bins where
// bucket b counts values in [2^(b-1), 2^b) and bucket 0 the sub-unit ones.
// Percentiles read off upper bucket edges (conservative). Unlike the
// pre-obs implementation, Snapshot::percentile skips empty leading buckets
// (p = 0 reports the first NON-empty bucket's edge, not a phantom 1) and
// aligns its error semantics with sim::percentile: out-of-range p and an
// empty histogram throw std::invalid_argument instead of silently
// returning 0.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hhc::core {
struct StatRow;
}  // namespace hhc::core

namespace hhc::obs {

/// Monotonic event count. All operations are wait-free relaxed atomics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (signed; add() for deltas).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t get() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Lock-free power-of-two histogram: bucket b counts values in
/// [2^(b-1), 2^b), bucket 0 everything below 1 (plus NaN/negatives), the
/// top bucket saturates. Recording is one relaxed fetch_add plus a CAS-loop
/// max update; snapshots are consistent enough for dashboards (relaxed
/// per-bucket loads).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  struct Snapshot {
    std::vector<std::uint64_t> buckets;  // kBuckets power-of-two bins
    std::uint64_t count = 0;
    double max_value = 0.0;

    /// Upper bucket edge below which a `p` fraction of samples fall; p = 0
    /// returns the edge of the first non-empty bucket. Throws
    /// std::invalid_argument for p outside [0, 1] (NaN included) or when
    /// the snapshot is empty.
    [[nodiscard]] double percentile(double p) const {
      if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("Histogram: p outside [0, 1]");
      }
      if (count == 0) {
        throw std::invalid_argument("Histogram: empty histogram");
      }
      // ceil(p * count) samples must fall at or below the reported edge; the
      // clamp to >= 1 is what skips empty leading buckets at p = 0
      // (otherwise target = 0 is satisfied by bucket 0 even when it is
      // empty).
      auto target =
          static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count)));
      if (target == 0) target = 1;
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        cumulative += buckets[b];
        if (cumulative >= target) return std::ldexp(1.0, static_cast<int>(b));
      }
      return std::ldexp(1.0, static_cast<int>(buckets.size()) - 1);
    }
  };

  /// Bucket index for a sample: 0 for < 1 (also NaN/negatives), else
  /// 1 + floor(log2(v)), saturating at the top bucket.
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept {
    if (!(value >= 1.0)) return 0;
    if (value >= 0x1p63) return kBuckets - 1;  // beyond uint64 conversion
    const auto v = static_cast<std::uint64_t>(value);
    const auto width = static_cast<std::size_t>(std::bit_width(v));
    return width < kBuckets ? width : kBuckets - 1;
  }

  /// Thread-safe, wait-free; NaN/negative samples clamp to bucket 0.
  void record(double value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    if (!(value > 0.0)) return;
    double seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot snap;
    snap.buckets.resize(kBuckets);
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
      snap.count += snap.buckets[b];
    }
    snap.max_value = max_.load(std::memory_order_relaxed);
    return snap;
  }

  void reset() noexcept {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<double> max_{0.0};
};

/// Name-sorted point-in-time view of every registered metric; histogram
/// entries carry full bucket snapshots. Render with to_csv()/to_json()
/// (compiled in hhc_obs — they share core::io's unified StatRow schema, so
/// registry exports, cache stats, and service stats all land in one table
/// shape).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

  /// The snapshot as unified stat rows: counters/gauges as scalars under
  /// sections "counter"/"gauge", histograms as distributions under
  /// "histogram" (percentiles omitted while empty).
  [[nodiscard]] std::vector<core::StatRow> rows() const;

  /// core::stat_rows_csv / core::stat_rows_json over rows().
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
};

/// The process-wide registry. Registration (name -> metric) takes a mutex
/// and allocates once per name; the returned references are stable for the
/// registry's lifetime, so hot paths cache them (see header comment) and
/// never touch the lock again. Each kind has its own namespace: a counter
/// and a histogram may share a name.
class MetricRegistry {
 public:
  /// The process-wide instance (function-local static: header-inline so
  /// every library sees the same registry without linking hhc_obs).
  [[nodiscard]] static MetricRegistry& global() {
    static MetricRegistry registry;
    return registry;
  }

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name) {
    return slot(counters_, name);
  }
  [[nodiscard]] Gauge& gauge(const std::string& name) {
    return slot(gauges_, name);
  }
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    return slot(histograms_, name);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot snap;
    std::lock_guard lock{mutex_};
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->get());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->get());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      snap.histograms.emplace_back(name, h->snapshot());
    }
    return snap;
  }

  /// Zeroes every metric, KEEPING registrations (cached references stay
  /// valid). Used between benchmark passes and in tests.
  void reset() {
    std::lock_guard lock{mutex_};
    for (const auto& [name, c] : counters_) c->reset();
    for (const auto& [name, g] : gauges_) g->reset();
    for (const auto& [name, h] : histograms_) h->reset();
  }

 private:
  template <typename T>
  [[nodiscard]] T& slot(std::map<std::string, std::unique_ptr<T>>& metrics,
                        const std::string& name) {
    std::lock_guard lock{mutex_};
    auto& entry = metrics[name];
    if (entry == nullptr) entry = std::make_unique<T>();
    return *entry;
  }

  // std::map keeps snapshot output name-sorted; unique_ptr keeps metric
  // addresses stable across rebalancing.
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The per-stage latency histogram (µs) for a trace stage name — what
/// TraceSpan feeds when tracing is enabled, and what the bench breakdown
/// reads back. One registry entry per stage, named after the stage itself.
[[nodiscard]] inline Histogram& stage_histogram(const char* stage) {
  return MetricRegistry::global().histogram(stage);
}

}  // namespace hhc::obs

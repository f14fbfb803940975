// The metric registry and its lock-free primitives. The histogram tests pin
// the exact power-of-two bucket geometry (bucket b = [2^(b-1), 2^b)) and the
// percentile semantics that PR'd alongside the telemetry fixes: p = 0 skips
// empty leading buckets, out-of-range p and empty histograms throw — the
// pre-obs latency histogram silently reported 1µs for both. The concurrent
// tests run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace hhc::obs {
namespace {

TEST(ObsCounter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.get(), 42u);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(ObsGauge, SetAddNegative) {
  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.get(), -7);
  g.add(10);
  EXPECT_EQ(g.get(), 3);
  g.reset();
  EXPECT_EQ(g.get(), 0);
}

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  // Bucket 0: everything below 1. Bucket b >= 1: [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.999), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_of(1.999), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_of(3.999), 2u);
  EXPECT_EQ(Histogram::bucket_of(4.0), 3u);
  for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    const double edge = std::ldexp(1.0, static_cast<int>(b - 1));
    EXPECT_EQ(Histogram::bucket_of(edge), b) << "lower edge of bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(std::nextafter(edge * 2.0, 0.0)), b)
        << "upper edge of bucket " << b;
  }
}

TEST(ObsHistogram, NanAndNegativeClampToBucketZero) {
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-std::numeric_limits<double>::infinity()), 0u);

  Histogram h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(-123.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max_value, 0.0);  // NaN/negatives never become the max
}

TEST(ObsHistogram, TopBucketSaturates) {
  const std::size_t top = Histogram::kBuckets - 1;
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 62)), top);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 200)), top);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()), top);

  Histogram h;
  h.record(std::ldexp(1.0, 100));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.buckets[top], 1u);
  EXPECT_EQ(snap.max_value, std::ldexp(1.0, 100));
}

// ---------------------------------------------------------------------------
// Percentile semantics
// ---------------------------------------------------------------------------

TEST(ObsHistogram, PercentileSkipsEmptyLeadingBuckets) {
  // The historical bug: with nothing in bucket 0, p = 0 computed target = 0,
  // which the empty bucket 0 "satisfied", reporting a phantom 1µs.
  Histogram h;
  h.record(100.0);  // bucket 7: [64, 128)
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.percentile(0.0), 128.0);
  EXPECT_EQ(snap.percentile(0.5), 128.0);
  EXPECT_EQ(snap.percentile(1.0), 128.0);
}

TEST(ObsHistogram, PercentileAtMedianAndTail) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(1.5);    // bucket 1, edge 2
  for (int i = 0; i < 49; ++i) h.record(10.0);   // bucket 4, edge 16
  h.record(1000.0);                              // bucket 10, edge 1024
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.percentile(0.0), 2.0);    // first non-empty bucket's edge
  EXPECT_EQ(snap.percentile(0.5), 2.0);    // sample 50 still in bucket 1
  EXPECT_EQ(snap.percentile(0.51), 16.0);  // sample 51 is in bucket 4
  EXPECT_EQ(snap.percentile(0.99), 16.0);
  EXPECT_EQ(snap.percentile(1.0), 1024.0);
}

TEST(ObsHistogram, PercentileErrorSemantics) {
  Histogram empty;
  EXPECT_THROW((void)empty.snapshot().percentile(0.5), std::invalid_argument);

  Histogram h;
  h.record(1.0);
  const auto snap = h.snapshot();
  EXPECT_THROW((void)snap.percentile(-0.01), std::invalid_argument);
  EXPECT_THROW((void)snap.percentile(1.01), std::invalid_argument);
  EXPECT_THROW(
      (void)snap.percentile(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(ObsHistogram, ResetZeroesEverything) {
  Histogram h;
  h.record(5.0);
  h.reset();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.max_value, 0.0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ReturnsStableReferencesPerName) {
  MetricRegistry registry;
  Counter& a = registry.counter("alpha");
  Counter& b = registry.counter("alpha");
  EXPECT_EQ(&a, &b);
  // Kinds have separate namespaces: a histogram may share a counter's name.
  (void)registry.histogram("alpha");
  a.inc(3);
  EXPECT_EQ(registry.counter("alpha").get(), 3u);
}

TEST(ObsRegistry, SnapshotIsNameSortedAndComplete) {
  MetricRegistry registry;
  registry.counter("zeta").inc(1);
  registry.counter("beta").inc(2);
  registry.gauge("depth").set(-4);
  registry.histogram("lat").record(3.0);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "beta");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(ObsRegistry, ResetKeepsRegistrationsAndReferences) {
  MetricRegistry registry;
  Counter& c = registry.counter("events");
  c.inc(9);
  registry.reset();
  EXPECT_EQ(c.get(), 0u);  // same object, zeroed
  c.inc();
  EXPECT_EQ(registry.counter("events").get(), 1u);
  EXPECT_EQ(registry.snapshot().counters.size(), 1u);
}

TEST(ObsRegistry, GlobalIsASingleInstance) {
  EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
  EXPECT_EQ(&stage_histogram("test.stage"), &stage_histogram("test.stage"));
}

TEST(ObsRegistry, RenderersIncludeEveryMetric) {
  MetricRegistry registry;
  registry.counter("hits").inc(7);
  registry.gauge("level").set(2);
  registry.histogram("lat").record(100.0);
  (void)registry.histogram("empty");  // registered, never recorded

  const MetricsSnapshot snap = registry.snapshot();
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter,hits,7"), std::string::npos);
  EXPECT_NE(csv.find("gauge,level,2"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat"), std::string::npos);
  EXPECT_NE(csv.find("histogram,empty"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"level\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  // An empty histogram must render without percentile keys (they'd throw).
  EXPECT_NE(json.find("\"empty\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan job builds this binary)
// ---------------------------------------------------------------------------

TEST(ObsStress, ConcurrentRecordingLosesNothing) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  MetricRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&registry, id] {
      // Half the threads race the registration lookup itself.
      Counter& c = registry.counter(id % 2 == 0 ? "even" : "odd");
      Histogram& h = registry.histogram("latency");
      for (std::size_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<double>(i % 512));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(registry.counter("even").get(), kThreads / 2 * kPerThread);
  EXPECT_EQ(registry.counter("odd").get(), kThreads / 2 * kPerThread);
  EXPECT_EQ(registry.histogram("latency").snapshot().count,
            kThreads * kPerThread);
}

TEST(ObsStress, SnapshotWhileRecording) {
  MetricRegistry registry;
  std::atomic<bool> stop{false};
  std::thread writer{[&] {
    Histogram& h = registry.histogram("h");
    Counter& c = registry.counter("c");
    while (!stop.load(std::memory_order_relaxed)) {
      h.record(3.0);
      c.inc();
    }
  }};
  for (int i = 0; i < 200; ++i) {
    const auto snap = registry.snapshot();
    // Counts only ever grow; the snapshot must be internally consistent
    // enough that the histogram count equals the sum of its buckets.
    if (!snap.histograms.empty()) {
      std::uint64_t sum = 0;
      for (const auto b : snap.histograms[0].second.buckets) sum += b;
      EXPECT_EQ(sum, snap.histograms[0].second.count);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace hhc::obs

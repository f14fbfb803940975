// Experiment F11 — aggregate throughput of the concurrent path-query engine.
//
// A Zipf-skewed stream of pair queries (the standard model for repeated
// routing lookups) is answered by one shared PathService while the number of
// worker threads hammering it doubles. The sharded translation-canonical
// cache is the point: the hot head of the distribution collapses onto a few
// canonical entries, so concurrent readers should scale until lock
// contention on the shards, not construction cost, is the ceiling. The
// acceptance target is >= 4x aggregate queries/s at 8 threads over 1 on the
// hot (skew 0.99) workload — measurable only on a machine with >= 8 cores.
//
// The workers drive answer_view(), the zero-copy pristine fast path: a
// cache hit hands back a borrowed ContainerHandle (one shared_ptr copy, no
// node copying, no allocation), which is what a routing data plane would
// consume. materialize() on the view reproduces answer()'s paths bit for
// bit, so the throughput here is the handle path, not a different answer.
//
// `--smoke` shrinks the pool/total for a seconds-long CI run. Both modes
// write machine-readable rows, stamped with the git sha, core count, CPU,
// compiler and build type, to BENCH_query.json; REPRODUCING.md describes
// the baseline-comparison workflow.
#include <atomic>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_model.hpp"
#include "core/fault_routing.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "provenance.hpp"
#include "query/path_service.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hhc;

// Fixed TOTAL work split across the callers: every row answers the same
// number of queries and pays the same cold-cache miss cost, so the speedup
// column isolates parallelism instead of miss-cost amortization.
std::size_t g_pair_pool = 4096;
std::size_t g_queries_total = 160000;

struct RunResult {
  double seconds = 0.0;
  query::ServiceStats stats;
};

struct SweepRow {
  double skew = 0.0;
  std::size_t threads = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double hit_rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// `threads` independent callers, together issuing g_queries_total Zipfian
// draws from the shared pair pool against the one shared service.
RunResult hammer(query::PathService& service,
                 const std::vector<core::PairSample>& pairs, double skew,
                 std::size_t threads) {
  service.reset_stats();
  service.cache().clear();
  const util::ZipfianSampler zipf{pairs.size(), skew};
  const std::size_t per_thread = g_queries_total / threads;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t id = 0; id < threads; ++id) {
    workers.emplace_back([&, id] {
      util::Xoshiro256 rng{0xF11 + id};
      while (!go.load(std::memory_order_acquire)) {}
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::size_t k = zipf(rng);
        const auto view = service.answer_view(
            query::PairQuery{.s = pairs[k].s, .t = pairs[k].t});
        // Touch the handle so the relabeling XOR isn't optimized away.
        volatile core::Node sink = view.container.source();
        (void)sink;
      }
    });
  }
  util::Stopwatch sw;
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  RunResult result;
  result.seconds = sw.seconds();
  result.stats = service.stats();
  return result;
}

void sweep(const core::HhcTopology& net,
           const std::vector<core::PairSample>& pairs, double skew,
           const char* label, std::size_t max_threads,
           std::vector<SweepRow>& rows) {
  // Capacity (16 shards x 64 = 1024 entries) is deliberately smaller than
  // the 4096-pair pool: a Zipf-hot head stays resident while uniform
  // traffic thrashes, so the hit-rate column actually separates the
  // workloads instead of converging to ~100% once everything is cached.
  query::PathService service{net,
                             {.cache_shards = 16, .max_entries_per_shard = 64}};
  // Discarded warm-up: lets the shard hash tables reach their steady-state
  // bucket counts so the first measured row sees the same eviction dynamics
  // as the rest (clear() keeps buckets, only drops entries).
  (void)hammer(service, pairs, skew, 1);
  util::Table table{{"threads", "seconds", "queries/s", "speedup", "hit %",
                     "p50 us", "p99 us"}};
  double base_qps = 0.0;
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    const auto run = hammer(service, pairs, skew, threads);
    const double qps = static_cast<double>(run.stats.queries) / run.seconds;
    if (threads == 1) base_qps = qps;
    const SweepRow row{.skew = skew,
                       .threads = threads,
                       .seconds = run.seconds,
                       .qps = qps,
                       .hit_rate = run.stats.hit_rate(),
                       .p50_us = run.stats.latency.percentile(0.50),
                       .p99_us = run.stats.latency.percentile(0.99)};
    rows.push_back(row);
    table.row()
        .add(static_cast<int>(threads))
        .add(row.seconds, 3)
        .add(row.qps, 0)
        .add(row.qps / base_qps, 2)
        .add(100.0 * row.hit_rate, 1)
        .add(row.p50_us, 1)
        .add(row.p99_us, 1);
  }
  table.print(std::cout, label);
  std::cout << '\n';
}

struct StageRow {
  std::string stage;
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct TracingOverhead {
  double disabled_qps = 0.0;
  double enabled_qps = 0.0;
};

// Per-stage latency breakdown: one traced single-thread pass of the hot
// workload (cache lookup / construct / answer_view stages) plus a
// fault-aware pass (container scan / BFS fallback), read back from the
// registry's stage histograms. Also measures the cost of leaving the
// instrumentation resident: the same hammer pass with tracing disabled vs
// enabled (disabled is the production configuration the < 2% overhead
// acceptance is about).
void stage_breakdown(const core::HhcTopology& net,
                     const std::vector<core::PairSample>& pairs, bool smoke,
                     std::vector<StageRow>& stages, TracingOverhead& tracing) {
  query::PathService service{net,
                             {.cache_shards = 16, .max_entries_per_shard = 64}};
  (void)hammer(service, pairs, 0.99, 1);  // warm-up, discarded

  const auto off = hammer(service, pairs, 0.99, 1);
  tracing.disabled_qps =
      static_cast<double>(off.stats.queries) / off.seconds;

  obs::MetricRegistry::global().reset();
  obs::Tracer::enable(/*events_per_thread=*/1 << 10);
  const auto on = hammer(service, pairs, 0.99, 1);
  tracing.enabled_qps = static_cast<double>(on.stats.queries) / on.seconds;

  // Fault-aware pass while still tracing: lights up the router stages.
  const std::size_t fault_queries = smoke ? 500 : 4000;
  util::Xoshiro256 rng{0xF11D};
  for (std::size_t i = 0; i < fault_queries; ++i) {
    const auto& p = pairs[i % pairs.size()];
    const core::FaultModel faults{
        core::FaultSet::random(net, /*count=*/3, p.s, p.t, rng)};
    (void)service.answer(
        query::PairQuery{.s = p.s, .t = p.t, .faults = &faults});
  }
  obs::Tracer::disable();

  util::Table table{{"stage", "count", "p50 us", "p99 us", "max us"}};
  for (const auto& [name, hist] :
       obs::MetricRegistry::global().snapshot().histograms) {
    if (hist.count == 0) continue;
    const StageRow row{.stage = name,
                       .count = hist.count,
                       .p50_us = hist.percentile(0.50),
                       .p99_us = hist.percentile(0.99),
                       .max_us = hist.max_value};
    stages.push_back(row);
    table.row()
        .add(row.stage)
        .add(row.count)
        .add(row.p50_us, 1)
        .add(row.p99_us, 1)
        .add(row.max_us, 1);
  }
  table.print(std::cout, "per-stage latency breakdown (traced passes)");
  std::cout << "tracing overhead: " << static_cast<std::uint64_t>(
                   tracing.disabled_qps)
            << " qps disabled vs "
            << static_cast<std::uint64_t>(tracing.enabled_qps)
            << " qps enabled (disabled is the production default)\n\n";
}

void emit_json(const std::vector<SweepRow>& rows,
               const std::vector<StageRow>& stages,
               const TracingOverhead& tracing, bool smoke) {
  core::JsonWriter json;
  json.begin_object()
      .key("bench").value("query_throughput")
      .key("mode").value(smoke ? "smoke" : "full")
      .key("pair_pool").value(static_cast<std::uint64_t>(g_pair_pool))
      .key("queries_total").value(static_cast<std::uint64_t>(g_queries_total));
  bench::write_provenance(json);
  json
      // Lets consumers (the CI scaling assert) judge whether the thread
      // sweep could physically scale on the machine that produced it.
      .key("hardware_threads")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .key("results").begin_array();
  for (const SweepRow& row : rows) {
    json.begin_object()
        .key("skew").value(row.skew)
        .key("threads").value(static_cast<std::uint64_t>(row.threads))
        .key("seconds").value(row.seconds)
        .key("queries_per_s").value(row.qps)
        .key("hit_rate").value(row.hit_rate)
        .key("p50_us").value(row.p50_us)
        .key("p99_us").value(row.p99_us)
        .end_object();
  }
  json.end_array();
  json.key("stages").begin_array();
  for (const StageRow& row : stages) {
    json.begin_object()
        .key("stage").value(row.stage)
        .key("count").value(row.count)
        .key("p50_us").value(row.p50_us)
        .key("p99_us").value(row.p99_us)
        .key("max_us").value(row.max_us)
        .end_object();
  }
  json.end_array();
  json.key("tracing").begin_object()
      .key("disabled_qps").value(tracing.disabled_qps)
      .key("enabled_qps").value(tracing.enabled_qps)
      .end_object();
  json.end_object();
  std::ofstream out{"BENCH_query.json"};
  out << json.str() << '\n';
  std::cout << "wrote BENCH_query.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::size_t max_threads = std::max(8u, std::max(1u, std::thread::hardware_concurrency()));
  if (smoke) {
    g_pair_pool = 1024;
    g_queries_total = 20000;
    // The full 1..8 sweep even in smoke mode: the CI scaling assert needs
    // the 8-thread hot-skew row, and 20k queries keep each row sub-second.
    max_threads = 8;
  }

  const core::HhcTopology net{4};
  const auto pairs = core::sample_pairs(net, g_pair_pool, /*seed=*/0xF11);
  std::cout << "F11: PathService aggregate throughput (answer_view), m=4, "
            << g_pair_pool << "-pair pool, " << g_queries_total
            << " total queries split across callers, "
            << std::thread::hardware_concurrency() << " hardware threads\n\n";

  std::vector<SweepRow> rows;
  sweep(net, pairs, 0.99, "hot workload (Zipf skew 0.99)", max_threads, rows);
  sweep(net, pairs, 0.0, "cold workload (uniform, skew 0)", max_threads, rows);

  std::vector<StageRow> stages;
  TracingOverhead tracing;
  stage_breakdown(net, pairs, smoke, stages, tracing);

  std::cout
      << "Expected shape: the Zipf head stays resident in the capacity-bound\n"
         "cache, so the hot workload runs at a far higher hit rate and\n"
         "throughput than the uniform one (which thrashes the 1024-entry\n"
         "capacity and keeps paying construction, outside any lock).\n"
         "Aggregate queries/s scales with threads (target: >= 4x at 8\n"
         "threads on an >= 8-core machine; a single-core box reports\n"
         "speedup ~1x by construction). Handle answers materialize to the\n"
         "same bits as serial node_disjoint_paths at every thread count.\n";
  emit_json(rows, stages, tracing, smoke);
  return 0;
}

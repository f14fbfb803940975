// Experiment T3 — construction cost: constructive algorithm vs max flow.
//
// The paper's algorithmic claim is that the container is built in time
// polynomial in the *path length* (i.e. independent of N = 2^(2^m + m)),
// while the generic max-flow alternative must touch the whole network.
// google-benchmark measures both on the same random pair streams; the
// closing tables print the per-pair speedup, including the arena-backed
// zero-allocation hot path (node_disjoint_paths with a ConstructionScratch)
// against the legacy copying entry point. The fill table times the same
// distinct keys twice: constructed directly, and looked up through a fresh
// default (unbounded) ContainerCache, whose per-miss publication must stay
// a small constant on top of the construction however large the cache
// grows. The fan table times the construction's closed-form endpoint fan
// against a warm graph::Dinic that rebuilds the split network per fan.
//
// `--smoke` runs a seconds-long subset (no google-benchmark registry, no
// m=4 max flow) — enough for CI to catch a structural perf regression.
// Both modes write machine-readable results, stamped with the git sha,
// core count, CPU, compiler and build type, to BENCH_construction.json;
// REPRODUCING.md describes the baseline-comparison workflow.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "baseline/maxflow_paths.hpp"
#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "cube/cube_fan.hpp"
#include "cube/hypercube.hpp"
#include "graph/dinic.hpp"
#include "provenance.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hhc;

void BM_ConstructiveDisjointPaths(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  const auto pairs = core::sample_pairs(net, 512, 77);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 511];
    benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, t));
  }
  state.SetLabel("N=" + std::to_string(net.node_count()));
}
BENCHMARK(BM_ConstructiveDisjointPaths)->DenseRange(1, 5)->Unit(benchmark::kMicrosecond);

void BM_ArenaDisjointPaths(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  const auto pairs = core::sample_pairs(net, 512, 77);
  auto& scratch = core::tls_construction_scratch();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 511];
    const auto set = core::node_disjoint_paths(net, s, t, {}, scratch);
    benchmark::DoNotOptimize(set.paths.data());
  }
  state.SetLabel("N=" + std::to_string(net.node_count()));
}
BENCHMARK(BM_ArenaDisjointPaths)->DenseRange(1, 5)->Unit(benchmark::kMicrosecond);

void BM_MaxflowDisjointPaths(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const core::HhcTopology net{m};
  const baseline::MaxflowBaseline exact{net};
  const auto pairs = core::sample_pairs(net, 64, 77);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ & 63];
    benchmark::DoNotOptimize(exact.disjoint_paths(s, t));
  }
  state.SetLabel("N=" + std::to_string(net.node_count()));
}
BENCHMARK(BM_MaxflowDisjointPaths)->DenseRange(1, 3)->Unit(benchmark::kMicrosecond);
// m = 4 max flow runs for seconds per query; one sample is enough.
BENCHMARK(BM_MaxflowDisjointPaths)->Arg(4)->Iterations(3)->Unit(benchmark::kMillisecond);

struct ConstructionRow {
  unsigned m = 0;
  double legacy_us = 0.0;  // copying entry point, per pair
  double arena_us = 0.0;   // scratch-backed entry point, per pair
};

// Per-pair cost of both construction entry points on the same pair stream.
ConstructionRow measure_construction(unsigned m, std::size_t pair_count,
                                     std::size_t reps) {
  const core::HhcTopology net{m};
  const auto pairs = core::sample_pairs(net, pair_count, 77);
  auto& scratch = core::tls_construction_scratch();

  // Warm up: fills arena chunks and the route buffers so the timed loops
  // see the steady state.
  for (const auto& [s, t] : pairs) {
    benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, t));
    const auto set = core::node_disjoint_paths(net, s, t, {}, scratch);
    benchmark::DoNotOptimize(set.paths.data());
  }

  // Best-of-reps: each rep times one full pass over the pair stream and the
  // minimum wins, so scheduler noise on a busy box inflates neither column.
  ConstructionRow row;
  row.m = m;
  const double per_pass = static_cast<double>(pair_count);
  row.legacy_us = std::numeric_limits<double>::infinity();
  row.arena_us = std::numeric_limits<double>::infinity();
  util::Stopwatch sw;
  for (std::size_t r = 0; r < reps; ++r) {
    sw.reset();
    for (const auto& [s, t] : pairs) {
      benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, t));
    }
    row.legacy_us = std::min(row.legacy_us, sw.micros() / per_pass);
  }
  for (std::size_t r = 0; r < reps; ++r) {
    sw.reset();
    for (const auto& [s, t] : pairs) {
      const auto set = core::node_disjoint_paths(net, s, t, {}, scratch);
      benchmark::DoNotOptimize(set.paths.data());
    }
    row.arena_us = std::min(row.arena_us, sw.micros() / per_pass);
  }
  return row;
}

struct FillRow {
  unsigned m = 0;
  std::size_t keys = 0;
  double construct_us = 0.0;  // node_disjoint_paths (arena), per key
  double fill_us = 0.0;       // lookup() into a fresh default cache, per key
};

// Up to `requested` pairs with distinct canonical cache keys (source in
// cluster 0); every key of the space when it is smaller.
std::vector<core::PairSample> distinct_key_pairs(const core::HhcTopology& net,
                                                 std::size_t requested) {
  const std::uint64_t positions = net.cluster_size();
  const std::uint64_t space =
      net.cluster_count() * positions * positions - positions;  // minus s == t
  std::vector<core::PairSample> pairs;
  if (space <= requested) {
    for (std::uint64_t x = 0; x < net.cluster_count(); ++x) {
      for (std::uint64_t ys = 0; ys < positions; ++ys) {
        for (std::uint64_t yt = 0; yt < positions; ++yt) {
          if (x == 0 && ys == yt) continue;
          pairs.push_back({net.encode(0, ys), net.encode(x, yt)});
        }
      }
    }
    return pairs;
  }
  util::Xoshiro256 rng{0xF111 + net.m()};
  std::unordered_set<core::Node> seen;
  pairs.reserve(requested);
  while (pairs.size() < requested) {
    const core::Node s = net.encode(0, rng.below(positions));
    const core::Node t =
        net.encode(rng.below(net.cluster_count()), rng.below(positions));
    if (s == t || !seen.insert(s * net.node_count() + t).second) continue;
    pairs.push_back({s, t});
  }
  return pairs;
}

// Per-key cost of filling an unbounded cache against constructing the same
// keys directly; best of `reps` alternating passes for each column.
FillRow measure_fill(unsigned m, std::size_t requested, std::size_t reps) {
  const core::HhcTopology net{m};
  const auto pairs = distinct_key_pairs(net, requested);
  auto& scratch = core::tls_construction_scratch();
  for (std::size_t i = 0; i < std::min<std::size_t>(pairs.size(), 256); ++i) {
    const auto set =
        core::node_disjoint_paths(net, pairs[i].s, pairs[i].t, {}, scratch);
    benchmark::DoNotOptimize(set.paths.data());
  }
  FillRow row;
  row.m = m;
  row.keys = pairs.size();
  const double n = static_cast<double>(pairs.size());
  row.construct_us = std::numeric_limits<double>::infinity();
  row.fill_us = std::numeric_limits<double>::infinity();
  util::Stopwatch sw;
  for (std::size_t r = 0; r < reps; ++r) {
    sw.reset();
    for (const auto& [s, t] : pairs) {
      const auto set = core::node_disjoint_paths(net, s, t, {}, scratch);
      benchmark::DoNotOptimize(set.paths.data());
    }
    row.construct_us = std::min(row.construct_us, sw.micros() / n);

    core::ContainerCache cache{net};
    sw.reset();
    for (const auto& [s, t] : pairs) {
      benchmark::DoNotOptimize(cache.lookup(s, t).path_count());
    }
    row.fill_us = std::min(row.fill_us, sw.micros() / n);
  }
  return row;
}

struct FanRow {
  unsigned m = 0;
  std::size_t fans = 0;
  double closed_form_us = 0.0;  // cube::disjoint_fan
  double dinic_us = 0.0;        // warm graph::Dinic: rebuild + max_flow only
};

struct FanInput {
  cube::CubeNode s = 0;
  std::vector<cube::CubeNode> targets;  // m distinct targets, != s
};

// Seeded endpoint-fan inputs on Q_m: a source and m targets in random
// order, the shape of the construction's exit and entry fans.
std::vector<FanInput> fan_inputs(unsigned m, std::size_t count) {
  const std::uint64_t n = std::uint64_t{1} << m;
  util::Xoshiro256 rng{0xFA4 + m};
  std::vector<FanInput> inputs(count);
  for (FanInput& input : inputs) {
    input.s = rng.below(n);
    while (input.targets.size() < m) {
      const cube::CubeNode v = rng.below(n);
      if (v != input.s && std::find(input.targets.begin(), input.targets.end(),
                                    v) == input.targets.end()) {
        input.targets.push_back(v);
      }
    }
  }
  return inputs;
}

// Per-fan cost of the construction's closed-form fan against a warm Dinic
// that rebuilds the split network per fan and runs only max_flow (the
// solver the construction used before, minus its flow decomposition). Best
// of `reps` passes over the same inputs for each column.
FanRow measure_fan(unsigned m, std::size_t count, std::size_t reps) {
  const cube::Hypercube q{m};
  const graph::AdjacencyList g = q.explicit_graph();
  const auto inputs = fan_inputs(m, count);
  const auto n = static_cast<std::uint32_t>(g.vertex_count());
  graph::Dinic dinic{0};
  const auto rebuild_and_solve = [&](const FanInput& input) {
    dinic.reset(2 * std::size_t{n} + 1);
    for (graph::Vertex v = 0; v < n; ++v) {
      if (v != input.s) dinic.add_edge(2 * v, 2 * v + 1, 1);
      for (const graph::Vertex u : g.neighbors(v)) {
        dinic.add_edge(2 * v + 1, 2 * u, 1);
      }
    }
    for (const cube::CubeNode t : input.targets) {
      dinic.add_edge(2 * static_cast<std::uint32_t>(t) + 1, 2 * n, 1);
    }
    return dinic.max_flow(2 * static_cast<std::uint32_t>(input.s) + 1, 2 * n);
  };
  const auto closed_form = [&](const FanInput& input) {
    return cube::disjoint_fan(q, input.s, input.targets)[0].size();
  };
  for (const FanInput& input : inputs) {  // warm both
    benchmark::DoNotOptimize(closed_form(input));
    benchmark::DoNotOptimize(rebuild_and_solve(input));
  }
  FanRow row;
  row.m = m;
  row.fans = inputs.size();
  const double per_pass = static_cast<double>(inputs.size());
  row.closed_form_us = std::numeric_limits<double>::infinity();
  row.dinic_us = std::numeric_limits<double>::infinity();
  util::Stopwatch sw;
  for (std::size_t r = 0; r < reps; ++r) {
    sw.reset();
    for (const FanInput& input : inputs) {
      benchmark::DoNotOptimize(closed_form(input));
    }
    row.closed_form_us = std::min(row.closed_form_us, sw.micros() / per_pass);
    sw.reset();
    for (const FanInput& input : inputs) {
      benchmark::DoNotOptimize(rebuild_and_solve(input));
    }
    row.dinic_us = std::min(row.dinic_us, sw.micros() / per_pass);
  }
  return row;
}

void emit_json(const std::vector<ConstructionRow>& rows,
               const std::vector<FillRow>& fills,
               const std::vector<FanRow>& fans, bool smoke) {
  core::JsonWriter json;
  json.begin_object()
      .key("bench").value("construction")
      .key("mode").value(smoke ? "smoke" : "full");
  bench::write_provenance(json);
  json.key("results").begin_array();
  for (const ConstructionRow& row : rows) {
    json.begin_object()
        .key("m").value(static_cast<std::uint64_t>(row.m))
        .key("legacy_us_per_pair").value(row.legacy_us)
        .key("arena_us_per_pair").value(row.arena_us)
        .key("arena_pairs_per_s").value(1e6 / row.arena_us)
        .key("arena_speedup").value(row.legacy_us / row.arena_us)
        .end_object();
  }
  json.end_array().key("fill").begin_array();
  for (const FillRow& row : fills) {
    json.begin_object()
        .key("m").value(static_cast<std::uint64_t>(row.m))
        .key("keys").value(std::uint64_t{row.keys})
        .key("construct_us_per_pair").value(row.construct_us)
        .key("fill_us_per_pair").value(row.fill_us)
        .key("fill_over_construct").value(row.fill_us / row.construct_us)
        .end_object();
  }
  json.end_array().key("fan").begin_array();
  for (const FanRow& row : fans) {
    json.begin_object()
        .key("m").value(static_cast<std::uint64_t>(row.m))
        .key("fans").value(std::uint64_t{row.fans})
        .key("closed_form_us_per_fan").value(row.closed_form_us)
        .key("dinic_rebuild_us_per_fan").value(row.dinic_us)
        .key("dinic_over_closed_form").value(row.dinic_us / row.closed_form_us)
        .end_object();
  }
  json.end_array().end_object();
  std::ofstream out{"BENCH_construction.json"};
  out << json.str() << '\n';
  std::cout << "wrote BENCH_construction.json\n";
}

void print_arena_table(bool smoke) {
  const unsigned max_m = smoke ? 4 : 5;
  std::vector<ConstructionRow> rows;
  util::Table table{{"m", "legacy us/pair", "arena us/pair", "arena speedup",
                     "arena pairs/s"}};
  for (unsigned m = 1; m <= max_m; ++m) {
    const std::size_t pair_count = smoke ? 128 : 512;
    const std::size_t reps = smoke ? 20 : (m >= 4 ? 8 : 30);
    const ConstructionRow row = measure_construction(m, pair_count, reps);
    rows.push_back(row);
    table.row()
        .add(static_cast<int>(m))
        .add(row.legacy_us, 2)
        .add(row.arena_us, 2)
        .add(row.legacy_us / row.arena_us, 2)
        .add(1e6 / row.arena_us, 0);
  }
  table.print(std::cout,
              "\nT3a: per-pair construction cost, copying vs arena-backed");
  std::cout << "Expected shape: the arena path wins at every m (no heap "
               "traffic in the steady\nstate); the gap widens with m as the "
               "containers grow.\n";

  std::vector<FillRow> fills;
  util::Table fill_table{{"m", "keys", "construct us/pair", "fill us/pair",
                          "fill/construct"}};
  for (unsigned m = 1; m <= max_m; ++m) {
    const std::size_t keys = !smoke && m == 4 ? 200000 : 24576;
    const FillRow row = measure_fill(m, keys, !smoke && m >= 4 ? 2 : 5);
    fills.push_back(row);
    fill_table.row()
        .add(static_cast<int>(m))
        .add(static_cast<int>(row.keys))
        .add(row.construct_us, 2)
        .add(row.fill_us, 2)
        .add(row.fill_us / row.construct_us, 2);
  }
  fill_table.print(std::cout,
                   "\nT3b: filling a default unbounded cache vs constructing "
                   "the same distinct keys");
  std::cout << "Expected shape: fill/construct stays a small constant (the "
               "flatten + insert\nper miss) at every m and key count; "
               "CI asserts <= 1.5 at m = 4.\n";

  std::vector<FanRow> fans;
  util::Table fan_table{{"m", "fans", "closed form us/fan",
                         "dinic rebuild us/fan", "dinic/closed form"}};
  for (unsigned m = 1; m <= 5; ++m) {
    const FanRow row = measure_fan(m, 2048, smoke ? 5 : 20);
    fans.push_back(row);
    fan_table.row()
        .add(static_cast<int>(m))
        .add(static_cast<int>(row.fans))
        .add(row.closed_form_us, 3)
        .add(row.dinic_us, 3)
        .add(row.dinic_us / row.closed_form_us, 2);
  }
  fan_table.print(std::cout,
                  "\nT3c: one endpoint fan (source, m targets) on Q_m, "
                  "closed form vs warm\nDinic rebuilding the split network "
                  "(max_flow only, no decomposition)");
  std::cout << "Expected shape: the closed form, which also writes the "
               "walks, stays several\ntimes faster than the flow alone at "
               "every m; CI asserts >= 1.5x at m = 4.\n";
  emit_json(rows, fills, fans, smoke);
}

void print_speedup_table() {
  util::Table table{
      {"m", "constructive us/pair", "maxflow us/pair", "speedup"}};
  for (unsigned m = 1; m <= 4; ++m) {
    const core::HhcTopology net{m};
    const auto pairs = core::sample_pairs(net, 64, 99);

    // Warm up allocators/caches so the first timed call is representative.
    benchmark::DoNotOptimize(
        core::node_disjoint_paths(net, pairs[0].s, pairs[0].t));

    util::Stopwatch sw;
    for (const auto& [s, t] : pairs) {
      benchmark::DoNotOptimize(core::node_disjoint_paths(net, s, t));
    }
    const double constructive_us =
        sw.micros() / static_cast<double>(pairs.size());

    const baseline::MaxflowBaseline exact{net};
    const std::size_t flow_queries = m >= 4 ? 3 : pairs.size();
    sw.reset();
    for (std::size_t i = 0; i < flow_queries; ++i) {
      benchmark::DoNotOptimize(exact.disjoint_paths(pairs[i].s, pairs[i].t));
    }
    const double maxflow_us = sw.micros() / static_cast<double>(flow_queries);

    table.row()
        .add(static_cast<int>(m))
        .add(constructive_us, 2)
        .add(maxflow_us, 2)
        .add(maxflow_us / constructive_us, 1);
  }
  table.print(std::cout, "\nT3: per-pair construction cost (summary)");
  std::cout << "Expected shape: the constructive algorithm's cost is flat in "
               "N; max flow grows\nwith the network and becomes unusable "
               "beyond m = 4 (the constructive algorithm\nstill runs at m = 5 "
               "on 2^37 nodes).\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  if (smoke) {
    // CI-sized run: summary loops only, no google-benchmark registry and no
    // m=4 max flow (seconds per query).
    print_arena_table(/*smoke=*/true);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_arena_table(/*smoke=*/false);
  print_speedup_table();
  return 0;
}

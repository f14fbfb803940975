// Allocation-count regression tests for the zero-allocation hot paths.
//
// This binary replaces the global allocation functions with counting
// wrappers (malloc-backed, so behavior is unchanged; counting_allocator.cpp)
// and asserts a ZERO delta across the steady-state regions the arena rework
// promises are allocation-free:
//
//   * node_disjoint_paths(net, s, t, options, scratch) once the scratch's
//     arena/workspaces/buffers have grown to the working set, for pairs in
//     different clusters and in the same cluster;
//   * ContainerCache::lookup on a hit (one shared_ptr copy, no allocation);
//   * PathService::answer_view on a hit (handle + telemetry only).
//
// The measured regions contain no gtest assertions (the assertion machinery
// allocates); deltas are captured first and checked after. If one of these
// tests starts failing, some step of the hot path regressed to heap traffic
// — find it with e.g. a breakpoint on the counting operator new.
#include <gtest/gtest.h>

#include <vector>

#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/scratch.hpp"
#include "query/path_service.hpp"

// Heap allocations so far in this process, counted by the replacement
// global allocation functions in counting_allocator.cpp.
std::size_t counted_allocations();

namespace hhc::core {
namespace {

std::size_t allocation_count() { return counted_allocations(); }

TEST(AllocationFree, ScratchConstructionSteadyState) {
  const HhcTopology net{3};
  const auto pairs = sample_pairs(net, 200, 0xA110C);
  auto& scratch = tls_construction_scratch();

  // Warm-up: grows the arena chunks, fan workspaces, flow network, and
  // route buffers to this working set's high-water mark.
  for (int round = 0; round < 2; ++round) {
    for (const auto& [s, t] : pairs) {
      const auto set = node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(set.paths.size(), net.m() + 1);
    }
  }

  const std::size_t before = allocation_count();
  std::size_t paths_built = 0;
  for (const auto& [s, t] : pairs) {
    const auto set = node_disjoint_paths(net, s, t, {}, scratch);
    paths_built += set.paths.size();
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "steady-state construction performed " << delta
                       << " heap allocations across " << pairs.size()
                       << " queries";
  EXPECT_EQ(paths_built, pairs.size() * (net.m() + 1));
}

TEST(AllocationFree, ScratchConstructionSteadyStateAllOptionSets) {
  const HhcTopology net{3};
  const auto pairs = sample_pairs(net, 100, 0xA110D);
  auto& scratch = tls_construction_scratch();
  const ConstructionOptions option_sets[] = {
      {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical},
      {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical},
      {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced},
  };

  for (int round = 0; round < 2; ++round) {
    for (const auto& options : option_sets) {
      for (const auto& [s, t] : pairs) {
        const auto set = node_disjoint_paths(net, s, t, options, scratch);
        ASSERT_EQ(set.paths.size(), net.m() + 1);
      }
    }
  }

  const std::size_t before = allocation_count();
  for (const auto& options : option_sets) {
    for (const auto& [s, t] : pairs) {
      const auto set = node_disjoint_paths(net, s, t, options, scratch);
      volatile std::size_t sink = set.paths.size();
      (void)sink;
    }
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

// Same-cluster pairs take the max_disjoint_paths branch, which the sampled
// pairs above almost never reach.
TEST(AllocationFree, ScratchConstructionSteadyStateSameCluster) {
  const HhcTopology net{3};
  std::vector<PairSample> pairs;
  for (std::uint64_t x = 0; x < net.cluster_count(); x += 37) {
    for (std::uint64_t ys = 0; ys < net.cluster_size(); ++ys) {
      pairs.push_back({net.encode(x, ys),
                       net.encode(x, (ys + 1 + x) % net.cluster_size())});
    }
  }
  auto& scratch = tls_construction_scratch();
  for (int round = 0; round < 2; ++round) {
    for (const auto& [s, t] : pairs) {
      if (s == t) continue;
      const auto set = node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(set.paths.size(), net.m() + 1);
    }
  }

  const std::size_t before = allocation_count();
  std::size_t paths_built = 0;
  std::size_t queries = 0;
  for (const auto& [s, t] : pairs) {
    if (s == t) continue;
    const auto set = node_disjoint_paths(net, s, t, {}, scratch);
    paths_built += set.paths.size();
    ++queries;
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "steady-state same-cluster construction performed "
                       << delta << " heap allocations";
  EXPECT_GT(queries, 0u);
  EXPECT_EQ(paths_built, queries * (net.m() + 1));
}

TEST(AllocationFree, ArenaHeapAllocationsStabilize) {
  const HhcTopology net{4};
  const auto pairs = sample_pairs(net, 100, 0xA110E);
  auto& scratch = tls_construction_scratch();
  for (const auto& [s, t] : pairs) {
    (void)node_disjoint_paths(net, s, t, {}, scratch);
  }
  // The arena's own bookkeeping agrees with the global counter: after the
  // first full pass no further chunk is ever requested.
  const std::size_t chunks = scratch.arena.heap_allocations();
  for (int round = 0; round < 3; ++round) {
    for (const auto& [s, t] : pairs) {
      (void)node_disjoint_paths(net, s, t, {}, scratch);
    }
  }
  EXPECT_EQ(scratch.arena.heap_allocations(), chunks);
}

TEST(AllocationFree, CacheHitLookup) {
  const HhcTopology net{3};
  ContainerCache cache{net};
  const auto pairs = sample_pairs(net, 64, 0xA110F);
  for (const auto& [s, t] : pairs) (void)cache.lookup(s, t);  // populate
  // This thread's first HIT lazily registers its striped hit-counter cell
  // (one allocation per thread, ever); warm it so the loop below measures
  // the steady-state hit path.
  (void)cache.lookup(pairs[0].s, pairs[0].t);

  const std::size_t before = allocation_count();
  std::size_t total_paths = 0;
  for (const auto& [s, t] : pairs) {
    const ContainerHandle handle = cache.lookup(s, t);
    total_paths += handle.path_count();
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "cache hits performed " << delta << " allocations";
  EXPECT_EQ(total_paths, pairs.size() * (net.m() + 1));
  EXPECT_EQ(cache.hits(), pairs.size() + 1);
}

TEST(AllocationFree, AnswerViewOnHit) {
  const HhcTopology net{3};
  query::PathService service{net};
  const auto pairs = sample_pairs(net, 64, 0xA1110);
  for (const auto& [s, t] : pairs) {
    (void)service.answer_view({.s = s, .t = t});  // populate
  }

  const std::size_t before = allocation_count();
  std::size_t total_paths = 0;
  for (const auto& [s, t] : pairs) {
    const query::RouteView view = service.answer_view({.s = s, .t = t});
    total_paths += view.container.path_count();
  }
  const std::size_t delta = allocation_count() - before;

  EXPECT_EQ(delta, 0u) << "answer_view hits performed " << delta
                       << " allocations";
  EXPECT_EQ(total_paths, pairs.size() * (net.m() + 1));
}

}  // namespace
}  // namespace hhc::core

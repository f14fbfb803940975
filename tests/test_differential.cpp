// Differential regression suite: the arena-backed construction against
// recorded pre-rework snapshots and against the max-flow baseline.
//
// The allocation-free hot path (ConstructionScratch + PathArena) was
// required to be *bit-identical* to the construction that preceded it, not
// merely "also correct". The snapshot hashes below were recorded from the
// pre-rework implementation (FNV-1a over every container: path count, then
// per path its node count and nodes, little-endian byte order); the suite
// recomputes them through the scratch overload, so ANY behavioral drift in
// route selection, tie-breaking, fan assignment, or walk realization shows
// up as a one-line hash mismatch. Coverage: every ordered pair at m = 1 and
// m = 2 under all three option sets, plus 2000 sampled pairs at m = 3 and
// m = 4 (seed 0xD1FF + m, the seed the snapshots were recorded with —
// changing it invalidates the constants).
//
// Two later pins cover what the 2000-pair samples do not reach: 2000
// sampled pairs at m = 5 (seed 0xD1FF + 5) under all three option sets, and
// same-cluster pairs, which take the cube::disjoint_paths branch (a sampled
// m = 4 pair shares a cluster about once in 2^16). The same-cluster pins are
// every same-cluster ordered pair at m = 3 plus 2000 seeded ones (seed
// 0x5C1 + m) at m = 4 and m = 5; the construction ignores the options there.
//
// A hash can only say "something changed"; the deep-equality sweep pins the
// two live entry points (copying API vs scratch + materialize) node-for-node
// so a mismatch points at the diverging pair. The max-flow cross-check then
// ties the arena path's cardinality to an independent algorithm entirely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "baseline/maxflow_paths.hpp"
#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/scratch.hpp"
#include "util/rng.hpp"

namespace hhc::core {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct Snapshot {
  DimensionOrdering ordering;
  RouteSelectionPolicy selection;
  std::uint64_t expected;
};

// Hashes one scratch-built container into the running digest.
void hash_pair(const HhcTopology& net, Node s, Node t,
               const ConstructionOptions& options, ConstructionScratch& scratch,
               Fnv1a& fnv) {
  const DisjointPathSetRef set =
      node_disjoint_paths(net, s, t, options, scratch);
  fnv.mix(set.paths.size());
  for (const PathRef path : set.paths) {
    fnv.mix(path.size());
    for (const Node v : path) fnv.mix(v);
  }
}

void check_exhaustive_snapshot(unsigned m, const Snapshot& snap) {
  const HhcTopology net{m};
  const ConstructionOptions options{snap.ordering, snap.selection};
  auto& scratch = tls_construction_scratch();
  Fnv1a fnv;
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s != t) hash_pair(net, s, t, options, scratch, fnv);
    }
  }
  EXPECT_EQ(fnv.h, snap.expected)
      << "m=" << m << ": arena construction drifted from pre-rework snapshot";
}

void check_sampled_snapshot(unsigned m, const Snapshot& snap) {
  const HhcTopology net{m};
  const ConstructionOptions options{snap.ordering, snap.selection};
  auto& scratch = tls_construction_scratch();
  Fnv1a fnv;
  for (const auto& [s, t] : sample_pairs(net, 2000, 0xD1FF + m)) {
    hash_pair(net, s, t, options, scratch, fnv);
  }
  EXPECT_EQ(fnv.h, snap.expected)
      << "m=" << m << ": arena construction drifted from pre-rework snapshot";
}

// Every ordered same-cluster pair of the topology (m <= 3), cluster by
// cluster.
void check_exhaustive_same_cluster(unsigned m, std::uint64_t expected) {
  const HhcTopology net{m};
  auto& scratch = tls_construction_scratch();
  Fnv1a fnv;
  for (std::uint64_t x = 0; x < net.cluster_count(); ++x) {
    for (std::uint64_t ys = 0; ys < net.cluster_size(); ++ys) {
      for (std::uint64_t yt = 0; yt < net.cluster_size(); ++yt) {
        if (ys == yt) continue;
        hash_pair(net, net.encode(x, ys), net.encode(x, yt), {}, scratch, fnv);
      }
    }
  }
  EXPECT_EQ(fnv.h, expected) << "m=" << m << ": same-cluster paths drifted";
}

// 2000 seeded same-cluster pairs (uniform cluster, distinct positions).
void check_sampled_same_cluster(unsigned m, std::uint64_t expected) {
  const HhcTopology net{m};
  auto& scratch = tls_construction_scratch();
  util::Xoshiro256 rng{0x5C1 + m};
  Fnv1a fnv;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = rng.below(net.cluster_count());
    const std::uint64_t ys = rng.below(net.cluster_size());
    std::uint64_t yt = rng.below(net.cluster_size() - 1);
    if (yt >= ys) ++yt;
    hash_pair(net, net.encode(x, ys), net.encode(x, yt), {}, scratch, fnv);
  }
  EXPECT_EQ(fnv.h, expected) << "m=" << m << ": same-cluster paths drifted";
}

// Recorded from the pre-rework implementation and re-pinned once since, when
// the closed-form cube fans and cube::disjoint_paths replaced max flow in the
// endpoint clusters (CHANGES.md lists the evidence: every pair verified at
// m <= 3, every m = 4 key within the length bound). m = 1 kept its pins, and
// at m = 2 only same-cluster containers changed. Do not regenerate casually —
// a mismatch means routed containers changed, which breaks cache/bench
// comparability and must be an explicit, documented decision.
constexpr Snapshot kM1[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0xe58585aecc242da5ULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0xe58585aecc242da5ULL},  // one differing dim: orderings coincide
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0xe58585aecc242da5ULL},  // no free slots at m=1: policies coincide
};
constexpr Snapshot kM2[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0x514152fb850d8725ULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0xf2f1e56ea6c9dd25ULL},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0xd98495709f2a4ca5ULL},
};
constexpr Snapshot kM3[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0x0336fd9e5e0efde0ULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0x3b4044bc95747005ULL},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0xd1c153d262d4bb88ULL},
};
constexpr Snapshot kM4[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0x11ad3bb9116c62ebULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0xf9e63933c2a5ef76ULL},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0xa8f9cb06a387a5a6ULL},
};

constexpr Snapshot kM5[] = {
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kCanonical,
     0xbb222f3c1d8fb228ULL},
    {DimensionOrdering::kAscending, RouteSelectionPolicy::kCanonical,
     0x1f94a75cd2cd1042ULL},
    {DimensionOrdering::kGrayCycle, RouteSelectionPolicy::kBalanced,
     0x52d5498a2a1fad61ULL},
};
constexpr std::uint64_t kSameClusterM3 = 0xdfd2f5f6c7d43425ULL;
constexpr std::uint64_t kSameClusterM4 = 0x4c7253f646fec185ULL;
constexpr std::uint64_t kSameClusterM5 = 0x359e09c82b74c2aeULL;

TEST(Differential, SnapshotExhaustiveM1) {
  for (const Snapshot& snap : kM1) check_exhaustive_snapshot(1, snap);
}

TEST(Differential, SnapshotExhaustiveM2) {
  for (const Snapshot& snap : kM2) check_exhaustive_snapshot(2, snap);
}

TEST(Differential, SnapshotSampledM3) {
  for (const Snapshot& snap : kM3) check_sampled_snapshot(3, snap);
}

TEST(Differential, SnapshotSampledM4) {
  for (const Snapshot& snap : kM4) check_sampled_snapshot(4, snap);
}

TEST(Differential, SnapshotSampledM5) {
  for (const Snapshot& snap : kM5) check_sampled_snapshot(5, snap);
}

TEST(Differential, SnapshotSameClusterExhaustiveM3) {
  check_exhaustive_same_cluster(3, kSameClusterM3);
}

TEST(Differential, SnapshotSameClusterSampledM4) {
  check_sampled_same_cluster(4, kSameClusterM4);
}

TEST(Differential, SnapshotSameClusterSampledM5) {
  check_sampled_same_cluster(5, kSameClusterM5);
}

// The copying API and the scratch overload must agree node for node: the
// legacy entry point is DEFINED as scratch + materialize, and this pins
// that equivalence from the outside (exhaustive at m=2, sampled above).
TEST(Differential, LegacyEqualsScratchExhaustiveM2) {
  const HhcTopology net{2};
  auto& scratch = tls_construction_scratch();
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s == t) continue;
      const DisjointPathSet legacy = node_disjoint_paths(net, s, t);
      const DisjointPathSetRef ref =
          node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(legacy.paths.size(), ref.paths.size());
      for (std::size_t i = 0; i < ref.paths.size(); ++i) {
        ASSERT_TRUE(std::ranges::equal(legacy.paths[i], ref.paths[i]))
            << "s=" << s << " t=" << t << " path " << i;
      }
    }
  }
}

// Arena-path cardinality against an independent algorithm: max flow on the
// explicit split network. Exhaustive at m=2, sampled at m=3.
TEST(Differential, ArenaCountMatchesMaxflowM2Exhaustive) {
  const HhcTopology net{2};
  const baseline::MaxflowBaseline exact{net};
  auto& scratch = tls_construction_scratch();
  for (Node s = 0; s < net.node_count(); ++s) {
    for (Node t = 0; t < net.node_count(); ++t) {
      if (s == t) continue;
      const DisjointPathSetRef set =
          node_disjoint_paths(net, s, t, {}, scratch);
      ASSERT_EQ(set.paths.size(), exact.connectivity(s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(Differential, ArenaCountMatchesMaxflowM3Sampled) {
  const HhcTopology net{3};
  const baseline::MaxflowBaseline exact{net};
  auto& scratch = tls_construction_scratch();
  for (const auto& [s, t] : sample_pairs(net, 60, 0xD1FF)) {
    const DisjointPathSetRef set = node_disjoint_paths(net, s, t, {}, scratch);
    ASSERT_EQ(set.paths.size(), exact.connectivity(s, t))
        << "s=" << s << " t=" << t;
  }
}

}  // namespace
}  // namespace hhc::core

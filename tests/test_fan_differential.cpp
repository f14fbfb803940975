// Fan-level differential suite: FanWorkspace on a prebuilt SplitNetwork
// against the reference free functions, which build a fresh graph::Dinic
// network per call.
//
// The construction's FNV pins (test_differential.cpp) only see fans
// through whole containers. Here every workspace answer must equal the
// reference node for node, path by path, on:
//   * every (source, target set) of Q_3, including sets larger than the
//     degree, where both sides must refuse;
//   * every m-target fan of Q_4 (16 x C(15, 4) = 21 840), forward and
//     reverse;
//   * a seeded sample of Q_5 fans with shuffled target order;
//   * max_disjoint_paths on every ordered pair of Q_2..Q_5, with `limit`
//     the degree, every value below it, and unlimited;
//   * seeded irregular random graphs, where connectivity varies by pair.
// One warm workspace serves each sweep, so stale state from an earlier
// call would show up as a mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cube/hypercube.hpp"
#include "graph/vertex_disjoint.hpp"
#include "util/rng.hpp"

namespace hhc::graph {
namespace {

void expect_same(std::span<const VertexPath> got,
                 const std::vector<VertexPath>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << ": path " << i;
  }
}

// Workspace fan and reverse fan against the reference; when the reference
// finds no complete fan, the workspace must refuse the same way.
void check_fan(FanWorkspace& ws, const AdjacencyList& g,
               const SplitNetwork& net, Vertex s,
               std::span<const Vertex> targets) {
  std::vector<VertexPath> want;
  try {
    want = vertex_disjoint_fan(g, s, targets);
  } catch (const std::runtime_error&) {
    EXPECT_THROW((void)ws.fan(net, s, targets), std::runtime_error);
    EXPECT_THROW((void)ws.reverse_fan(net, targets, s), std::runtime_error);
    return;
  }
  expect_same(ws.fan(net, s, targets), want, "fan");
  expect_same(ws.reverse_fan(net, targets, s),
              vertex_disjoint_reverse_fan(g, targets, s), "reverse fan");
}

void check_pairs(FanWorkspace& ws, const AdjacencyList& g,
                 const SplitNetwork& net) {
  const auto n = static_cast<Vertex>(g.vertex_count());
  for (Vertex s = 0; s < n; ++s) {
    for (Vertex t = 0; t < n; ++t) {
      if (s == t) continue;
      std::vector<std::size_t> limits{static_cast<std::size_t>(-1)};
      for (std::size_t limit = 0; limit <= g.degree(s); ++limit) {
        limits.push_back(limit);
      }
      for (const std::size_t limit : limits) {
        SCOPED_TRACE(::testing::Message()
                     << "s=" << s << " t=" << t << " limit=" << limit);
        expect_same(ws.max_disjoint_paths(net, s, t, limit),
                    max_vertex_disjoint_paths(g, s, t, limit), "pair");
      }
    }
  }
}

TEST(FanDifferential, EveryTargetSetOfQ3) {
  const AdjacencyList g = cube::Hypercube{3}.explicit_graph();
  const SplitNetwork net{g};
  FanWorkspace ws;
  for (Vertex s = 0; s < 8; ++s) {
    for (std::uint32_t mask = 1; mask < 256; ++mask) {
      if ((mask >> s) & 1U) continue;
      std::vector<Vertex> targets;
      for (Vertex v = 0; v < 8; ++v) {
        if ((mask >> v) & 1U) targets.push_back(v);
      }
      SCOPED_TRACE(::testing::Message() << "s=" << s << " mask=" << mask);
      check_fan(ws, g, net, s, targets);
    }
  }
}

TEST(FanDifferential, EveryFourTargetFanOfQ4) {
  const AdjacencyList g = cube::Hypercube{4}.explicit_graph();
  const SplitNetwork net{g};
  FanWorkspace ws;
  std::size_t fans = 0;
  for (Vertex s = 0; s < 16; ++s) {
    for (std::uint32_t mask = 0; mask < (1U << 16); ++mask) {
      if (std::popcount(mask) != 4 || ((mask >> s) & 1U) != 0) continue;
      std::vector<Vertex> targets;
      for (Vertex v = 0; v < 16; ++v) {
        if ((mask >> v) & 1U) targets.push_back(v);
      }
      SCOPED_TRACE(::testing::Message() << "s=" << s << " mask=" << mask);
      check_fan(ws, g, net, s, targets);
      ++fans;
    }
  }
  EXPECT_EQ(fans, 21840u);
}

TEST(FanDifferential, SampledFansOfQ5) {
  const AdjacencyList g = cube::Hypercube{5}.explicit_graph();
  const SplitNetwork net{g};
  FanWorkspace ws;
  util::Xoshiro256 rng{0xFA5};
  for (int i = 0; i < 4000; ++i) {
    const auto s = static_cast<Vertex>(rng.below(32));
    const std::size_t size = 1 + rng.below(5);
    std::vector<Vertex> targets;
    while (targets.size() < size) {
      const auto v = static_cast<Vertex>(rng.below(32));
      if (v != s && std::find(targets.begin(), targets.end(), v) ==
                        targets.end()) {
        targets.push_back(v);
      }
    }
    SCOPED_TRACE(::testing::Message() << "sample " << i);
    check_fan(ws, g, net, s, targets);
  }
}

TEST(FanDifferential, EveryPairOfQ2ToQ5AtEveryLimit) {
  for (unsigned m = 2; m <= 5; ++m) {
    SCOPED_TRACE(::testing::Message() << "m=" << m);
    const AdjacencyList g = cube::Hypercube{m}.explicit_graph();
    const SplitNetwork net{g};
    FanWorkspace ws;
    check_pairs(ws, g, net);
  }
}

// Irregular graphs: degrees and connectivity differ from pair to pair, and
// many fans have no complete solution.
TEST(FanDifferential, SeededRandomGraphs) {
  util::Xoshiro256 rng{0xFA6};
  for (int round = 0; round < 20; ++round) {
    const Vertex n = 6 + static_cast<Vertex>(rng.below(9));
    AdjacencyList g{n};
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        if (rng.below(100) < 35) g.add_edge(u, v);
      }
    }
    SCOPED_TRACE(::testing::Message() << "round " << round << " n=" << n);
    const SplitNetwork net{g};
    FanWorkspace ws;
    check_pairs(ws, g, net);
    for (int i = 0; i < 200; ++i) {
      const auto s = static_cast<Vertex>(rng.below(n));
      std::vector<Vertex> targets;
      for (Vertex v = 0; v < n; ++v) {
        if (v != s && rng.below(100) < 30) targets.push_back(v);
      }
      check_fan(ws, g, net, s, targets);
    }
  }
}

TEST(FanDifferential, WorkspaceRejectsWhatTheReferenceRejects) {
  const AdjacencyList g = cube::Hypercube{3}.explicit_graph();
  const SplitNetwork net{g};
  FanWorkspace ws;
  const std::vector<Vertex> duplicate{1, 1};
  const std::vector<Vertex> self{0};
  const std::vector<Vertex> outside{8};
  EXPECT_THROW((void)ws.fan(net, 8, self), std::invalid_argument);
  EXPECT_THROW((void)ws.fan(net, 0, self), std::invalid_argument);
  EXPECT_THROW((void)ws.fan(net, 0, outside), std::invalid_argument);
  EXPECT_THROW((void)ws.fan(net, 0, duplicate), std::invalid_argument);
  EXPECT_THROW((void)ws.max_disjoint_paths(net, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)ws.max_disjoint_paths(net, 0, 8), std::invalid_argument);
  EXPECT_TRUE(ws.fan(net, 0, {}).empty());
}

}  // namespace
}  // namespace hhc::graph

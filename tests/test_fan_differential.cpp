// Fan-level differential suite: the closed-form cube::disjoint_fan against
// the allocating max-flow reference graph::vertex_disjoint_fan, which
// builds a fresh graph::Dinic network per call.
//
// The two need not pick the same walks, so the comparison is by outcome:
// on every input both must agree on whether a complete fan exists, and
// every fan either side returns, forward and reverse, must pass the same
// validator (walk i runs from s to targets[i] along Q_n edges, the walks
// share no node but s, and no walk passes through another target). The
// inputs are
//   * every (source, target set) of Q_3, including sets larger than the
//     degree, where both sides must refuse;
//   * every m-target fan of Q_4 (16 x C(15, 4) = 21 840).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cube/cube_fan.hpp"
#include "graph/vertex_disjoint.hpp"

namespace hhc::cube {
namespace {

using Walks = std::vector<std::vector<CubeNode>>;

Walks walks_of(const CubeFan& fan) {
  Walks out;
  for (std::size_t i = 0; i < fan.size(); ++i) {
    out.emplace_back(fan[i].begin(), fan[i].end());
  }
  return out;
}

Walks walks_of(const std::vector<graph::VertexPath>& paths) {
  Walks out;
  for (const graph::VertexPath& p : paths) {
    std::vector<CubeNode>& w = out.emplace_back();
    for (const graph::Vertex v : p) w.push_back(static_cast<CubeNode>(v));
  }
  return out;
}

// Walk i runs from `hub` to ends[i] (or from ends[i] to `hub` when
// `reverse`); the walks are disjoint except at `hub` and cross no other end.
void expect_fan(const Hypercube& q, CubeNode hub,
                std::span<const CubeNode> ends, const Walks& walks,
                bool reverse, const char* what) {
  ASSERT_EQ(walks.size(), ends.size()) << what;
  std::uint32_t end_set = 0;
  for (const CubeNode t : ends) end_set |= std::uint32_t{1} << t;
  std::uint32_t used = 0;
  for (std::size_t i = 0; i < walks.size(); ++i) {
    const std::vector<CubeNode>& w = walks[i];
    ASSERT_GE(w.size(), 2u) << what << ": walk " << i;
    ASSERT_EQ(reverse ? w.back() : w.front(), hub) << what << ": walk " << i;
    ASSERT_EQ(reverse ? w.front() : w.back(), ends[i])
        << what << ": walk " << i;
    for (std::size_t p = 0; p < w.size(); ++p) {
      if (p > 0) {
        ASSERT_TRUE(q.is_edge(w[p - 1], w[p])) << what << ": walk " << i;
      }
      if (w[p] == hub) continue;
      const std::uint32_t bit = std::uint32_t{1} << w[p];
      ASSERT_EQ(used & bit, 0u) << what << ": node " << w[p] << " twice";
      used |= bit;
      if (w[p] != ends[i]) {
        ASSERT_EQ(end_set & bit, 0u) << what << ": walk " << i
                                     << " crosses a target";
      }
    }
  }
}

void check_fan(const Hypercube& q, const graph::AdjacencyList& g, CubeNode s,
               const std::vector<CubeNode>& targets) {
  std::vector<graph::Vertex> vertices;
  for (const CubeNode t : targets) {
    vertices.push_back(static_cast<graph::Vertex>(t));
  }
  const auto v_s = static_cast<graph::Vertex>(s);
  if (targets.size() > q.dimension()) {
    EXPECT_THROW((void)graph::vertex_disjoint_fan(g, v_s, vertices),
                 std::runtime_error);
    EXPECT_THROW((void)graph::vertex_disjoint_reverse_fan(g, vertices, v_s),
                 std::runtime_error);
    EXPECT_THROW((void)disjoint_fan(q, s, targets), std::invalid_argument);
    EXPECT_THROW((void)disjoint_reverse_fan(q, targets, s),
                 std::invalid_argument);
    return;
  }
  expect_fan(q, s, targets,
             walks_of(graph::vertex_disjoint_fan(g, v_s, vertices)), false,
             "reference fan");
  expect_fan(q, s, targets,
             walks_of(graph::vertex_disjoint_reverse_fan(g, vertices, v_s)),
             true, "reference reverse fan");
  expect_fan(q, s, targets, walks_of(disjoint_fan(q, s, targets)), false,
             "closed-form fan");
  expect_fan(q, s, targets, walks_of(disjoint_reverse_fan(q, targets, s)),
             true, "closed-form reverse fan");
}

std::vector<CubeNode> members(std::uint32_t mask) {
  std::vector<CubeNode> out;
  for (CubeNode v = 0; mask >> v != 0; ++v) {
    if ((mask >> v) & 1U) out.push_back(v);
  }
  return out;
}

TEST(FanDifferential, EveryTargetSetOfQ3) {
  const Hypercube q{3};
  const graph::AdjacencyList g = q.explicit_graph();
  std::size_t refused = 0;
  for (CubeNode s = 0; s < 8; ++s) {
    for (std::uint32_t mask = 1; mask < 256; ++mask) {
      if ((mask >> s) & 1U) continue;
      SCOPED_TRACE(::testing::Message() << "s=" << s << " mask=" << mask);
      check_fan(q, g, s, members(mask));
      if (std::popcount(mask) > 3) ++refused;
    }
  }
  // Sets of 4..7 of the 7 other vertices, per source.
  EXPECT_EQ(refused, 8u * (35 + 21 + 7 + 1));
}

TEST(FanDifferential, EveryFourTargetFanOfQ4) {
  const Hypercube q{4};
  const graph::AdjacencyList g = q.explicit_graph();
  std::size_t fans = 0;
  for (CubeNode s = 0; s < 16; ++s) {
    for (std::uint32_t mask = 0; mask < (1U << 16); ++mask) {
      if (std::popcount(mask) != 4 || ((mask >> s) & 1U) != 0) continue;
      SCOPED_TRACE(::testing::Message() << "s=" << s << " mask=" << mask);
      check_fan(q, g, s, members(mask));
      if (::testing::Test::HasFatalFailure()) return;
      ++fans;
    }
  }
  EXPECT_EQ(fans, 21840u);
}

}  // namespace
}  // namespace hhc::cube

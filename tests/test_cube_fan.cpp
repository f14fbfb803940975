// The closed-form hypercube fan, checked structurally on every input it
// can take at n <= 4 and on every target set from s = 0 at n = 5.
//
// For each (s, targets) the forward fan must have, walk by walk:
//   * result[i] running from s to targets[i] along Q_n edges;
//   * pairwise vertex-disjoint walks except at s, and no walk through
//     another target;
//   * at most H + 2 and at most n + 1 hops, H = dist(s, targets[i]).
// The reverse fan must be the forward fan from its sink, each walk
// reversed. The allocating max-flow reference must also find a complete
// fan on the same input, which ties the closed form to an independent
// algorithm. At n = 5, sampled sources check translation equivariance:
// fan(s, T) = fan(0, T ^ s) ^ s node for node, which is what lets the
// s = 0 sweep stand for every source.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ranges>
#include <stdexcept>
#include <vector>

#include "cube/cube_fan.hpp"
#include "graph/vertex_disjoint.hpp"
#include "util/rng.hpp"

namespace hhc::cube {
namespace {

void check_fan(const Hypercube& q, const graph::AdjacencyList& g, CubeNode s,
               const std::vector<CubeNode>& targets) {
  const unsigned n = q.dimension();
  const CubeFan fan = disjoint_fan(q, s, targets);
  ASSERT_EQ(fan.size(), targets.size());
  std::uint64_t target_set = 0;
  for (const CubeNode t : targets) target_set |= std::uint64_t{1} << t;
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto walk = fan[i];
    ASSERT_GE(walk.size(), 2u);
    ASSERT_EQ(walk.front(), s);
    ASSERT_EQ(walk.back(), targets[i]);
    const std::size_t hops = walk.size() - 1;
    const auto h = static_cast<std::size_t>(q.distance(s, targets[i]));
    ASSERT_LE(hops, h + 2) << "walk " << i;
    ASSERT_LE(hops, std::size_t{n} + 1) << "walk " << i;
    for (std::size_t p = 1; p < walk.size(); ++p) {
      ASSERT_TRUE(q.is_edge(walk[p - 1], walk[p])) << "walk " << i;
      const std::uint64_t bit = std::uint64_t{1} << walk[p];
      ASSERT_EQ(used & bit, 0u) << "node " << walk[p] << " on two walks";
      used |= bit;
      if (p + 1 < walk.size()) {
        ASSERT_EQ(target_set & bit, 0u) << "walk " << i << " crosses a target";
      }
    }
  }
  ASSERT_EQ(used & (std::uint64_t{1} << s), 0u) << "a walk returns to s";

  const CubeFan reverse = disjoint_reverse_fan(q, targets, s);
  ASSERT_EQ(reverse.size(), fan.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(reverse[i], fan[i] | std::views::reverse))
        << "reverse walk " << i;
  }

  std::vector<graph::Vertex> vertices;
  for (const CubeNode t : targets) {
    vertices.push_back(static_cast<graph::Vertex>(t));
  }
  EXPECT_EQ(graph::vertex_disjoint_fan(g, static_cast<graph::Vertex>(s),
                                       vertices)
                .size(),
            targets.size());
}

// Calls visit(targets) for every ascending set of 1..max_size vertices of
// Q_n other than s.
template <typename Visit>
void for_each_target_set(unsigned n, CubeNode s, std::size_t max_size,
                         std::vector<CubeNode>& targets, CubeNode next,
                         const Visit& visit) {
  for (CubeNode v = next; v < (CubeNode{1} << n); ++v) {
    if (v == s) continue;
    targets.push_back(v);
    visit(targets);
    if (targets.size() < max_size) {
      for_each_target_set(n, s, max_size, targets, v + 1, visit);
    }
    targets.pop_back();
  }
}

std::size_t sweep(unsigned n, CubeNode s) {
  const Hypercube q{n};
  const graph::AdjacencyList g = q.explicit_graph();
  std::size_t sets = 0;
  std::vector<CubeNode> targets;
  for_each_target_set(n, s, n, targets, 0,
                      [&](const std::vector<CubeNode>& set) {
                        SCOPED_TRACE(::testing::Message()
                                     << "n=" << n << " s=" << s << " set #"
                                     << sets);
                        check_fan(q, g, s, set);
                        ++sets;
                      });
  return sets;
}

TEST(CubeFan, EverySourceAndTargetSetUpToQ4) {
  // Sets of 1..n of the 2^n - 1 other vertices, per source.
  constexpr std::size_t kSets[] = {0, 1, 6, 63, 1940};
  for (unsigned n = 1; n <= 4; ++n) {
    for (CubeNode s = 0; s < (CubeNode{1} << n); ++s) {
      EXPECT_EQ(sweep(n, s), kSets[n]) << "n=" << n << " s=" << s;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(CubeFan, EveryTargetSetOfQ5FromZero) {
  EXPECT_EQ(sweep(5, 0), 206367u);
}

TEST(CubeFan, TranslationEquivarianceOnQ5) {
  const Hypercube q{5};
  const graph::AdjacencyList g = q.explicit_graph();
  util::Xoshiro256 rng{0xFA57};
  for (int i = 0; i < 4000; ++i) {
    const CubeNode s = 1 + rng.below(31);
    const std::size_t size = 1 + rng.below(5);
    std::vector<CubeNode> targets;
    while (targets.size() < size) {
      const CubeNode v = rng.below(32);
      if (v != s && std::ranges::find(targets, v) == targets.end()) {
        targets.push_back(v);
      }
    }
    SCOPED_TRACE(::testing::Message() << "sample " << i << " s=" << s);
    check_fan(q, g, s, targets);
    std::vector<CubeNode> shifted;
    for (const CubeNode t : targets) shifted.push_back(t ^ s);
    const CubeFan fan = disjoint_fan(q, s, targets);
    const CubeFan base = disjoint_fan(q, 0, shifted);
    for (std::size_t w = 0; w < fan.size(); ++w) {
      ASSERT_EQ(fan[w].size(), base[w].size());
      for (std::size_t p = 0; p < fan[w].size(); ++p) {
        ASSERT_EQ(fan[w][p], base[w][p] ^ s) << "walk " << w;
      }
    }
  }
}

// The walks depend on the target set, not on its order: permuting the
// targets permutes the result.
TEST(CubeFan, TargetOrderOnlyPermutesTheWalks) {
  const Hypercube q{5};
  util::Xoshiro256 rng{0xFA58};
  for (int i = 0; i < 2000; ++i) {
    const CubeNode s = rng.below(32);
    std::vector<CubeNode> targets;
    while (targets.size() < 5) {
      const CubeNode v = rng.below(32);
      if (v != s && std::ranges::find(targets, v) == targets.end()) {
        targets.push_back(v);
      }
    }
    const CubeFan fan = disjoint_fan(q, s, targets);
    std::vector<CubeNode> shuffled = targets;
    std::rotate(shuffled.begin(), shuffled.begin() + 2, shuffled.end());
    std::swap(shuffled[0], shuffled[3]);
    const CubeFan other = disjoint_fan(q, s, shuffled);
    for (std::size_t w = 0; w < shuffled.size(); ++w) {
      const auto at = static_cast<std::size_t>(
          std::ranges::find(targets, shuffled[w]) - targets.begin());
      ASSERT_TRUE(std::ranges::equal(other[w], fan[at])) << "sample " << i;
    }
  }
}

TEST(CubeFan, RejectsInvalidInput) {
  const Hypercube q{3};
  const std::vector<CubeNode> duplicate{1, 1};
  const std::vector<CubeNode> self{0};
  const std::vector<CubeNode> outside{8};
  const std::vector<CubeNode> too_many{1, 2, 3, 4};
  EXPECT_THROW((void)disjoint_fan(q, 8, {}), std::invalid_argument);
  EXPECT_THROW((void)disjoint_fan(q, 0, self), std::invalid_argument);
  EXPECT_THROW((void)disjoint_fan(q, 0, outside), std::invalid_argument);
  EXPECT_THROW((void)disjoint_fan(q, 0, duplicate), std::invalid_argument);
  EXPECT_THROW((void)disjoint_fan(q, 0, too_many), std::invalid_argument);
  EXPECT_THROW((void)disjoint_fan(Hypercube{6}, 0, self),
               std::invalid_argument);
  EXPECT_EQ(disjoint_fan(q, 0, {}).size(), 0u);
}

}  // namespace
}  // namespace hhc::cube

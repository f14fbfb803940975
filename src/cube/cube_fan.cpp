#include "cube/cube_fan.hpp"

#include <bit>
#include <stdexcept>

namespace hhc::cube {

namespace {

// A set of Q_n vertices (n <= 5) as a mask: bit v stands for vertex v.
using VertexSet = std::uint32_t;

// The vertices whose bit i is clear, per dimension.
constexpr std::array<VertexSet, kMaxFanDimension> kNearSide = {
    0x55555555U, 0x33333333U, 0x0F0F0F0FU, 0x00FF00FFU, 0x0000FFFFU};

constexpr VertexSet vertex(std::uint32_t v) { return VertexSet{1} << v; }

// {v ^ 2^i : v in set}.
constexpr VertexSet across(VertexSet set, unsigned i) {
  const unsigned shift = 1U << i;
  return ((set & kNearSide[i]) << shift) | ((set >> shift) & kNearSide[i]);
}

unsigned lowest(std::uint32_t mask) {
  return static_cast<unsigned>(std::countr_zero(mask));
}

// The subcube through vertex 0 spanned by the dimensions in `dims`.
VertexSet subcube(std::uint32_t dims) {
  VertexSet set = 1;
  for (std::uint32_t d = dims; d != 0; d &= d - 1) {
    set |= across(set, lowest(d));
  }
  return set;
}

// The walks under construction, in coordinates relative to s and stored
// backwards: walk i starts at target i and grows toward s = 0. Its last
// node is its goal until the walk reaches s.
struct Walks {
  std::array<std::array<std::uint32_t, kMaxFanWalkNodes>, kMaxFanDimension>
      node{};
  std::array<std::size_t, kMaxFanDimension> size{};

  [[nodiscard]] std::uint32_t goal(std::size_t i) const {
    return node[i][size[i] - 1];
  }
  void push(std::size_t i, std::uint32_t v) {
    if (size[i] == kMaxFanWalkNodes) {
      throw std::logic_error("disjoint_fan: walk exceeds its length bound");
    }
    node[i][size[i]++] = v;
  }
};

// Pushes onto walk i a shortest walk from its goal to `start` inside the
// subcube `region` (spanned by `dims`), avoiding `blocked`: every node after
// the goal, `start` included. A breadth-first search over vertex masks.
void push_shortest(Walks& walks, std::size_t i, std::uint32_t dims,
                   VertexSet region, VertexSet blocked, std::uint32_t start) {
  std::array<VertexSet, 1U << (kMaxFanDimension - 1)> layers{};
  std::uint32_t cur = walks.goal(i);
  std::size_t depth = 0;
  layers[0] = vertex(start);
  VertexSet seen = layers[0];
  while ((layers[depth] & vertex(cur)) == 0) {
    VertexSet next = 0;
    for (std::uint32_t d = dims; d != 0; d &= d - 1) {
      next |= across(layers[depth], lowest(d));
    }
    next &= region & ~seen & ~blocked;
    if (next == 0) {
      throw std::logic_error("disjoint_fan: the far half is cut off");
    }
    seen |= next;
    layers[++depth] = next;
  }
  while (depth-- > 0) {
    for (std::uint32_t d = dims; d != 0; d &= d - 1) {
      const std::uint32_t prev = cur ^ (1U << lowest(d));
      if ((layers[depth] & vertex(prev)) != 0) {
        cur = prev;
        break;
      }
    }
    walks.push(i, cur);
  }
}

// Walk i leaves the current subcube across dimension j: from its goal in
// the far half to e_j, then to s.
void finish_through(Walks& walks, std::size_t i, std::uint32_t dims,
                    unsigned j, VertexSet blocked) {
  push_shortest(walks, i, dims, across(subcube(dims), j), blocked, 1U << j);
  walks.push(i, 0);
}

void build(unsigned n, std::size_t k, Walks& walks) {
  std::uint32_t dims = (1U << n) - 1;
  auto active = static_cast<std::uint32_t>((1U << k) - 1);

  while (active != 0) {
    VertexSet goals = 0;
    for (std::uint32_t a = active; a != 0; a &= a - 1) {
      goals |= vertex(walks.goal(lowest(a)));
    }
    int clean = -1;   // rule 1
    int paired = -1;  // rule 2
    int empty = -1;   // rule 3
    for (std::uint32_t d = dims; d != 0 && clean < 0; d &= d - 1) {
      const unsigned j = lowest(d);
      const VertexSet far = goals & ~kNearSide[j];
      if (far == 0) {
        if (empty < 0) empty = static_cast<int>(j);
        continue;
      }
      const VertexSet pairs = goals & across(far, j);  // near members
      if (pairs == 0) {
        clean = static_cast<int>(j);
      } else if (paired < 0 && std::has_single_bit(pairs) &&
                 (goals & vertex(1U << j)) == 0) {
        paired = static_cast<int>(j);
      }
    }

    if (clean >= 0 || paired >= 0) {
      const auto j = static_cast<unsigned>(clean >= 0 ? clean : paired);
      const std::uint32_t e = 1U << j;
      const VertexSet far = goals & ~kNearSide[j];
      // The far goal that takes the walk through e_j: the nearest one, or
      // the far member of the straddling pair.
      std::uint32_t first = lowest(far);
      if (clean >= 0) {
        for (VertexSet f = far; f != 0; f &= f - 1) {
          if (std::popcount(lowest(f)) < std::popcount(first)) {
            first = lowest(f);
          }
        }
      } else {
        first = e | lowest(goals & across(far, j));
      }
      dims &= ~e;
      for (std::uint32_t a = active; a != 0; a &= a - 1) {
        const std::size_t i = lowest(a);
        const std::uint32_t g = walks.goal(i);
        if ((g & e) == 0) continue;
        if (g == first) {
          finish_through(walks, i, dims, j, far & ~vertex(first));
          active &= ~(1U << i);
        } else {
          walks.push(i, g ^ e);
        }
      }
      continue;
    }

    if (empty < 0) {
      throw std::logic_error("disjoint_fan: no dimension splits the targets");
    }
    const auto j = static_cast<unsigned>(empty);
    const std::uint32_t e = 1U << j;
    dims &= ~e;
    if (std::popcount(active) <= std::popcount(dims)) continue;

    // k = d: the farthest target goes through the empty far half. For
    // n <= 5 no near-half walk built later passes through it (checked over
    // every input by tests/test_cube_fan.cpp).
    std::size_t routed = lowest(active);
    for (std::uint32_t a = active; a != 0; a &= a - 1) {
      const std::uint32_t g = walks.goal(lowest(a));
      const std::uint32_t best = walks.goal(routed);
      if (std::popcount(g) > std::popcount(best) ||
          (std::popcount(g) == std::popcount(best) && g < best)) {
        routed = lowest(a);
      }
    }
    active &= ~(1U << routed);
    walks.push(routed, walks.goal(routed) ^ e);
    finish_through(walks, routed, dims, j, 0);
  }
}

// Builds the fan from `center` and writes it forward (center first) or
// backward (center last).
CubeFan make_fan(const Hypercube& q, CubeNode center,
                 std::span<const CubeNode> ends, bool forward) {
  const unsigned n = q.dimension();
  if (n > kMaxFanDimension) {
    throw std::invalid_argument("disjoint_fan: dimension above 5");
  }
  if (!q.contains(center)) {
    throw std::invalid_argument("disjoint_fan: node out of range");
  }
  if (ends.size() > n) {
    throw std::invalid_argument("disjoint_fan: more targets than the degree");
  }
  Walks walks;
  VertexSet seen = 0;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    if (!q.contains(ends[i])) {
      throw std::invalid_argument("disjoint_fan: node out of range");
    }
    const auto v = static_cast<std::uint32_t>(ends[i] ^ center);
    if (v == 0) {
      throw std::invalid_argument("disjoint_fan: target is the source");
    }
    if ((seen & vertex(v)) != 0) {
      throw std::invalid_argument("disjoint_fan: duplicate target");
    }
    seen |= vertex(v);
    walks.node[i][0] = v;
    walks.size[i] = 1;
  }
  build(n, ends.size(), walks);

  CubeFan fan;
  fan.count = ends.size();
  for (std::size_t i = 0; i < fan.count; ++i) {
    const std::size_t size = walks.size[i];
    fan.sizes[i] = static_cast<std::uint8_t>(size);
    for (std::size_t p = 0; p < size; ++p) {
      fan.nodes[i][p] = center ^ walks.node[i][forward ? size - 1 - p : p];
    }
  }
  return fan;
}

}  // namespace

CubeFan disjoint_fan(const Hypercube& q, CubeNode s,
                     std::span<const CubeNode> targets) {
  return make_fan(q, s, targets, /*forward=*/true);
}

CubeFan disjoint_reverse_fan(const Hypercube& q,
                             std::span<const CubeNode> sources, CubeNode t) {
  return make_fan(q, t, sources, /*forward=*/false);
}

}  // namespace hhc::cube

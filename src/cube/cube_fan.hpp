// Closed-form vertex-disjoint fans in the hypercube Q_n (n <= 5).
//
// A fan from s to k <= n distinct targets is k walks, result[i] running
// from s to targets[i], pairwise vertex-disjoint except at s, so that no
// walk passes through another target. Q_n is n-connected, so a fan always
// exists. Max flow finds one; this module builds one directly by halving
// Q_n one dimension at a time, the recursive splitting behind the
// hypercube fan lemmas.
//
// In coordinates relative to s (s = 0), a step picks a free dimension j of
// the current subcube and splits it into the near half (bit j clear, which
// holds s) and the far half. The first rule that applies wins:
//   1. Far targets. No two targets differ only in j, and some target lies
//      on the far side. The far target nearest e_j takes the walk
//      s, e_j, then a shortest walk in the far half. Every other far
//      target t is entered from its mirror t ^ e_j, which becomes a target
//      of the near half: k - 1 targets in Q_(d-1).
//   2. One straddling pair. Exactly one target pair differs only in j, and
//      e_j is no target. The pair's far member takes the e_j walk, a
//      shortest walk around the other far targets, and its near member
//      stays a target of the near half; the rest is as in rule 1.
//   3. All targets near. Some free j has no far target. With k < d the near
//      half alone is the subproblem. With k = d the farthest target t takes
//      s, e_j, a shortest far-half walk to t ^ e_j, then t, and the other
//      k - 1 targets form the near half's subproblem.
// For n <= 5 one of the rules always applies: a set of k <= n targets plus
// s spans too few cube edges to block every dimension. Every walk has at
// most min(H + 2, n + 1) hops, where H is its target's distance from s.
// That no near-half walk passes through a target routed by rule 3 is not
// derived; tests/test_cube_fan.cpp checks it, with the rest, on every input
// for n <= 4 and on every target set from s = 0 for n = 5 (the fan commutes
// with translation, so that covers every source).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "cube/hypercube.hpp"

namespace hhc::cube {

/// Largest cube dimension the closed-form fan accepts (its vertex sets are
/// 32-bit masks).
inline constexpr unsigned kMaxFanDimension = 5;

/// Most nodes on one fan walk: at most n + 1 hops.
inline constexpr std::size_t kMaxFanWalkNodes = kMaxFanDimension + 2;

/// The walks of one fan in inline storage: building one never touches the
/// heap.
struct CubeFan {
  std::size_t count = 0;
  std::array<std::uint8_t, kMaxFanDimension> sizes{};
  std::array<std::array<CubeNode, kMaxFanWalkNodes>, kMaxFanDimension> nodes{};

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] std::span<const CubeNode> operator[](
      std::size_t i) const noexcept {
    return {nodes[i].data(), sizes[i]};
  }
};

/// Walks from `s` to each target, pairwise vertex-disjoint except at `s`;
/// result[i] ends at targets[i]. Targets must be distinct nodes other than
/// `s`, at most n of them, and n <= kMaxFanDimension.
[[nodiscard]] CubeFan disjoint_fan(const Hypercube& q, CubeNode s,
                                   std::span<const CubeNode> targets);

/// The fan from `t` to `sources`, each walk reversed: result[i] runs from
/// sources[i] to `t`.
[[nodiscard]] CubeFan disjoint_reverse_fan(const Hypercube& q,
                                           std::span<const CubeNode> sources,
                                           CubeNode t);

}  // namespace hhc::cube

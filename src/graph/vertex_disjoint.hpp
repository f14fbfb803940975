// Exact vertex-disjoint path extraction via node splitting + max flow.
//
// Menger's theorem: the maximum number of internally vertex-disjoint s-t
// paths equals the minimum s-t vertex cut. Splitting every internal vertex
// v into v_in -> v_out with unit capacity turns vertex disjointness into
// edge capacities, and max flow recovers an optimal path system.
//
// These routines serve two roles in the repository:
//   1. the exact baseline the constructive HHC algorithm is compared to,
//   2. the independent oracle the test suite checks connectivity and the
//      closed-form cube fans (cube/cube_fan.hpp) against.
// Each call builds a fresh graph::Dinic network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/adjacency_list.hpp"
#include "graph/types.hpp"

namespace hhc::graph {

/// Maximum set of internally vertex-disjoint s-t paths (s != t).
/// Paths include both endpoints. At most `limit` paths are returned (the
/// flow is capped), which keeps the search cheap when only k paths matter.
[[nodiscard]] std::vector<VertexPath> max_vertex_disjoint_paths(
    const AdjacencyList& g, Vertex s, Vertex t,
    std::size_t limit = static_cast<std::size_t>(-1));

/// Number of internally vertex-disjoint s-t paths (the local connectivity
/// kappa(s, t)), without materializing the paths.
[[nodiscard]] std::size_t vertex_connectivity_between(const AdjacencyList& g,
                                                      Vertex s, Vertex t);

/// One-to-many fan: paths from `s` to each target, pairwise vertex-disjoint
/// except at `s`, with result[i] ending exactly at targets[i].
/// Targets must be distinct and != s. Throws std::runtime_error when no
/// complete fan exists (i.e. max flow < targets.size()).
[[nodiscard]] std::vector<VertexPath> vertex_disjoint_fan(
    const AdjacencyList& g, Vertex s, std::span<const Vertex> targets);

/// Many-to-one fan: result[i] starts exactly at sources[i] and ends at `t`;
/// paths are pairwise vertex-disjoint except at `t`.
[[nodiscard]] std::vector<VertexPath> vertex_disjoint_reverse_fan(
    const AdjacencyList& g, std::span<const Vertex> sources, Vertex t);

/// Set-to-set Menger: a maximum system of TOTALLY vertex-disjoint paths
/// (endpoints included) from the source set to the sink set. Each path
/// starts at some source and ends at some sink; no vertex is shared by two
/// paths. Sources and sinks must each be duplicate-free; a vertex listed
/// in both sets yields the trivial single-vertex path.
[[nodiscard]] std::vector<VertexPath> set_to_set_disjoint_paths(
    const AdjacencyList& g, std::span<const Vertex> sources,
    std::span<const Vertex> sinks);

}  // namespace hhc::graph

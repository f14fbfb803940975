// Exact vertex-disjoint path extraction via node splitting + max flow.
//
// Menger's theorem: the maximum number of internally vertex-disjoint s-t
// paths equals the minimum s-t vertex cut. Splitting every internal vertex
// v into v_in -> v_out with unit capacity turns vertex disjointness into
// edge capacities, and max flow recovers an optimal path system.
//
// These routines serve three roles in the repository:
//   1. the exact baseline the constructive HHC algorithm is compared to,
//   2. the in-cluster "fan" subproblems of the constructive algorithm
//      (clusters have <= 32 vertices),
//   3. independent verification of connectivity in the test suite.
//
// Two implementations share one network layout. The allocating free
// functions build a graph::Dinic network per call: they are the reference.
// FanWorkspace solves the construction's fans on a SplitNetwork built once
// per cluster graph: each call copies the template's capacities, opens the
// call's endpoints, and runs the same augmentation on flat arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/adjacency_list.hpp"
#include "graph/types.hpp"

namespace hhc::graph {

/// The node-split flow network of a graph, in flat arrays, built once and
/// shared by every fan solved on that graph.
///
/// Vertex v owns nodes in(v) = 2v and out(v) = 2v + 1; node 2V is the fan
/// sink. The arcs are every in(v) -> out(v), every out(v) -> in(u) for an
/// edge {v, u}, and one out(v) -> sink per vertex, each with its reverse
/// arc. Each node's arcs are in the order graph::Dinic receives them from
/// the reference functions, so augmentation and flow decomposition visit
/// them identically. The template's capacities open every in -> out arc
/// and close every sink arc; a solve copies them and adjusts its endpoints
/// (a zero-capacity arc is never traversed, so it changes no result).
class SplitNetwork {
 public:
  explicit SplitNetwork(const AdjacencyList& g);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return degree_.size();
  }
  [[nodiscard]] std::size_t degree(Vertex v) const noexcept {
    return degree_[v];
  }

 private:
  friend class FanWorkspace;

  std::vector<std::uint32_t> first_;     // node -> first arc; size nodes + 1
  std::vector<std::uint32_t> to_;        // arc -> head node
  std::vector<std::uint32_t> rev_;       // arc -> its reverse arc
  std::vector<std::uint8_t> forward_;    // arc -> 1 when an original arc
  std::vector<std::uint8_t> capacity_;   // arc -> initial capacity
  std::vector<std::uint32_t> through_;   // v -> arc in(v) -> out(v)
  std::vector<std::uint32_t> to_sink_;   // v -> arc out(v) -> sink
  std::vector<std::uint32_t> degree_;    // v -> degree in the graph
};

/// Reusable solver for the flow-based disjoint-path routines below, run on
/// a prebuilt SplitNetwork.
///
/// The HHC construction solves two endpoint-fan subproblems per query on a
/// <= 32-node cluster graph. A call copies the network's capacities (a few
/// hundred bytes), runs Dinic's level-graph augmentation on the flat arcs,
/// stops as soon as the flow reaches its known maximum, and decomposes the
/// flow in place. A warm workspace performs ZERO heap allocations: the
/// residual capacities, the BFS and arc cursors, and the result paths all
/// reuse prior capacity.
///
/// Results are spans into workspace-owned storage, valid until the next
/// call on the same workspace. Not thread-safe; use one per thread (the
/// construction reaches it through core::ConstructionScratch).
///
/// Each method is result-identical, node for node, to the free function of
/// the same shape below (same arc order, same augmenting paths, same flow
/// decomposition) — asserted by the fan differential tests.
class FanWorkspace {
 public:
  FanWorkspace() = default;
  FanWorkspace(const FanWorkspace&) = delete;
  FanWorkspace& operator=(const FanWorkspace&) = delete;

  /// max_vertex_disjoint_paths, workspace-backed.
  [[nodiscard]] std::span<const VertexPath> max_disjoint_paths(
      const SplitNetwork& net, Vertex s, Vertex t,
      std::size_t limit = static_cast<std::size_t>(-1));

  /// vertex_disjoint_fan, workspace-backed: result[i] ends at targets[i].
  [[nodiscard]] std::span<const VertexPath> fan(const SplitNetwork& net,
                                                Vertex s,
                                                std::span<const Vertex> targets);

  /// vertex_disjoint_reverse_fan, workspace-backed.
  [[nodiscard]] std::span<const VertexPath> reverse_fan(
      const SplitNetwork& net, std::span<const Vertex> sources, Vertex t);

 private:
  std::size_t max_flow(const SplitNetwork& net, std::uint32_t s,
                       std::uint32_t t, std::size_t maximum);
  bool build_levels(const SplitNetwork& net, std::uint32_t s, std::uint32_t t);
  bool augment(const SplitNetwork& net, std::uint32_t v, std::uint32_t t);
  void walk_unit(const SplitNetwork& net, std::uint32_t start,
                 std::uint32_t stop);
  [[nodiscard]] VertexPath& slot(std::size_t i);

  std::vector<std::uint8_t> residual_;    // per-arc residual capacity
  std::vector<std::int32_t> level_;       // BFS level per node
  std::vector<std::uint32_t> next_arc_;   // Dinic's current arc per node
  std::vector<std::uint32_t> frontier_;   // BFS queue
  std::vector<Vertex> trail_;             // vertices of one decomposed unit
  std::vector<VertexPath> paths_;         // result storage, reused
  std::vector<std::size_t> target_slot_;  // vertex -> result index
};

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

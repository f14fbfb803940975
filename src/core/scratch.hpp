// Per-thread workspace for the allocation-free construction hot path.
//
// A single node_disjoint_paths query needs: the differing-dimension scan,
// the selected cluster routes, two endpoint fans (max flow on the cluster
// graph's split network, built once per m), and m+1 realized paths.
// ConstructionScratch owns warm storage for every one of those pieces; a
// query resets the arena, overwrites the buffers in place, and — once the
// scratch has seen one query of each shape — touches the heap exactly zero
// times (tests/test_allocation.cpp).
//
// Results are spans into the scratch (PathRef); they stay valid until the
// next query on the same scratch. Copy (materialize) before reusing it.
// Not thread-safe; batch drivers use tls_construction_scratch(), which
// hands each thread its own instance.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/topology.hpp"
#include "graph/adjacency_list.hpp"
#include "graph/vertex_disjoint.hpp"
#include "util/arena.hpp"

namespace hhc::core {

/// A borrowed path: a span of nodes into arena- or cache-owned storage.
using PathRef = std::span<const Node>;

class ConstructionScratch {
 public:
  ConstructionScratch() = default;
  ConstructionScratch(const ConstructionScratch&) = delete;
  ConstructionScratch& operator=(const ConstructionScratch&) = delete;

  /// Node storage for the realized paths of the current query.
  util::PathArena arena;

  /// Endpoint-fan solvers (exit fan / same-cluster paths, entry fan).
  graph::FanWorkspace exit_fan;
  graph::FanWorkspace entry_fan;

  /// The explicit Q_m cluster graph, built once per m and cached (the
  /// construction solves every fan on this same <= 32-node graph).
  [[nodiscard]] const graph::AdjacencyList& cluster_graph(unsigned m);

  /// The split flow network of cluster_graph(m), built once per m: the
  /// template every endpoint fan of this thread is solved on.
  [[nodiscard]] const graph::SplitNetwork& split_network(unsigned m);

  // --- reused query-local buffers (internal to the construction) ---------
  std::vector<unsigned> dims;             // differing X-dimensions
  std::vector<unsigned> route_words;      // flattened selected routes
  std::vector<std::pair<std::uint32_t, std::uint32_t>> route_spans;
  std::vector<graph::Vertex> exit_targets;
  std::vector<graph::Vertex> entry_sources;
  std::vector<PathRef> refs;              // the m+1 result spans

  struct RouteCandidate {
    std::size_t estimate;
    bool is_rotation;
    std::size_t index;  // rotation offset or detour dimension
  };
  std::vector<RouteCandidate> candidates;  // kBalanced ranking buffer

 private:
  std::array<std::optional<graph::AdjacencyList>, 7> cluster_graphs_;
  std::array<std::optional<graph::SplitNetwork>, 7> split_networks_;
};

/// This thread's construction scratch (function-local thread_local). The
/// legacy copying API and the batch query engine both route through it, so
/// repeated queries on one thread share warm storage automatically.
[[nodiscard]] ConstructionScratch& tls_construction_scratch();

}  // namespace hhc::core

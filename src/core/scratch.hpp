// Per-thread workspace for the allocation-free construction hot path.
//
// A single node_disjoint_paths query needs: the differing-dimension scan,
// the selected cluster routes, the endpoint fans or the same-cluster paths
// (both closed-form constructions in Q_m), and m+1 realized paths.
// ConstructionScratch owns warm storage for every one of those pieces; a
// query resets the arena, overwrites the buffers in place, and — once the
// scratch has seen one query of each shape — touches the heap exactly zero
// times (tests/test_allocation.cpp). The fans need no storage here: a
// cube::CubeFan holds its walks inline.
//
// Results are spans into the scratch (PathRef); they stay valid until the
// next query on the same scratch. Copy (materialize) before reusing it.
// Not thread-safe; batch drivers use tls_construction_scratch(), which
// hands each thread its own instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/topology.hpp"
#include "cube/cube_disjoint.hpp"
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

  /// The m disjoint Ys-Yt paths of a same-cluster query, in Q_m labels.
  cube::CubeDisjointScratch cluster_paths;

  // --- reused query-local buffers (internal to the construction) ---------
  std::vector<unsigned> dims;             // differing X-dimensions
  std::vector<unsigned> route_words;      // flattened selected routes
  std::vector<std::pair<std::uint32_t, std::uint32_t>> route_spans;
  std::vector<PathRef> refs;              // the m+1 result spans

  struct RouteCandidate {
    std::size_t estimate;
    bool is_rotation;
    std::size_t index;  // rotation offset or detour dimension
  };
  std::vector<RouteCandidate> candidates;  // kBalanced ranking buffer
};

/// This thread's construction scratch (function-local thread_local). The
/// legacy copying API and the batch query engine both route through it, so
/// repeated queries on one thread share warm storage automatically.
[[nodiscard]] ConstructionScratch& tls_construction_scratch();

}  // namespace hhc::core

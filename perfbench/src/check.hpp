// Answer checks. Every answer a timed phase returns is either checked
// here or is bit-identical (same walk fingerprint) to one that was.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "pairs.hpp"
#include "query/types.hpp"

namespace perfbench {

/// The container length bound 2^(m+1) + 2m + 3.
[[nodiscard]] inline std::size_t length_bound(unsigned m) noexcept {
  return (std::size_t{1} << (m + 1)) + 2 * m + 3;
}

/// Structural check of a pristine answer: exactly m+1 paths, each a simple
/// s-t path along HHC edges of length at most length_bound(m), pairwise
/// disjoint except at s and t. Returns "" when the answer passes, else the
/// first violation found.
template <class Paths>
[[nodiscard]] std::string check_container(const hhc::core::HhcTopology& net,
                                          Node s, Node t,
                                          const Paths& paths) {
  const unsigned m = net.m();
  if (paths.path_count() != m + 1) return "path count is not m+1";
  std::vector<Node> interior;
  std::size_t direct_edges = 0;
  for (std::size_t i = 0; i < paths.path_count(); ++i) {
    const std::size_t size = paths.path_size(i);
    if (size < 2) return "path shorter than one edge";
    if (size == 2 && ++direct_edges > 1) return "the s-t edge is used twice";
    if (paths.node(i, 0) != s || paths.node(i, size - 1) != t) {
      return "path does not run from s to t";
    }
    if (size - 1 > length_bound(m)) return "path exceeds the length bound";
    for (std::size_t j = 0; j + 1 < size; ++j) {
      if (!net.is_edge(paths.node(i, j), paths.node(i, j + 1))) {
        return "consecutive nodes are not an HHC edge";
      }
    }
    for (std::size_t j = 1; j + 1 < size; ++j) {
      interior.push_back(paths.node(i, j));
    }
  }
  std::sort(interior.begin(), interior.end());
  if (std::adjacent_find(interior.begin(), interior.end()) != interior.end()) {
    return "paths are not internally disjoint (or a path repeats a node)";
  }
  if (std::binary_search(interior.begin(), interior.end(), s) ||
      std::binary_search(interior.begin(), interior.end(), t)) {
    return "a path revisits an endpoint";
  }
  return {};
}

/// Bit-for-bit comparison with the construction, node_disjoint_paths.
[[nodiscard]] std::string check_exact(const hhc::core::HhcTopology& net,
                                      Node s, Node t,
                                      const std::vector<Path>& paths);

/// Checks a fault-aware answer (outcome kOk) against an oracle: a dead
/// endpoint must read disconnected; otherwise a surviving container path
/// must be delivered as kGuaranteed, and it must be the shortest survivor
/// (first on ties), as the router promises; with no survivor, a
/// kBestEffort answer must be a fault-free shortest s-t path and
/// kDisconnected must mean no fault-free path exists. `container` is
/// node_disjoint_paths(net, s, t).paths: it does not depend on the faults,
/// so a caller checking one pair under many fault models builds it once.
[[nodiscard]] std::string check_fault_answer(
    const hhc::core::HhcTopology& net, Node s, Node t,
    const std::vector<Path>& container, const hhc::core::FaultModel& faults,
    hhc::query::DegradationLevel level, const std::vector<Path>& paths);

/// Feeds deliberately corrupted answers through the checks above. Returns
/// the names of the corruptions that were NOT caught — empty means the
/// gate cannot pass vacuously.
[[nodiscard]] std::vector<std::string> gate_self_test(
    const hhc::core::HhcTopology& net);

}  // namespace perfbench

#include "check.hpp"

#include <deque>
#include <limits>

#include "core/disjoint.hpp"

namespace perfbench {

using hhc::core::FaultModel;
using hhc::core::HhcTopology;
using hhc::query::DegradationLevel;

namespace {

constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();

// Hop distance from s to t over fault-free edges; kUnreached when t cannot
// be reached. Written independently of the router's own fallback search.
std::size_t survivor_distance(const HhcTopology& net, Node s, Node t,
                              const FaultModel& faults) {
  std::vector<std::size_t> dist(net.node_count(), kUnreached);
  std::deque<Node> frontier{s};
  dist[s] = 0;
  while (!frontier.empty()) {
    const Node u = frontier.front();
    frontier.pop_front();
    if (u == t) return dist[u];
    for (const Node v : net.neighbors(u)) {
      if (dist[v] != kUnreached || !faults.edge_usable_at(u, v)) continue;
      dist[v] = dist[u] + 1;
      frontier.push_back(v);
    }
  }
  return kUnreached;
}

bool fault_free_path(const HhcTopology& net, const Path& path,
                     const FaultModel& faults) {
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    if (!net.is_edge(path[j], path[j + 1]) ||
        !faults.edge_usable_at(path[j], path[j + 1])) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string check_exact(const HhcTopology& net, Node s, Node t,
                        const std::vector<Path>& paths) {
  const hhc::core::DisjointPathSet expected =
      hhc::core::node_disjoint_paths(net, s, t);
  return expected.paths == paths
             ? std::string{}
             : std::string{"answer differs from node_disjoint_paths"};
}

std::string check_fault_answer(const HhcTopology& net, Node s, Node t,
                               const std::vector<Path>& container,
                               const FaultModel& faults,
                               DegradationLevel level,
                               const std::vector<Path>& paths) {
  if (faults.node_faulty_at(s) || faults.node_faulty_at(t)) {
    return level == DegradationLevel::kDisconnected && paths.empty()
               ? std::string{}
               : std::string{"a dead endpoint must read disconnected"};
  }
  const Path* survivor = nullptr;
  for (const Path& path : container) {
    if (!fault_free_path(net, path, faults)) continue;
    if (survivor == nullptr || path.size() < survivor->size()) {
      survivor = &path;
    }
  }
  if (survivor != nullptr) {
    if (level != DegradationLevel::kGuaranteed || paths.size() != 1 ||
        paths.front() != *survivor) {
      return "a container path survives: expected it as kGuaranteed";
    }
    return {};
  }
  const std::size_t distance = survivor_distance(net, s, t, faults);
  if (distance == kUnreached) {
    return level == DegradationLevel::kDisconnected && paths.empty()
               ? std::string{}
               : std::string{"no fault-free path exists: expected "
                             "kDisconnected"};
  }
  if (level != DegradationLevel::kBestEffort || paths.size() != 1) {
    return "container blocked but s-t connected: expected one kBestEffort "
           "path";
  }
  const Path& path = paths.front();
  if (path.empty() || path.front() != s || path.back() != t) {
    return "fallback path does not run from s to t";
  }
  if (!fault_free_path(net, path, faults)) {
    return "fallback path uses a faulty node or link";
  }
  if (path.size() - 1 != distance) return "fallback path is not shortest";
  return {};
}

std::vector<std::string> gate_self_test(const HhcTopology& net) {
  std::vector<std::string> missed;
  const Node s = 0;
  const Node t = net.node_count() - 1;
  const std::vector<Path> good = hhc::core::node_disjoint_paths(net, s, t).paths;
  const auto expect_caught = [&](const char* name,
                                 const std::vector<Path>& bad) {
    if (check_container(net, s, t, PathList{bad}).empty() &&
        check_exact(net, s, t, bad).empty()) {
      missed.emplace_back(name);
    }
  };
  if (!check_container(net, s, t, PathList{good}).empty() ||
      !check_exact(net, s, t, good).empty()) {
    missed.emplace_back("a correct container is rejected");
  }

  std::vector<Path> bad = good;
  bad.pop_back();
  expect_caught("missing path", bad);

  bad = good;
  bad[1] = bad[0];
  expect_caught("two paths share their interior", bad);

  bad = good;
  bad[0].back() ^= 1;
  expect_caught("wrong endpoint", bad);

  bad = good;
  bad[0][1] = net.node_count() / 2 + 1;
  expect_caught("non-edge hop", bad);

  bad = good;
  bad[0].insert(bad[0].begin() + 1, {bad[0][1], bad[0][0]});
  expect_caught("path revisits a node", bad);

  bad = good;
  std::swap(bad[0], bad[1]);
  if (check_exact(net, s, t, bad).empty()) {
    missed.emplace_back("reordered paths pass the bit-for-bit check");
  }

  // Fault-aware corruptions: block the shortest container path by failing
  // one of its interior nodes.
  const auto shortest = std::min_element(
      good.begin(), good.end(),
      [](const Path& a, const Path& b) { return a.size() < b.size(); });
  FaultModel faults;
  faults.fail_node((*shortest)[1]);
  if (check_fault_answer(net, s, t, good, faults,
                         DegradationLevel::kGuaranteed, {*shortest})
          .empty()) {
    missed.emplace_back("a route through a faulty node passes");
  }
  if (check_fault_answer(net, s, t, good, faults,
                         DegradationLevel::kDisconnected, {})
          .empty()) {
    missed.emplace_back("a false disconnected verdict passes");
  }
  return missed;
}

}  // namespace perfbench

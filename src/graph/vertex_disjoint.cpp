#include "graph/vertex_disjoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/dinic.hpp"

namespace hhc::graph {

namespace {

// Flow-network layout shared by all routines: vertex v occupies the pair
// (in(v), out(v)) = (2v, 2v+1); extra terminals are appended after 2V.
constexpr std::uint32_t in_node(Vertex v) { return 2 * v; }
constexpr std::uint32_t out_node(Vertex v) { return 2 * v + 1; }

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

// Maps each fan target to its result index, rejecting what the fan
// routines reject.
void index_targets(std::size_t n, Vertex s, std::span<const Vertex> targets,
                   std::vector<std::size_t>& slot_of) {
  if (s >= n) throw std::invalid_argument("fan: source out of range");
  slot_of.assign(n, kNoSlot);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Vertex t = targets[i];
    if (t >= n || t == s) throw std::invalid_argument("fan: bad target");
    if (slot_of[t] != kNoSlot) {
      throw std::invalid_argument("fan: duplicate target");
    }
    slot_of[t] = i;
  }
}

// The reference split network: in(v) -> out(v) for every v but the skipped
// ones, then out(v) -> in(u) per neighbor, vertex by vertex. SplitNetwork
// is flattened from the same arcs, so its arc order is this one.
void add_split_arcs(Dinic& net, const AdjacencyList& g, Vertex skip1,
                    Vertex skip2) {
  const auto n = static_cast<std::uint32_t>(g.vertex_count());
  for (Vertex v = 0; v < n; ++v) {
    if (v != skip1 && v != skip2) net.add_edge(in_node(v), out_node(v), 1);
    for (const Vertex u : g.neighbors(v)) {
      net.add_edge(out_node(v), in_node(u), 1);
    }
  }
}

// Decomposes a solved reference network into unit flows: each walk takes,
// node by node, the first flow-carrying forward arc no earlier walk used.
// With unit vertex capacities every walk is finite.
class FlowWalker {
 public:
  explicit FlowWalker(const Dinic& net) : net_{net}, used_(net.node_count()) {
    for (std::uint32_t v = 0; v < net.node_count(); ++v) {
      used_[v].assign(net.residual(v).size(), false);
    }
  }

  /// Flow-network nodes of one unit from `start` to `stop`, both included.
  std::vector<std::uint32_t> walk(std::uint32_t start, std::uint32_t stop) {
    std::vector<std::uint32_t> trail{start};
    std::uint32_t cur = start;
    while (cur != stop) {
      const auto& edges = net_.residual(cur);
      std::size_t i = 0;
      // Flow on a forward edge equals the residual of its reverse edge.
      while (i < edges.size() &&
             (!edges[i].is_forward || used_[cur][i] ||
              net_.residual(edges[i].to)[edges[i].rev].capacity <= 0)) {
        ++i;
      }
      if (i == edges.size()) {
        throw std::logic_error("flow decomposition: dead end (broken flow)");
      }
      used_[cur][i] = true;
      cur = edges[i].to;
      trail.push_back(cur);
    }
    return trail;
  }

 private:
  const Dinic& net_;
  std::vector<std::vector<bool>> used_;
};

}  // namespace

// ---------------------------------------------------------------------------
// SplitNetwork + FanWorkspace — the construction's fan solver
// ---------------------------------------------------------------------------

SplitNetwork::SplitNetwork(const AdjacencyList& g) {
  const auto n = static_cast<std::uint32_t>(g.vertex_count());
  const std::uint32_t sink = 2 * n;
  // The reference layout with every vertex open, then one closed sink arc
  // per vertex (the reference appends a target's sink arc after all split
  // arcs too), flattened node by node.
  Dinic reference{2 * std::size_t{n} + 1};
  add_split_arcs(reference, g, kNoVertex, kNoVertex);
  for (Vertex v = 0; v < n; ++v) reference.add_edge(out_node(v), sink, 0);

  first_.push_back(0);
  for (std::uint32_t node = 0; node <= sink; ++node) {
    first_.push_back(first_.back() + static_cast<std::uint32_t>(
                                         reference.residual(node).size()));
  }
  for (std::uint32_t node = 0; node <= sink; ++node) {
    for (const Dinic::Edge& e : reference.residual(node)) {
      to_.push_back(e.to);
      rev_.push_back(first_[e.to] + static_cast<std::uint32_t>(e.rev));
      forward_.push_back(e.is_forward ? 1 : 0);
      capacity_.push_back(static_cast<std::uint8_t>(e.capacity));
    }
  }
  const auto forward_arc = [&](std::uint32_t from, std::uint32_t head) {
    std::uint32_t arc = first_[from];
    while (forward_[arc] == 0 || to_[arc] != head) ++arc;
    return arc;
  };
  for (Vertex v = 0; v < n; ++v) {
    through_.push_back(forward_arc(in_node(v), out_node(v)));
    to_sink_.push_back(forward_arc(out_node(v), sink));
    degree_.push_back(static_cast<std::uint32_t>(g.degree(v)));
  }
}

// Dinic's phases on the flat arcs, stopped once `maximum` units flow: the
// augmenting paths are the reference's, minus the final failing search.
std::size_t FanWorkspace::max_flow(const SplitNetwork& net, std::uint32_t s,
                                   std::uint32_t t, std::size_t maximum) {
  std::size_t total = 0;
  while (total < maximum && build_levels(net, s, t)) {
    next_arc_.assign(net.first_.begin(), net.first_.end() - 1);
    while (total < maximum && augment(net, s, t)) ++total;
  }
  return total;
}

// BFS levels over arcs with residual capacity, ending once `t` is labelled:
// the nodes left unlabelled lie at t's level or beyond, where no
// augmenting path in the level graph can use them.
bool FanWorkspace::build_levels(const SplitNetwork& net, std::uint32_t s,
                                std::uint32_t t) {
  level_.assign(net.first_.size() - 1, -1);
  frontier_.clear();
  level_[s] = 0;
  frontier_.push_back(s);
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const std::uint32_t v = frontier_[head];
    for (std::uint32_t arc = net.first_[v]; arc < net.first_[v + 1]; ++arc) {
      const std::uint32_t w = net.to_[arc];
      if (residual_[arc] == 0 || level_[w] >= 0) continue;
      level_[w] = level_[v] + 1;
      if (w == t) return true;
      frontier_.push_back(w);
    }
  }
  return false;
}

// One unit along the level graph from the current arcs (every capacity is
// 0 or 1, so a found path carries exactly one unit).
bool FanWorkspace::augment(const SplitNetwork& net, std::uint32_t v,
                           std::uint32_t t) {
  if (v == t) return true;
  for (std::uint32_t& arc = next_arc_[v]; arc < net.first_[v + 1]; ++arc) {
    const std::uint32_t w = net.to_[arc];
    if (residual_[arc] == 0 || level_[w] != level_[v] + 1) continue;
    if (augment(net, w, t)) {
      --residual_[arc];
      ++residual_[net.rev_[arc]];
      return true;
    }
  }
  return false;
}

// Walks one unit of flow from `start` to `stop` along the first
// flow-carrying forward arc at each node, as FlowWalker does; a used arc's
// reverse residual (its flow) is zeroed instead of marked. Fills trail_
// with the vertices whose in-node the walk enters, `stop`'s included.
void FanWorkspace::walk_unit(const SplitNetwork& net, std::uint32_t start,
                             std::uint32_t stop) {
  trail_.clear();
  std::uint32_t cur = start;
  while (cur != stop) {
    std::uint32_t arc = net.first_[cur];
    const std::uint32_t end = net.first_[cur + 1];
    while (arc < end &&
           (net.forward_[arc] == 0 || residual_[net.rev_[arc]] == 0)) {
      ++arc;
    }
    if (arc == end) {
      throw std::logic_error("flow decomposition: dead end (broken flow)");
    }
    residual_[net.rev_[arc]] = 0;
    cur = net.to_[arc];
    if (cur % 2 == 0) trail_.push_back(cur / 2);
  }
}

VertexPath& FanWorkspace::slot(std::size_t i) {
  while (i >= paths_.size()) paths_.emplace_back();
  paths_[i].clear();
  return paths_[i];
}

std::span<const VertexPath> FanWorkspace::max_disjoint_paths(
    const SplitNetwork& net, Vertex s, Vertex t, std::size_t limit) {
  if (s >= net.vertex_count() || t >= net.vertex_count()) {
    throw std::invalid_argument("disjoint paths: vertex out of range");
  }
  if (s == t) throw std::invalid_argument("disjoint paths: s == t");

  residual_.assign(net.capacity_.begin(), net.capacity_.end());
  residual_[net.through_[s]] = 0;
  residual_[net.through_[t]] = 0;
  // No more than min(deg s, deg t) units can flow; the reference's capped
  // super source stops the same augmentation order after `limit` units.
  const std::size_t flow =
      max_flow(net, out_node(s), in_node(t),
               std::min({limit, net.degree(s), net.degree(t)}));

  for (std::size_t unit = 0; unit < flow; ++unit) {
    walk_unit(net, out_node(s), in_node(t));
    VertexPath& path = slot(unit);
    path.push_back(s);
    path.insert(path.end(), trail_.begin(), trail_.end());
  }
  return {paths_.data(), flow};
}

std::span<const VertexPath> FanWorkspace::fan(const SplitNetwork& net,
                                              Vertex s,
                                              std::span<const Vertex> targets) {
  const auto n = static_cast<std::uint32_t>(net.vertex_count());
  index_targets(n, s, targets, target_slot_);
  if (targets.empty()) return {};

  residual_.assign(net.capacity_.begin(), net.capacity_.end());
  residual_[net.through_[s]] = 0;
  for (const Vertex t : targets) residual_[net.to_sink_[t]] = 1;
  const std::uint32_t sink = 2 * n;
  if (max_flow(net, out_node(s), sink, targets.size()) != targets.size()) {
    throw std::runtime_error("vertex_disjoint_fan: no complete fan exists");
  }

  for (std::size_t unit = 0; unit < targets.size(); ++unit) {
    walk_unit(net, out_node(s), sink);
    trail_.pop_back();  // the sink's "vertex" n
    // The endpoint (last real vertex before the sink) names the result slot.
    VertexPath& path = slot(target_slot_[trail_.back()]);
    path.push_back(s);
    path.insert(path.end(), trail_.begin(), trail_.end());
  }
  return {paths_.data(), targets.size()};
}

std::span<const VertexPath> FanWorkspace::reverse_fan(
    const SplitNetwork& net, std::span<const Vertex> sources, Vertex t) {
  // Reuse the forward fan on the same (undirected) graph and reverse paths.
  const auto fans = fan(net, t, sources);
  for (std::size_t i = 0; i < fans.size(); ++i) {
    std::reverse(paths_[i].begin(), paths_[i].end());
  }
  return fans;
}

// ---------------------------------------------------------------------------
// Reference implementations: a fresh graph::Dinic network per call
// ---------------------------------------------------------------------------

std::vector<VertexPath> max_vertex_disjoint_paths(const AdjacencyList& g,
                                                  Vertex s, Vertex t,
                                                  std::size_t limit) {
  if (s >= g.vertex_count() || t >= g.vertex_count()) {
    throw std::invalid_argument("disjoint paths: vertex out of range");
  }
  if (s == t) throw std::invalid_argument("disjoint paths: s == t");

  const auto n = static_cast<std::uint32_t>(g.vertex_count());
  const bool capped = limit < g.degree(s);
  const std::uint32_t super = 2 * n;  // only used when capped
  Dinic net{2 * std::size_t{n} + (capped ? 1u : 0u)};
  add_split_arcs(net, g, s, t);
  std::uint32_t source = out_node(s);
  if (capped) {
    net.add_edge(super, out_node(s), static_cast<std::int64_t>(limit));
    source = super;
  }
  const std::int64_t flow = net.max_flow(source, in_node(t));

  FlowWalker walker{net};
  std::vector<VertexPath> paths(static_cast<std::size_t>(flow));
  for (VertexPath& path : paths) {
    path.push_back(s);
    for (const std::uint32_t node : walker.walk(out_node(s), in_node(t))) {
      if (node != out_node(s) && node % 2 == 0) path.push_back(node / 2);
    }
  }
  return paths;
}

std::size_t vertex_connectivity_between(const AdjacencyList& g, Vertex s,
                                        Vertex t) {
  if (s == t) throw std::invalid_argument("connectivity: s == t");
  Dinic net{2 * g.vertex_count()};
  add_split_arcs(net, g, s, t);
  return static_cast<std::size_t>(net.max_flow(out_node(s), in_node(t)));
}

std::vector<VertexPath> vertex_disjoint_fan(const AdjacencyList& g, Vertex s,
                                            std::span<const Vertex> targets) {
  const auto n = static_cast<std::uint32_t>(g.vertex_count());
  std::vector<std::size_t> slot_of;
  index_targets(n, s, targets, slot_of);
  if (targets.empty()) return {};

  const std::uint32_t sink = 2 * n;
  Dinic net{2 * std::size_t{n} + 1};
  add_split_arcs(net, g, s, s);
  for (const Vertex t : targets) net.add_edge(out_node(t), sink, 1);
  if (net.max_flow(out_node(s), sink) !=
      static_cast<std::int64_t>(targets.size())) {
    throw std::runtime_error("vertex_disjoint_fan: no complete fan exists");
  }

  FlowWalker walker{net};
  std::vector<VertexPath> paths(targets.size());
  for (std::size_t unit = 0; unit < targets.size(); ++unit) {
    const auto trail = walker.walk(out_node(s), sink);
    // The trail ends in(t), out(t), sink: t names the result slot.
    VertexPath& path = paths[slot_of[trail[trail.size() - 2] / 2]];
    path.push_back(s);
    for (const std::uint32_t node : trail) {
      if (node != out_node(s) && node != sink && node % 2 == 0) {
        path.push_back(node / 2);
      }
    }
  }
  return paths;
}

std::vector<VertexPath> vertex_disjoint_reverse_fan(
    const AdjacencyList& g, std::span<const Vertex> sources, Vertex t) {
  std::vector<VertexPath> paths = vertex_disjoint_fan(g, t, sources);
  for (VertexPath& path : paths) std::reverse(path.begin(), path.end());
  return paths;
}

std::vector<VertexPath> set_to_set_disjoint_paths(
    const AdjacencyList& g, std::span<const Vertex> sources,
    std::span<const Vertex> sinks) {
  const std::uint32_t n = static_cast<std::uint32_t>(g.vertex_count());
  std::vector<std::size_t> source_slot(n, kNoSlot);
  std::vector<std::size_t> sink_slot(n, kNoSlot);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] >= n) throw std::invalid_argument("set-to-set: bad source");
    if (source_slot[sources[i]] != kNoSlot) {
      throw std::invalid_argument("set-to-set: duplicate source");
    }
    source_slot[sources[i]] = i;
  }
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (sinks[i] >= n) throw std::invalid_argument("set-to-set: bad sink");
    if (sink_slot[sinks[i]] != kNoSlot) {
      throw std::invalid_argument("set-to-set: duplicate sink");
    }
    sink_slot[sinks[i]] = i;
  }
  if (sources.empty() || sinks.empty()) return {};

  // Every vertex (endpoints included) carries unit capacity: total
  // disjointness. Super source feeds each source's in-node; each sink's
  // out-node drains to the super sink, so a path consumes its endpoints.
  const std::uint32_t super_s = 2 * n;
  const std::uint32_t super_t = 2 * n + 1;
  Dinic net{2 * std::size_t{n} + 2};
  add_split_arcs(net, g, kNoVertex, kNoVertex);
  for (const Vertex s : sources) net.add_edge(super_s, in_node(s), 1);
  for (const Vertex t : sinks) net.add_edge(out_node(t), super_t, 1);

  const std::int64_t flow = net.max_flow(super_s, super_t);

  FlowWalker walker{net};
  std::vector<VertexPath> paths(static_cast<std::size_t>(flow));
  for (VertexPath& path : paths) {
    for (const std::uint32_t node : walker.walk(super_s, super_t)) {
      if (node != super_s && node != super_t && node % 2 == 0) {
        path.push_back(node / 2);
      }
    }
  }
  return paths;
}

}  // namespace hhc::graph

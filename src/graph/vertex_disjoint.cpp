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

// The split network: in(v) -> out(v) for every v but the skipped ones, then
// out(v) -> in(u) per neighbor, vertex by vertex.
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

// Decomposes a solved network into unit flows: each walk takes,
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

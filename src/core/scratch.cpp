#include "core/scratch.hpp"

#include <stdexcept>

#include "cube/hypercube.hpp"

namespace hhc::core {

const graph::AdjacencyList& ConstructionScratch::cluster_graph(unsigned m) {
  if (m >= cluster_graphs_.size()) {
    throw std::invalid_argument("ConstructionScratch: m out of range");
  }
  auto& slot = cluster_graphs_[m];
  if (!slot.has_value()) slot.emplace(cube::Hypercube{m}.explicit_graph());
  return *slot;
}

const graph::SplitNetwork& ConstructionScratch::split_network(unsigned m) {
  const graph::AdjacencyList& graph = cluster_graph(m);
  auto& slot = split_networks_[m];
  if (!slot.has_value()) slot.emplace(graph);
  return *slot;
}

ConstructionScratch& tls_construction_scratch() {
  thread_local ConstructionScratch scratch;
  return scratch;
}

}  // namespace hhc::core

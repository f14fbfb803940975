// Experiment T2 — lengths of the m+1 node-disjoint paths per m.
//
// For every m this regenerates the paper's central table: the maximal and
// average container length over node pairs (exhaustive for m <= 2, sampled
// above), compared against the network diameter and the constructive bound
// 2^m + k + 4m + 4 (each endpoint fan walk has at most m + 1 hops;
// docs/ALGORITHM.md derives it). The observed maximum over all pairs
// upper-bounds the (m+1)-wide diameter.
#include <algorithm>
#include <iostream>

#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "graph/brute_force.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace hhc;
  util::ThreadPool pool;

  util::Table table{{"m", "pairs", "coverage", "avg-longest", "max-longest",
                     "avg-mean", "diameter", "bound(2^m+2^m+4m+4)"}};

  for (unsigned m = 1; m <= 5; ++m) {
    const core::HhcTopology net{m};
    std::vector<core::PairSample> pairs;
    const char* coverage = "sampled";
    if (m <= 2) {
      for (core::Node s = 0; s < net.node_count(); ++s) {
        for (core::Node t = 0; t < net.node_count(); ++t) {
          if (s != t) pairs.push_back({s, t});
        }
      }
      coverage = "exhaustive";
    } else {
      pairs = core::sample_pairs(net, 2000, /*seed=*/1234);
    }

    const auto measures = core::measure_containers(net, pairs, &pool);
    std::size_t max_longest = 0;
    double sum_longest = 0;
    double sum_mean = 0;
    for (const auto& meas : measures) {
      max_longest = std::max(max_longest, meas.longest);
      sum_longest += static_cast<double>(meas.longest);
      sum_mean += meas.average;
    }
    const double n = static_cast<double>(measures.size());
    const unsigned diameter = net.theoretical_diameter();
    // Worst-case constructive bound with k = 2^m.
    const std::size_t bound = 2ull * net.cluster_dimensions() + 4 * m + 4;

    table.row()
        .add(static_cast<int>(m))
        .add(pairs.size())
        .add(coverage)
        .add(sum_longest / n, 2)
        .add(max_longest)
        .add(sum_mean / n, 2)
        .add(static_cast<int>(diameter))
        .add(bound);
  }
  table.print(std::cout,
              "T2: node-disjoint container lengths (upper-bounds the "
              "(m+1)-wide diameter)");
  std::cout << "\nExpected shape: max-longest stays within a small additive "
               "margin of the diameter\n(wide diameter ~ diameter + O(m)), "
               "far below the worst-case bound column.\n";

  // Exactness check at m = 1 (8 nodes): brute-force the optimal container
  // per pair and compare with the construction.
  {
    const core::HhcTopology net{1};
    const auto g = net.explicit_graph();
    std::size_t optimal_wd = 0;
    std::size_t constructed_wd = 0;
    for (core::Node s = 0; s < net.node_count(); ++s) {
      for (core::Node t = 0; t < net.node_count(); ++t) {
        if (s == t) continue;
        const auto opt = graph::optimal_container_max_length(
            g, static_cast<graph::Vertex>(s), static_cast<graph::Vertex>(t),
            net.degree(), net.node_count());
        optimal_wd = std::max(optimal_wd, *opt);
        constructed_wd = std::max(
            constructed_wd, core::node_disjoint_paths(net, s, t).max_length());
      }
    }
    std::cout << "\nExactness (m=1, brute force over all containers): "
                 "optimal 2-wide diameter = "
              << optimal_wd << ", constructed = " << constructed_wd
              << (optimal_wd == constructed_wd ? " -> construction is TIGHT"
                                               : "")
              << '\n';
  }
  return 0;
}

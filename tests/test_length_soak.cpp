// Container-length soak: the longest path over every m = 4 container, and
// over a large m = 5 sample, may not grow past what the max-flow endpoint
// fans produced.
//
// The cache keys containers by (Xs ^ Xt, Ys, Yt), and the construction
// commutes with XOR-translating clusters, so the pairs with the source in
// cluster 0 stand for every container: 2^16 * 16 * 16 - 16 = 16.7M keys at
// m = 4. Each container must hold m + 1 paths from s to t along HHC edges,
// pairwise sharing no node but s and t. The longest path may be at most
// 2^(m+1) + 2m + 3 = 43 hops; the max-flow fans reached exactly 43, in 7
// containers. At m = 5, one million seeded pairs must stay at or below the
// 72 hops the max-flow fans read on the same sample.
//
// Four threads split the work; about 15 s on a 4-core Xeon, most of it
// spent in the checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "core/disjoint.hpp"
#include "core/metrics.hpp"
#include "core/scratch.hpp"

namespace hhc::core {
namespace {

constexpr unsigned kThreads = 4;

// The interior nodes of one container: an open-addressing set that a
// generation stamp empties in O(1).
class NodeSet {
 public:
  static constexpr std::size_t kCapacity = 2048;

  void clear() { ++generation_; }
  // False when `v` is already in the set.
  bool insert(Node v) {
    std::size_t slot = (v * 0x9E3779B97F4A7C15ULL) >> 53;  // top 11 bits
    while (stamp_[slot] == generation_) {
      if (node_[slot] == v) return false;
      slot = (slot + 1) % kCapacity;
    }
    stamp_[slot] = generation_;
    node_[slot] = v;
    return true;
  }

 private:
  std::array<Node, kCapacity> node_{};
  std::array<std::uint32_t, kCapacity> stamp_{};
  std::uint32_t generation_ = 0;
};

// Checks one container and returns its longest path; returns 0 when a
// structural property fails.
std::size_t checked_longest(const HhcTopology& net, Node s, Node t,
                            ConstructionScratch& scratch, NodeSet& seen) {
  const DisjointPathSetRef set = node_disjoint_paths(net, s, t, {}, scratch);
  if (set.paths.size() != net.degree()) return 0;
  std::size_t nodes = 0;
  for (const PathRef path : set.paths) nodes += path.size();
  if (nodes > NodeSet::kCapacity / 2) return 0;  // keep the set sparse
  seen.clear();
  std::size_t longest = 0;
  for (const PathRef path : set.paths) {
    if (path.front() != s || path.back() != t) return 0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (!net.is_edge(path[i - 1], path[i])) return 0;
      if (i + 1 < path.size() && !seen.insert(path[i])) return 0;
    }
    longest = std::max(longest, path.size() - 1);
  }
  return longest;
}

struct Tally {
  std::size_t longest = 0;
  std::size_t at_longest = 0;
  std::size_t broken = 0;
  std::size_t containers = 0;

  void add(std::size_t length) {
    ++containers;
    if (length == 0) {
      ++broken;
    } else if (length > longest) {
      longest = length;
      at_longest = 1;
    } else if (length == longest) {
      ++at_longest;
    }
  }
  void merge(const Tally& other) {
    containers += other.containers;
    broken += other.broken;
    if (other.longest > longest) {
      longest = other.longest;
      at_longest = other.at_longest;
    } else if (other.longest == longest) {
      at_longest += other.at_longest;
    }
  }
};

// Runs work(thread, tally) on kThreads threads and merges the tallies.
template <typename Work>
Tally run_split(const Work& work) {
  std::array<Tally, kThreads> tallies{};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] { work(w, tallies[w]); });
  }
  for (std::thread& thread : threads) thread.join();
  Tally total;
  for (const Tally& tally : tallies) total.merge(tally);
  return total;
}

TEST(LengthSoak, EveryM4KeyWithinTheLengthBound) {
  const HhcTopology net{4};
  const std::uint64_t positions = net.cluster_size();
  const Tally total = run_split([&](unsigned w, Tally& tally) {
    ConstructionScratch scratch;
    NodeSet seen;
    for (std::uint64_t x = w; x < net.cluster_count(); x += kThreads) {
      for (std::uint64_t ys = 0; ys < positions; ++ys) {
        for (std::uint64_t yt = 0; yt < positions; ++yt) {
          if (x == 0 && ys == yt) continue;
          const Node s = net.encode(0, ys);
          const Node t = net.encode(x, yt);
          tally.add(checked_longest(net, s, t, scratch, seen));
        }
      }
    }
  });
  EXPECT_EQ(total.containers, net.cluster_count() * positions * positions -
                                  positions);
  EXPECT_EQ(total.broken, 0u);
  EXPECT_LE(total.longest, 43u) << total.at_longest << " containers";
  std::cout << "m=4 all keys: longest " << total.longest << " in "
            << total.at_longest << " containers\n";
}

TEST(LengthSoak, SampledM5NoLongerThanTheMaxflowFans) {
  const HhcTopology net{5};
  const auto pairs = sample_pairs(net, 1'000'000, 0x50AC);
  const Tally total = run_split([&](unsigned w, Tally& tally) {
    ConstructionScratch scratch;
    NodeSet seen;
    for (std::size_t i = w; i < pairs.size(); i += kThreads) {
      tally.add(checked_longest(net, pairs[i].s, pairs[i].t, scratch, seen));
    }
  });
  EXPECT_EQ(total.containers, pairs.size());
  EXPECT_EQ(total.broken, 0u);
  EXPECT_LE(total.longest, 72u) << total.at_longest << " containers";
  std::cout << "m=5 sample: longest " << total.longest << " in "
            << total.at_longest << " containers\n";
}

}  // namespace
}  // namespace hhc::core

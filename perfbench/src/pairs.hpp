// Seeded query inputs and the answer walk shared by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/container_cache.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hhc::core::Node;
using hhc::core::Path;

struct Pair {
  Node s = 0;
  Node t = 0;
};

/// Derives an independent generator for one consumer of a run's seed.
[[nodiscard]] hhc::util::Xoshiro256 stream_rng(std::uint64_t seed,
                                               std::uint64_t stream);

/// The container cache keys a pair by (Xs ^ Xt, Ys, Yt): two pairs with
/// the same key share one cached container.
[[nodiscard]] std::uint64_t canonical_key(const hhc::core::HhcTopology& net,
                                          Node s, Node t);

/// `count` uniform pairs with s != t and pairwise-distinct canonical keys,
/// so a pool of n pairs occupies exactly n cache entries.
[[nodiscard]] std::vector<Pair> make_pool(const hhc::core::HhcTopology& net,
                                          std::size_t count,
                                          hhc::util::Xoshiro256& rng);

/// An endless stream of pairs whose canonical keys are distinct from every
/// other pair of this stream AND of its sibling streams (stream k of n
/// visits key indices k, k+n, k+2n, ... through a seeded bijection of the
/// key space), so each pair is a guaranteed cache miss. The first
/// `prefetch` pairs are generated up front (set-up work) and handed out
/// before the stream continues generating on demand.
class FreshStream {
 public:
  FreshStream(const hhc::core::HhcTopology& net, std::uint64_t seed,
              unsigned index, unsigned count, std::size_t prefetch = 0);
  [[nodiscard]] Pair next();

 private:
  [[nodiscard]] Pair generate();
  [[nodiscard]] std::uint64_t permute(std::uint64_t x) const noexcept;

  const hhc::core::HhcTopology& net_;
  hhc::util::Xoshiro256 rng_;
  unsigned bits_;
  std::uint64_t mask_;
  std::uint64_t mul_a_;
  std::uint64_t mul_b_;
  std::uint64_t add_;
  std::uint64_t next_index_;
  std::uint64_t step_;
  std::vector<Pair> prefetched_;
  std::size_t taken_ = 0;
};

/// Adapters giving an owning path list and the construction's borrowed
/// result the ContainerHandle accessors, so one walk and one check serve
/// every layer's answer type.
struct PathList {
  const std::vector<Path>& paths;
  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths.size();
  }
  [[nodiscard]] std::size_t path_size(std::size_t i) const noexcept {
    return paths[i].size();
  }
  [[nodiscard]] Node node(std::size_t i, std::size_t j) const noexcept {
    return paths[i][j];
  }
};

struct RefList {
  std::span<const hhc::core::PathRef> paths;
  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths.size();
  }
  [[nodiscard]] std::size_t path_size(std::size_t i) const noexcept {
    return paths[i].size();
  }
  [[nodiscard]] Node node(std::size_t i, std::size_t j) const noexcept {
    return paths[i][j];
  }
};

/// Walks every node of every path in order — what a client does with an
/// answer — folding them into a 64-bit fingerprint. Equal fingerprints
/// mean bit-identical answers (up to a 2^-64 collision).
template <class Paths>
[[nodiscard]] std::uint64_t walk(const Paths& paths) noexcept {
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < paths.path_count(); ++i) {
    const std::size_t size = paths.path_size(i);
    for (std::size_t j = 0; j < size; ++j) {
      fp = (fp ^ paths.node(i, j)) * 0x100000001b3ULL;
    }
    fp = (fp ^ 0x9e3779b97f4a7c15ULL) * 0x100000001b3ULL;
  }
  return fp;
}

}  // namespace perfbench

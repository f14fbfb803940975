#include "pairs.hpp"

#include <stdexcept>
#include <unordered_set>

namespace perfbench {

using hhc::core::HhcTopology;

hhc::util::Xoshiro256 stream_rng(std::uint64_t seed, std::uint64_t stream) {
  hhc::util::SplitMix64 mix{seed ^ (stream * 0xd1b54a32d192ed03ULL)};
  return hhc::util::Xoshiro256{mix.next()};
}

std::uint64_t canonical_key(const HhcTopology& net, Node s, Node t) {
  const unsigned m = net.m();
  const std::uint64_t xdiff = net.cluster_of(s) ^ net.cluster_of(t);
  return (xdiff << (2 * m)) | (net.position_of(t) << m) | net.position_of(s);
}

std::vector<Pair> make_pool(const HhcTopology& net, std::size_t count,
                            hhc::util::Xoshiro256& rng) {
  std::vector<Pair> pool;
  pool.reserve(count);
  std::unordered_set<std::uint64_t> keys;
  while (pool.size() < count) {
    const Node s = rng.below(net.node_count());
    const Node t = rng.below(net.node_count());
    if (s == t || !keys.insert(canonical_key(net, s, t)).second) continue;
    pool.push_back({s, t});
  }
  return pool;
}

FreshStream::FreshStream(const HhcTopology& net, std::uint64_t seed,
                         unsigned index, unsigned count,
                         std::size_t prefetch)
    : net_{net},
      rng_{stream_rng(seed, 0x5eed0000ULL + index)},
      bits_{net.cluster_dimensions() + 2 * net.m()},
      mask_{(std::uint64_t{1} << bits_) - 1},
      next_index_{index},
      step_{count} {
  hhc::util::Xoshiro256 shape = stream_rng(seed, 0xb1ec7);
  mul_a_ = shape() | 1;  // odd multipliers are invertible mod 2^bits
  mul_b_ = shape() | 1;
  add_ = shape();
  prefetched_.reserve(prefetch);
  while (prefetched_.size() < prefetch) prefetched_.push_back(generate());
}

std::uint64_t FreshStream::permute(std::uint64_t x) const noexcept {
  // Every step is a bijection on bits_-bit words, so distinct indices map
  // to distinct keys.
  x = (x * mul_a_) & mask_;
  x ^= x >> (bits_ / 2);
  x = (x * mul_b_ + add_) & mask_;
  x ^= x >> (bits_ / 3 + 1);
  return x;
}

Pair FreshStream::next() {
  return taken_ < prefetched_.size() ? prefetched_[taken_++] : generate();
}

Pair FreshStream::generate() {
  const unsigned m = net_.m();
  for (;;) {
    if (next_index_ > mask_) {
      throw std::runtime_error("FreshStream: key space exhausted");
    }
    const std::uint64_t key = permute(next_index_);
    next_index_ += step_;
    const std::uint64_t ys = key & hhc::bits::low_mask(m);
    const std::uint64_t yt = (key >> m) & hhc::bits::low_mask(m);
    const std::uint64_t xdiff = key >> (2 * m);
    if (xdiff == 0 && ys == yt) continue;  // s == t
    const std::uint64_t xs = rng_.below(net_.cluster_count());
    return {net_.encode(xs, ys), net_.encode(xs ^ xdiff, yt)};
  }
}

}  // namespace perfbench

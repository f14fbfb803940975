#include "core/container_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/io.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"

namespace hhc::core {

std::vector<StatRow> CacheStats::rows() const {
  std::vector<StatRow> rows;
  rows.reserve(5 + 2 * shards.size());
  rows.push_back(stat_scalar("cache", "entries", std::uint64_t{entries}));
  rows.push_back(stat_scalar("cache", "hits", std::uint64_t{hits}));
  rows.push_back(stat_scalar("cache", "misses", std::uint64_t{misses}));
  rows.push_back(stat_scalar("cache", "evictions", std::uint64_t{evictions}));
  rows.push_back(stat_scalar("cache", "hit_rate", hit_rate()));
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string section = "cache.shard" + std::to_string(i);
    rows.push_back(
        stat_scalar(section, "entries", std::uint64_t{shards[i].entries}));
    rows.push_back(
        stat_scalar(section, "evictions", std::uint64_t{shards[i].evictions}));
  }
  return rows;
}

namespace {

constexpr std::size_t kNoVictim = static_cast<std::size_t>(-1);
// Index load-factor ceiling (the probe-length / memory trade): an insert
// that would push occupancy past it grows the cloned table to the next
// power of two. An uncapped shard's first index has kInitialSlots slots.
constexpr std::size_t kMaxLoadPercent = 50;
constexpr std::size_t kInitialSlots = 16;

}  // namespace

ContainerCache::ContainerCache(const HhcTopology& net)
    : ContainerCache(net, Config{}) {}

ContainerCache::ContainerCache(const HhcTopology& net, Config config)
    : net_{net}, config_{config} {
  const std::size_t requested = config_.shards == 0 ? 1 : config_.shards;
  shards_.resize(std::bit_ceil(requested));
  // Each shard gets its own decorrelated eviction stream: deterministic
  // per (seed, shard index), independent across shards.
  util::SplitMix64 seeder{config_.eviction_seed};
  // A capped shard's index plateaus at the cap; size it to hold the cap
  // within the load ceiling up front so such shards never grow at all.
  const std::size_t cap = config_.max_entries_per_shard;
  const std::size_t capped_slots =
      cap == 0 ? 0 : std::bit_ceil(cap * 100 / kMaxLoadPercent + 1);
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>();
    shard->eviction_rng = util::Xoshiro256{seeder.next()};
    if (capped_slots > 0) {
      // Pre-publish an empty pre-sized index. (Construction is
      // single-threaded; the version bump still marks this as publication
      // number one so readers' zero-stamped TLS entries refresh onto it.)
      auto index = std::make_shared<ShardIndex>();
      index->slots.resize(capped_slots);
      shard->index = std::move(index);
      shard->version.store(1, std::memory_order_release);
    }
  }
}

std::uint64_t ContainerCache::next_shard_id() noexcept {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const ContainerCache::ShardIndex* ContainerCache::snapshot(Shard& shard) {
  struct Entry {
    std::uint64_t version = 0;
    std::shared_ptr<const ShardIndex> index;
  };
  thread_local std::vector<Entry> tls_pins;
  if (shard.id >= tls_pins.size()) tls_pins.resize(shard.id + 1);
  Entry& entry = tls_pins[shard.id];
  // Fresh TLS entries carry stamp 0, matching the never-published state's
  // null index, so the no-publications-yet case needs no refresh either.
  const std::uint64_t version = shard.version.load(std::memory_order_acquire);
  if (entry.version != version) {
    std::lock_guard lock{shard.mutex};
    entry.index = shard.index;
    // Re-read under the lock: a publication that slipped in since the
    // check above must not leave a stale stamp pinned to the new index.
    entry.version = shard.version.load(std::memory_order_relaxed);
  }
  return entry.index.get();
}

std::size_t ContainerHandle::max_length() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 0; i < path_count(); ++i) {
    best = std::max(best, path_size(i) - 1);
  }
  return best;
}

Path ContainerHandle::materialize_path(std::size_t i) const {
  Path path;
  path.reserve(path_size(i));
  for (std::size_t j = 0; j < path_size(i); ++j) path.push_back(node(i, j));
  return path;
}

DisjointPathSet ContainerHandle::materialize() const {
  DisjointPathSet set;
  set.paths.reserve(path_count());
  for (std::size_t i = 0; i < path_count(); ++i) {
    set.paths.push_back(materialize_path(i));
  }
  return set;
}

void ContainerCache::ShardIndex::insert(
    const Key& key, std::shared_ptr<const FlatContainer> value) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = KeyHash{}(key) & mask;
  while (slots[i].value != nullptr) i = (i + 1) & mask;
  slots[i].key = key;
  slots[i].value = std::move(value);
  ++size;
}

std::shared_ptr<ContainerCache::ShardIndex const> ContainerCache::rebuild_index(
    const ShardIndex* old, std::size_t victim, const Key& key,
    std::shared_ptr<const FlatContainer> value) const {
  const std::size_t old_size = old == nullptr ? 0 : old->size;
  const std::size_t entries = old_size - (victim != kNoVictim ? 1 : 0) + 1;
  std::size_t capacity = old != nullptr && !old->slots.empty()
                             ? old->slots.size()
                             : kInitialSlots;
  while (entries * 100 > capacity * kMaxLoadPercent) capacity <<= 1;

  auto next = std::make_shared<ShardIndex>();
  next->slots.resize(capacity);
  if (old != nullptr) {
    std::size_t ordinal = 0;
    for (const ShardIndex::Slot& slot : old->slots) {
      if (slot.value == nullptr) continue;
      if (ordinal++ == victim) continue;  // evicted
      next->insert(slot.key, slot.value);
    }
  }
  next->insert(key, std::move(value));
  return next;
}

ContainerHandle ContainerCache::lookup(Node s, Node t) {
  return lookup(s, t, config_.options);
}

ContainerHandle ContainerCache::lookup(Node s, Node t,
                                       const ConstructionOptions& options,
                                       bool* cache_hit) {
  if (!net_.contains(s) || !net_.contains(t)) {
    throw std::invalid_argument("ContainerCache: node out of range");
  }
  if (s == t) throw std::invalid_argument("ContainerCache: s == t");

  const std::uint64_t xs = net_.cluster_of(s);
  const Key key{xs ^ net_.cluster_of(t), net_.position_of(s),
                net_.position_of(t), static_cast<std::uint8_t>(options.ordering),
                static_cast<std::uint8_t>(options.selection)};
  Shard& shard = *shards_[KeyHash{}(key) & (shards_.size() - 1)];
  // In the packed encoding, relabeling every node's cluster by xs is one
  // XOR with (xs << m) — the handle applies it lazily.
  const Node mask = xs << net_.m();

  // THE hot path: validate this thread's pinned snapshot and probe it. No
  // mutex, no shared write (the version check is a read; the hit counter
  // is a thread-private cell), no span (the enclosing answer/answer_view
  // span times hits; keeping the hit path span-free is what holds
  // enabled-tracing overhead under 5%).
  if (const ShardIndex* index = snapshot(shard)) {
    if (const auto* found = index->find(key)) {
      hits_.add();
      if (cache_hit != nullptr) *cache_hit = true;
      return ContainerHandle{*found, mask};
    }
  }

  // Miss: run the (expensive, deterministic) construction without holding
  // any lock, then build-and-swap a new index under the writer mutex. A
  // racing thread may have published the key meanwhile; its result is
  // byte-for-byte the same, so the first publication wins and the
  // duplicate work is discarded.
  misses_.add();
  if (cache_hit != nullptr) *cache_hit = false;
  std::shared_ptr<const FlatContainer> flat;
  {
    static obs::Histogram& construct_hist =
        obs::stage_histogram(obs::stages::kConstruct);
    obs::TraceSpan span{obs::stages::kConstruct, &construct_hist};
    const Node cs = net_.encode(0, key.ys);
    const Node ct = net_.encode(key.xdiff, key.yt);
    const DisjointPathSetRef canonical =
        node_disjoint_paths(net_, cs, ct, options, tls_construction_scratch());
    auto built = std::make_shared<FlatContainer>();
    built->offsets.reserve(canonical.paths.size() + 1);
    built->offsets.push_back(0);
    std::size_t total = 0;
    for (const PathRef p : canonical.paths) total += p.size();
    built->nodes.reserve(total);
    for (const PathRef p : canonical.paths) {
      built->nodes.insert(built->nodes.end(), p.begin(), p.end());
      built->offsets.push_back(static_cast<std::uint32_t>(built->nodes.size()));
    }
    flat = std::move(built);
  }

  static obs::Histogram& publish_hist =
      obs::stage_histogram(obs::stages::kCachePublish);
  obs::TraceSpan span{obs::stages::kCachePublish, &publish_hist};
  std::lock_guard lock{shard.mutex};
  const ShardIndex* current = shard.index.get();
  if (current != nullptr) {
    if (const auto* found = current->find(key)) {
      // Lost the publication race; serve the winner's identical entry.
      // (This thread's TLS pin refreshes on its next lookup here.)
      return ContainerHandle{*found, mask};
    }
  }
  std::size_t victim = kNoVictim;
  if (config_.max_entries_per_shard > 0 && current != nullptr &&
      current->size >= config_.max_entries_per_shard) {
    // Random replacement, for real: a uniformly random resident entry from
    // the shard's seeded stream (selected by occupied-slot ordinal, so the
    // choice is deterministic per seed). The O(capacity) clone below is
    // noise next to the construction this miss just performed.
    victim = shard.eviction_rng.below(current->size);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  std::shared_ptr<const ShardIndex> next =
      rebuild_index(current, victim, key, std::move(flat));
  const auto* inserted = next->find(key);
  shard.index = std::move(next);
  shard.version.fetch_add(1, std::memory_order_release);
  return ContainerHandle{*inserted, mask};
}

std::size_t ContainerCache::evictions() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->evictions.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t ContainerCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock{shard->mutex};
    if (shard->index != nullptr) total += shard->index->size;
  }
  return total;
}

CacheStats ContainerCache::stats() const {
  CacheStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    CacheShardStats row;
    {
      std::lock_guard lock{shard->mutex};
      if (shard->index != nullptr) row.entries = shard->index->size;
    }
    row.evictions = shard->evictions.load(std::memory_order_relaxed);
    stats.entries += row.entries;
    stats.evictions += row.evictions;
    stats.shards.push_back(row);
  }
  stats.hits = hits_.fold();
  stats.misses = misses_.fold();
  return stats;
}

void ContainerCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard lock{shard->mutex};
    shard->index = nullptr;
    shard->evictions.store(0, std::memory_order_relaxed);
    shard->version.fetch_add(1, std::memory_order_release);
  }
  hits_.reset();
  misses_.reset();
}

}  // namespace hhc::core

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

// Table load-factor ceiling (the probe-length / memory trade), counting
// dead slots: an insert that would pass it rebuilds, doubling the table
// when the live entries alone need the room. An uncapped shard starts with
// kInitialSlots slots.
constexpr std::size_t kMaxLoadPercent = 50;
constexpr std::size_t kInitialSlots = 16;
// A rebuild also compacts once dead slots exceed 1/kDeadFraction of the
// live entries, so eviction-heavy shards keep short probes.
constexpr std::size_t kDeadFraction = 8;

// Slot state tags, in bits no packed key uses.
constexpr std::uint64_t kFull = std::uint64_t{1} << 62;
constexpr std::uint64_t kDead = std::uint64_t{1} << 63;
constexpr std::uint64_t kStateMask = kFull | kDead;

// The canonical key in one word: xdiff has at most 2^m <= 32 bits, ys and
// yt at most m <= 5 bits, then the two option bytes (58 bits in all).
std::uint64_t pack_key(std::uint64_t xdiff, std::uint64_t ys, std::uint64_t yt,
                       const ConstructionOptions& options) noexcept {
  return xdiff | (ys << 32) | (yt << 37) |
         (std::uint64_t{static_cast<std::uint8_t>(options.ordering)} << 42) |
         (std::uint64_t{static_cast<std::uint8_t>(options.selection)} << 50);
}

// SplitMix64's finalizer: the low bits pick the home slot, the high bits
// the shard, so keys of one shard still spread over all of its slots.
std::uint64_t hash_key(std::uint64_t key) noexcept {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

// Pin-table slots, recycled when a shard dies: a thread's pin table is as
// long as the most shards ever alive at once, not the most ever made.
util::SlotPool& pin_slots() {
  static auto* slots = new util::SlotPool;  // never destroyed: outlives shards
  return *slots;
}

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
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>();
    shard->eviction_rng = util::Xoshiro256{seeder.next()};
    std::lock_guard lock{shard->mutex};
    publish(*shard, empty_table());
  }
}

std::shared_ptr<ContainerCache::ShardIndex> ContainerCache::empty_table()
    const {
  // A capped shard plateaus at the cap; size its table to hold the cap
  // within the load ceiling up front so it never grows.
  const std::size_t cap = config_.max_entries_per_shard;
  return std::make_shared<ShardIndex>(
      cap == 0 ? kInitialSlots : std::bit_ceil(cap * 100 / kMaxLoadPercent + 1),
      std::make_shared<EntryStore>());
}

ContainerCache::Shard::Shard() : key{pin_slots()} {}

ContainerCache::Shard::~Shard() {
  // No lookup can race the destructor, but other threads' pins may still
  // hold published tables; release their containers now instead of at
  // those threads' next re-pin or exit.
  for (const auto& generation : generations) {
    if (const auto table = generation.lock()) {
      table->slots.reset();
      table->store.reset();
    }
  }
}

const ContainerCache::ShardIndex& ContainerCache::snapshot(Shard& shard) {
  struct Pin {
    std::uint64_t version = 0;
    std::shared_ptr<const ShardIndex> index;  // null until first pinned
  };
  thread_local util::ThreadTable<Pin> tls_pins;
  Pin& pin = tls_pins.get(shard.key);
  const std::uint64_t version = shard.version.load(std::memory_order_acquire);
  if (pin.index == nullptr || pin.version != version) {
    std::lock_guard lock{shard.mutex};
    pin.index = shard.index;
    // Re-read under the lock: a publication that slipped in since the
    // check above must not leave a stale stamp pinned to the new table.
    pin.version = shard.version.load(std::memory_order_relaxed);
  }
  return *pin.index;
}

ContainerHandle ContainerCache::handle_of(const Entry& entry, Node mask) {
  return ContainerHandle{
      std::shared_ptr<const FlatContainer>{entry.shared_from_this(), &entry.flat},
      mask};
}

const ContainerCache::Entry* ContainerCache::ShardIndex::find(
    std::uint64_t key, std::uint64_t hash) const noexcept {
  const std::size_t mask = capacity - 1;
  const std::uint64_t want = key | kFull;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint64_t word = slots[i].word.load(std::memory_order_acquire);
    if (word == 0) return nullptr;
    if (word == want) return slots[i].entry;
  }
}

void ContainerCache::ShardIndex::insert(std::uint64_t key, std::uint64_t hash,
                                        const Entry* entry) {
  const std::size_t mask = capacity - 1;
  std::size_t i = hash & mask;
  while (slots[i].word.load(std::memory_order_relaxed) != 0) i = (i + 1) & mask;
  slots[i].entry = entry;
  slots[i].word.store(key | kFull, std::memory_order_release);
}

void ContainerCache::publish(Shard& shard, std::shared_ptr<ShardIndex> table) {
  std::erase_if(shard.generations,
                [](const std::weak_ptr<ShardIndex>& g) { return g.expired(); });
  shard.generations.push_back(table);
  shard.index = std::move(table);
  shard.version.fetch_add(1, std::memory_order_release);
}

void ContainerCache::rebuild(Shard& shard) {
  const ShardIndex& old = *shard.index;
  std::size_t capacity = old.capacity;
  while ((shard.live + 1) * 100 > capacity * kMaxLoadPercent) capacity <<= 1;
  // Growth keeps the store; only a compaction copies containers (touching
  // their reference counts), and only the live ones.
  const bool compact = shard.dead > 0;
  auto next = std::make_shared<ShardIndex>(
      capacity, compact ? std::make_shared<EntryStore>() : old.store);
  for (std::size_t i = 0; i < old.capacity; ++i) {
    const std::uint64_t word = old.slots[i].word.load(std::memory_order_relaxed);
    if ((word & kStateMask) != kFull) continue;
    const std::uint64_t key = word & ~kStateMask;
    const Entry* entry = old.slots[i].entry;
    if (compact) next->store->push_back(entry->shared_from_this());
    next->insert(key, hash_key(key), entry);
  }
  shard.dead = 0;
  publish(shard, std::move(next));
}

void ContainerCache::evict(Shard& shard) {
  // Random replacement, for real: rejection-sample slots until a live one
  // comes up, which is uniform over the live entries and deterministic per
  // seed. A capped table is between 1/4 and 1/2 live when full, so this
  // takes at most 4 draws on average.
  ShardIndex& table = *shard.index;
  for (;;) {
    auto& word = table.slots[shard.eviction_rng.below(table.capacity)].word;
    const std::uint64_t current = word.load(std::memory_order_relaxed);
    if ((current & kStateMask) != kFull) continue;
    // Readers that already saw the slot full may still copy its entry,
    // which stays in the store until a compaction replaces the store.
    word.store((current & ~kStateMask) | kDead, std::memory_order_release);
    break;
  }
  --shard.live;
  ++shard.dead;
  shard.evictions.fetch_add(1, std::memory_order_relaxed);
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
  const std::uint64_t xdiff = xs ^ net_.cluster_of(t);
  const std::uint64_t ys = net_.position_of(s);
  const std::uint64_t yt = net_.position_of(t);
  const std::uint64_t key = pack_key(xdiff, ys, yt, options);
  const std::uint64_t hash = hash_key(key);
  Shard& shard = *shards_[(hash >> 32) & (shards_.size() - 1)];
  // In the packed encoding, relabeling every node's cluster by xs is one
  // XOR with (xs << m) — the handle applies it lazily.
  const Node mask = xs << net_.m();

  // THE hot path: validate this thread's pinned table and probe it. No
  // mutex, no shared write (the version check is a read; the hit counter
  // is a thread-private cell), no span (the enclosing answer/answer_view
  // span times hits; keeping the hit path span-free is what holds
  // enabled-tracing overhead under 5%).
  if (const auto* found = snapshot(shard).find(key, hash)) {
    hits_.add();
    if (cache_hit != nullptr) *cache_hit = true;
    return handle_of(*found, mask);
  }

  // Miss: run the (expensive, deterministic) construction without holding
  // any lock, then insert into the live table under the writer mutex. A
  // racing thread may have inserted the key meanwhile; its result is
  // byte-for-byte the same, so the first insert wins and the duplicate
  // work is discarded.
  misses_.add();
  if (cache_hit != nullptr) *cache_hit = false;
  std::shared_ptr<Entry> built;
  {
    static obs::Histogram& construct_hist =
        obs::stage_histogram(obs::stages::kConstruct);
    obs::TraceSpan span{obs::stages::kConstruct, &construct_hist};
    const Node cs = net_.encode(0, ys);
    const Node ct = net_.encode(xdiff, yt);
    const DisjointPathSetRef canonical =
        node_disjoint_paths(net_, cs, ct, options, tls_construction_scratch());
    built = std::make_shared<Entry>();
    FlatContainer& flat = built->flat;
    flat.offsets.reserve(canonical.paths.size() + 1);
    flat.offsets.push_back(0);
    std::size_t total = 0;
    for (const PathRef p : canonical.paths) total += p.size();
    flat.nodes.reserve(total);
    for (const PathRef p : canonical.paths) {
      flat.nodes.insert(flat.nodes.end(), p.begin(), p.end());
      flat.offsets.push_back(static_cast<std::uint32_t>(flat.nodes.size()));
    }
  }

  static obs::Histogram& publish_hist =
      obs::stage_histogram(obs::stages::kCachePublish);
  obs::TraceSpan span{obs::stages::kCachePublish, &publish_hist};
  std::lock_guard lock{shard.mutex};
  if (const auto* found = shard.index->find(key, hash)) {
    // Lost the race; serve the winner's identical entry.
    return handle_of(*found, mask);
  }
  const std::size_t cap = config_.max_entries_per_shard;
  if (cap > 0 && shard.live >= cap) evict(shard);
  if ((shard.live + shard.dead + 1) * 100 >
          shard.index->capacity * kMaxLoadPercent ||
      shard.dead * kDeadFraction > shard.live) {
    rebuild(shard);
  }
  ShardIndex& table = *shard.index;
  const Entry& entry = *table.store->emplace_back(std::move(built));
  table.insert(key, hash, &entry);
  ++shard.live;
  return handle_of(entry, mask);
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
    total += shard->live;
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
      row.entries = shard->live;
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
    publish(*shard, empty_table());
    shard->live = 0;
    shard->dead = 0;
    shard->evictions.store(0, std::memory_order_relaxed);
  }
  hits_.reset();
  misses_.reset();
}

}  // namespace hhc::core

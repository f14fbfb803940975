// Sharded, translation-canonical memoization of disjoint-path containers
// with a LOCK-FREE read path.
//
// The construction commutes with cluster translation (tested metamorphically
// in test_hhc_disjoint.cpp): the container for (Xs, Ys) -> (Xt, Yt) is the
// container for (0, Ys) -> (Xs ^ Xt, Yt) with every cluster label XOR-ed by
// Xs. A cache keyed on the canonical triple (Xs ^ Xt, Ys, Yt) — plus the
// ConstructionOptions, since different option sets build different
// containers — therefore serves ALL translated copies of a pair, turning
// repeated-workload simulations (hotspot traffic, permutation re-runs,
// retransmissions) into cache hits followed by an O(container size) relabel.
//
// Concurrency model (published tables with in-place inserts; DESIGN.md §9):
//
//   * Each shard owns a LIVE open-addressing table. A slot holds a state
//     word, which packs the key with an empty/full/dead tag, and a raw
//     pointer to its entry (the FlatContainer plus a weak self-reference).
//     The shard's entry store owns the entries; readers never read it.
//     A writer fills an empty slot in place: it stores the pointer first
//     and the state word last (release), and a reader probes with acquire
//     loads of the state words, so a reader that sees a full slot also
//     sees its key and entry. A slot's key and pointer are never rewritten
//     while its table lives.
//   * Eviction marks the victim slot dead; readers skip dead slots. The
//     container stays in the store until the next compaction.
//   * A new table is built, published and version-bumped only when live
//     plus dead slots would pass the 50% load ceiling (growth doubles the
//     table) or when dead slots exceed 1/8 of the live entries
//     (compaction). Growth copies (word, pointer) pairs and shares the
//     store; only a compaction copies the live entries' owning pointers
//     into a fresh store. Rebuilds are therefore amortized O(1) per insert.
//   * Every thread pins the table it last saw in TLS, stamped with the
//     shard's version and its process-unique id. The steady-state hit path
//     is ONE acquire load of the version (a line writers touch only on a
//     rebuild), a probe of the pinned table, one reference-count increment
//     on the entry, and a thread-private counter bump: no mutex, no shared
//     write besides that increment, no allocation. A stale stamp re-pins under the shard mutex, once per
//     rebuild per thread. In-place inserts need no re-pin: they land in
//     the very table readers already hold.
//     (Why not std::atomic<std::shared_ptr>? libstdc++'s _Sp_atomic takes
//     an internal spin lock — a CAS, i.e. a shared WRITE, on every load —
//     and unlocks reads with a relaxed RMW, which is a formal data race on
//     its pointer field that ThreadSanitizer rightly reports.)
//   * Writers (cache misses) run the construction OUTSIDE any lock, then
//     take the shard mutex, re-probe the live table, and insert. Two
//     threads missing the same key may both construct, but the
//     construction is deterministic, so the loser's duplicate is discarded
//     — results stay bit-identical to node_disjoint_paths(net, s, t,
//     options) either way.
//   * Reclamation is the shared_ptr refcount: a replaced table stays alive
//     until the last TLS pin moves on, and a store until the last table
//     that points into it goes; the FlatContainers inside are shared with
//     every outstanding ContainerHandle, so an entry outlives its table
//     AND its eviction for as long as any handle pins it. A shard
//     remembers (weakly) the tables it published, and destroying the cache
//     empties any that a thread's pin still holds, so an idle thread's
//     pins never keep a destroyed cache's containers alive. The per-thread
//     pin table is indexed by a slot number that is recycled when a shard
//     dies, so it is bounded by the shards alive at once.
//   * Hit/miss counters are per-thread striped cells (util::StripedCounter)
//     folded on stats()/hits()/misses() — the read path writes only
//     thread-private memory. Evictions are counted under the shard mutex.
//
// clear() takes every shard mutex, publishes an empty table per shard,
// and resets ALL counters, so a cleared cache is indistinguishable from a
// fresh one. Outstanding handles and in-flight readers of the old tables
// are unaffected (their shared_ptrs keep the old state alive).
//
// API contract: lookup() is THE read path — it returns a borrowed
// ContainerHandle off the live table; call lookup(...).materialize() where
// an owning DisjointPathSet is genuinely needed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/disjoint.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"
#include "util/slot_pool.hpp"
#include "util/striped.hpp"

namespace hhc::core {

/// A disjoint-path container flattened into two arrays: `nodes` holds every
/// path back to back, `offsets` (path_count + 1 entries) delimits them.
/// Immutable once published; the cache shares one FlatContainer between the
/// resident entry and every outstanding ContainerHandle.
struct FlatContainer {
  std::vector<Node> nodes;
  std::vector<std::uint32_t> offsets;  // paths[i] = nodes[offsets[i], offsets[i+1])
};

/// A zero-copy view of a cached container, relabeled lazily.
///
/// The construction commutes with cluster translation, and in the packed
/// node encoding (X << m | Y) that translation is a single XOR:
///   encode(cluster_of(v) ^ Xs, position_of(v)) == v ^ (Xs << m).
/// So a handle is just {shared FlatContainer, XOR mask}: a cache hit copies
/// one shared_ptr (no allocation, no node copying) and node() applies the
/// mask on the fly.
///
/// Lifetime contract: the handle SHARES OWNERSHIP of its container. It
/// remains valid — and keeps answering the same bits — after the source
/// entry is evicted, after the shard republishes its index any number of
/// times, after clear(), and after the ContainerCache itself is destroyed.
/// Holding a handle is therefore always safe; what it pins is the one
/// FlatContainer (nodes + offsets), not the cache. materialize() produces
/// the same owning DisjointPathSet the construction returns, bit for bit.
class ContainerHandle {
 public:
  ContainerHandle() = default;
  ContainerHandle(std::shared_ptr<const FlatContainer> flat,
                  Node xor_mask) noexcept
      : flat_{std::move(flat)}, mask_{xor_mask} {}

  [[nodiscard]] bool valid() const noexcept { return flat_ != nullptr; }
  [[nodiscard]] std::size_t path_count() const noexcept {
    return flat_ == nullptr ? 0 : flat_->offsets.size() - 1;
  }
  /// Number of nodes on path i (its length in edges + 1).
  [[nodiscard]] std::size_t path_size(std::size_t i) const noexcept {
    return flat_->offsets[i + 1] - flat_->offsets[i];
  }
  /// Node j of path i, relabeled into the handle's translation.
  [[nodiscard]] Node node(std::size_t i, std::size_t j) const noexcept {
    return flat_->nodes[flat_->offsets[i] + j] ^ mask_;
  }
  [[nodiscard]] Node source() const noexcept { return node(0, 0); }
  [[nodiscard]] Node target() const noexcept {
    return node(0, path_size(0) - 1);
  }

  /// Length (in edges) of the longest path.
  [[nodiscard]] std::size_t max_length() const noexcept;
  /// Deep copy of path i as an owning Path.
  [[nodiscard]] Path materialize_path(std::size_t i) const;
  /// Deep copy of the whole container as an owning DisjointPathSet.
  [[nodiscard]] DisjointPathSet materialize() const;

 private:
  std::shared_ptr<const FlatContainer> flat_;
  Node mask_ = 0;
};

struct StatRow;  // core/io.hpp

/// Point-in-time per-shard state. Hit/miss counters are cache-global (the
/// striped cells are not shard-attributed — see stats() doc); what a shard
/// owns is its resident entries and its eviction count.
struct CacheShardStats {
  std::size_t entries = 0;
  std::size_t evictions = 0;
};

/// Aggregate + per-shard snapshot, as returned by ContainerCache::stats().
/// All counters are folded/read at one point in time (one clock).
struct CacheStats {
  std::size_t entries = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::vector<CacheShardStats> shards;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// The snapshot as unified core::StatRow rows (section "cache" for the
  /// aggregate, "cache.shard<i>" per shard) so cache telemetry renders with
  /// the same core::io schema as service stats and the metrics registry.
  [[nodiscard]] std::vector<StatRow> rows() const;
};

class ContainerCache {
 public:
  struct Config {
    /// Default construction knobs; per-call overrides key separate entries.
    ConstructionOptions options{};
    /// Number of independent shards (rounded up to a power of two, >= 1).
    std::size_t shards = 16;
    /// Per-shard entry cap; 0 = unbounded. When full, one UNIFORMLY RANDOM
    /// resident entry is displaced per insert (drawn from a per-shard
    /// seeded util::Xoshiro256, so runs are reproducible) and counted as an
    /// eviction. Random replacement is cheap and good enough for the
    /// skewed workloads the cache exists for: the victim's slot is marked
    /// dead in place, and the shard compacts once dead slots pass 1/8 of
    /// the entries, so a capped insert costs O(1) amortized. A capped
    /// shard's table is sized for the cap up front and never grows.
    std::size_t max_entries_per_shard = 0;
    /// Seed for the per-shard eviction RNGs (each shard derives its own
    /// stream, so eviction choices are deterministic per configuration).
    std::uint64_t eviction_seed = 0x9d1f2c3b4a596877ULL;
  };

  /// The topology is held by reference (like sim::NetworkSimulator and every
  /// other consumer): the caller keeps it alive for the cache's lifetime.
  /// (Two overloads rather than `Config config = {}`: gcc rejects a nested
  /// class's default member initializers in a default argument while the
  /// enclosing class is still open.)
  explicit ContainerCache(const HhcTopology& net);
  ContainerCache(const HhcTopology& net, Config config);

  ContainerCache(const ContainerCache&) = delete;
  ContainerCache& operator=(const ContainerCache&) = delete;

  /// THE read path. A steady-state hit performs no construction, no node
  /// copying, no heap allocation, and takes NO lock: one acquire load of
  /// the shard version, a probe of the thread's pinned table, one
  /// shared_ptr copy, and a per-thread counter bump. A miss runs the
  /// construction outside any lock, then inserts into the live table under
  /// the shard mutex (which hits never touch).
  /// If `cache_hit` is non-null it receives whether this call was served
  /// without running the construction. Results materialize bit-identically
  /// to node_disjoint_paths(net, s, t, options) (asserted by tests).
  /// Throws std::invalid_argument for out-of-range nodes or s == t.
  [[nodiscard]] ContainerHandle lookup(Node s, Node t,
                                       const ConstructionOptions& options,
                                       bool* cache_hit = nullptr);
  /// Same, under the cache's default options.
  [[nodiscard]] ContainerHandle lookup(Node s, Node t);

  [[nodiscard]] std::size_t hits() const { return hits_.fold(); }
  [[nodiscard]] std::size_t misses() const { return misses_.fold(); }
  [[nodiscard]] std::size_t evictions() const noexcept;
  /// Total resident entries across shards (reads each shard's live count
  /// under its mutex — observability path, not the hot path).
  [[nodiscard]] std::size_t size() const;
  /// Per-shard + aggregate snapshot, folded at one point in time.
  [[nodiscard]] CacheStats stats() const;

  /// Drops every entry AND resets all counters (see header comment).
  void clear();

  [[nodiscard]] const ConstructionOptions& options() const noexcept {
    return config_.options;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const HhcTopology& net() const noexcept { return net_; }

 private:
  /// A cached container. A hit turns the slot's raw pointer into an
  /// owning handle through the weak self-reference, which sits in the same
  /// allocation as the container and its control block, so a hit never
  /// reads the entry store.
  struct Entry : std::enable_shared_from_this<Entry> {
    FlatContainer flat;
  };

  /// Owns the entries a shard's tables point at, so growing a table copies
  /// (word, pointer) pairs and touches no reference count. Readers never
  /// read it. Append-only under the shard mutex; a compaction copies the
  /// live entries into a fresh store.
  using EntryStore = std::vector<std::shared_ptr<const Entry>>;

  /// One generation of a shard's table: open addressing with linear
  /// probing over power-of-two slots. The live generation takes in-place
  /// inserts and dead marks under the shard mutex; a replaced generation
  /// is never written again (until the cache's destruction empties it).
  struct ShardIndex {
    /// `word` is the packed key (see pack_key) OR-ed with kFull or kDead;
    /// 0 is an empty slot. 16 bytes, so the probe stays cache-friendly.
    struct Slot {
      std::atomic<std::uint64_t> word{0};
      const Entry* entry = nullptr;
    };

    ShardIndex(std::size_t slot_count, std::shared_ptr<EntryStore> owner)
        : store{std::move(owner)},
          slots{std::make_unique<Slot[]>(slot_count)},
          capacity{slot_count} {}

    /// Reader-safe: acquire loads of the state words only.
    [[nodiscard]] const Entry* find(std::uint64_t key,
                                    std::uint64_t hash) const noexcept;
    /// Writer-only (under the shard mutex, or before publication): fills
    /// the first empty slot on key's probe path, entry first, word last.
    void insert(std::uint64_t key, std::uint64_t hash, const Entry* entry);

    std::shared_ptr<EntryStore> store;  // keeps every `entry` alive
    std::unique_ptr<Slot[]> slots;
    std::size_t capacity;
  };

  struct Shard {
    Shard();
    /// Empties every table this shard published that a thread's TLS pin
    /// may still hold; `key` then recycles the pin slot.
    ~Shard();
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    // Read side: touched by every lookup, written only on a rebuild.
    /// Never-reused id (tags each thread's TLS pin) and the pin-table slot,
    /// recycled when the shard dies.
    const util::SlotKey key;
    /// Bumped (release) on every publication of a new table. The acquire
    /// load validating a thread's pin against it is the entire
    /// shared-memory footprint of a steady-state hit besides the probe.
    std::atomic<std::uint64_t> version{0};

    // Write side, on its own cache line so a writer taking the mutex does
    // not invalidate the line every hit reads. Everything below is guarded
    // by `mutex`.
    alignas(64) std::mutex mutex;
    std::shared_ptr<ShardIndex> index;  // the live table
    std::size_t live = 0;               // full slots in `index`
    std::size_t dead = 0;  // evicted slots in `index` (and its store)
    /// Every table published and possibly still pinned (pruned on each
    /// publication), so ~Shard can empty them.
    std::vector<std::weak_ptr<ShardIndex>> generations;
    util::Xoshiro256 eviction_rng;
    std::atomic<std::size_t> evictions{0};  // bumped under mutex
  };

  /// This thread's pinned table for `shard`, re-pinned (under the shard
  /// mutex) only when the version or owner tag says it is not the live
  /// one. Valid until this thread's next lookup on the same shard; it may
  /// be one rebuild stale, which is fine: the miss path re-probes the live
  /// table under the mutex before inserting.
  [[nodiscard]] static const ShardIndex& snapshot(Shard& shard);

  /// Installs `table` as the shard's live table and bumps the version.
  /// Caller holds the shard mutex.
  static void publish(Shard& shard, std::shared_ptr<ShardIndex> table);
  /// Publishes a table sized for one more entry within the load ceiling
  /// holding the live entries. With dead entries it also compacts the
  /// store: the live containers move to a fresh one.
  static void rebuild(Shard& shard);
  /// Marks one uniformly random live entry dead. Caller holds the mutex.
  static void evict(Shard& shard);

  /// An owning handle to `entry`, relabeled by `mask`.
  [[nodiscard]] static ContainerHandle handle_of(const Entry& entry, Node mask);

  /// An empty table of the size a fresh shard starts with.
  [[nodiscard]] std::shared_ptr<ShardIndex> empty_table() const;

  const HhcTopology& net_;
  Config config_;
  // unique_ptr because Shard (atomics + mutex) is neither movable nor
  // copyable; the vector itself is immutable after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Cache-global striped hit/miss cells: the lock-free read path's only
  // telemetry writes, folded on stats().
  util::StripedCounter hits_;
  util::StripedCounter misses_;
};

}  // namespace hhc::core

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
// Concurrency model (RCU-style published snapshots; DESIGN.md §9):
//
//   * Each shard PUBLISHES an immutable ShardIndex — an open-addressing
//     table of (key, shared FlatContainer) slots. A publication bumps the
//     shard's atomic version counter; every thread keeps a version-stamped
//     shared_ptr to its last-seen snapshot in TLS (keyed by a never-reused
//     shard id, the util::StripedCounter identity scheme). The steady-state
//     hit path is ONE acquire load of the version — a read of a line no
//     reader ever writes — plus a linear probe of the thread's pinned
//     snapshot: no mutex, no shared write, no allocation. Readers of one
//     snapshot never observe a concurrent writer's mutation, because
//     writers never mutate a published index.
//     (Why not std::atomic<std::shared_ptr>? libstdc++'s _Sp_atomic takes
//     an internal spin lock — a CAS, i.e. a shared WRITE, on every load —
//     and unlocks reads with a relaxed RMW, which is a formal data race on
//     its pointer field that ThreadSanitizer rightly reports. The version
//     + TLS-pin scheme is wait-free on hits and TSan-clean.)
//   * Writers (cache misses) run the construction OUTSIDE any lock, then
//     take the shard mutex, clone the current index into a new table
//     (applying eviction if the shard is at capacity), insert, swap the
//     published pointer, and bump the version. A reader whose TLS stamp is
//     stale refreshes by taking that mutex just long enough to copy the
//     new shared_ptr — once per publication per thread, never on a
//     steady-state hit. Two threads missing the same key may both
//     construct, but the construction is deterministic, so the loser's
//     duplicate is discarded — results stay bit-identical to
//     node_disjoint_paths(net, s, t, options) either way.
//   * Reclamation is the shared_ptr refcount: a swapped-out index stays
//     alive until the last TLS pin moves on (next refresh or thread exit);
//     the FlatContainers inside are themselves shared with every
//     outstanding ContainerHandle, so an entry outlives both its index AND
//     its eviction for as long as any handle pins it.
//   * Hit/miss counters are per-thread striped cells (util::StripedCounter)
//     folded on stats()/hits()/misses() — the read path writes only
//     thread-private memory. Evictions are counted under the shard mutex.
//
// clear() takes every shard mutex, swaps every shard to an empty index,
// and resets ALL counters, so a cleared cache is indistinguishable from a
// fresh one. Outstanding handles and in-flight snapshot readers are
// unaffected (their shared_ptrs keep the old state alive).
//
// API contract (PR 7 redesign): lookup() is THE read path — it returns a
// borrowed ContainerHandle off the published snapshot. The legacy
// materializing paths() accessor is gone; call lookup(...).materialize()
// where an owning DisjointPathSet is genuinely needed.
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
    /// skewed workloads the cache exists for; the O(capacity) clone the
    /// publication pays is dominated by the construction the miss just ran.
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
  /// the shard version, a probe of the thread's pinned immutable snapshot,
  /// one shared_ptr copy, and a per-thread counter bump. A miss runs the
  /// construction outside any lock, then publishes a new index under the
  /// shard mutex (which hits never touch).
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
  /// Total resident entries across shards (reads each shard's published
  /// snapshot under its mutex — observability path, not the hot path).
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
  struct Key {
    std::uint64_t xdiff;
    std::uint64_t ys;
    std::uint64_t yt;
    std::uint8_t ordering;
    std::uint8_t selection;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.xdiff * 0x9e3779b97f4a7c15ULL;
      h ^= (k.ys << 17) ^ (k.yt << 3) ^ (h >> 31);
      h ^= (std::uint64_t{k.ordering} << 11) ^ (std::uint64_t{k.selection} << 7);
      return static_cast<std::size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };

  /// One published, immutable generation of a shard: an open-addressing
  /// (linear-probe) table over power-of-two slots. value == nullptr marks
  /// an empty slot. Never mutated after publication; writers clone.
  struct ShardIndex {
    struct Slot {
      Key key{};
      std::shared_ptr<const FlatContainer> value;
    };
    std::vector<Slot> slots;
    std::size_t size = 0;

    [[nodiscard]] const std::shared_ptr<const FlatContainer>* find(
        const Key& key) const noexcept {
      if (slots.empty()) return nullptr;
      const std::size_t mask = slots.size() - 1;
      for (std::size_t i = KeyHash{}(key) & mask;; i = (i + 1) & mask) {
        const Slot& slot = slots[i];
        if (slot.value == nullptr) return nullptr;
        if (slot.key == key) return &slot.value;
      }
    }
    /// Build-side insert (pre-publication only; capacity is guaranteed by
    /// the builder, which keeps occupancy under kMaxLoadPercent).
    void insert(const Key& key, std::shared_ptr<const FlatContainer> value);
  };

  struct Shard {
    /// Process-unique, never reused: keys each thread's TLS snapshot cache
    /// (see snapshot()). Stale TLS entries for destroyed caches are inert
    /// because their ids are never issued again.
    const std::uint64_t id = next_shard_id();
    /// Bumped (release) on every publication. The acquire load validating
    /// a thread's TLS stamp against this counter is the entire
    /// shared-memory footprint of a steady-state hit.
    std::atomic<std::uint64_t> version{0};
    /// Guards `index`, the eviction RNG, and publication. Taken by writers
    /// (build-then-swap) and by a reader's one-shared_ptr-copy refresh
    /// after a publication; never by a steady-state hit.
    std::mutex mutex;
    std::shared_ptr<const ShardIndex> index;  // current published snapshot
    util::Xoshiro256 eviction_rng;            // guarded by mutex
    std::atomic<std::size_t> evictions{0};    // bumped under mutex
  };

  [[nodiscard]] static std::uint64_t next_shard_id() noexcept;

  /// This thread's pinned snapshot of `shard`, refreshed (under the shard
  /// mutex) only when the version stamp says a publication happened. The
  /// returned pointer stays valid until this thread's next lookup on the
  /// same shard; it may be one publication stale, which is fine: the miss
  /// path re-probes the live index under the mutex before constructing.
  [[nodiscard]] static const ShardIndex* snapshot(Shard& shard);

  /// Clones `old` (skipping `victim`, if any), inserts (key, value), and
  /// returns the new index. Pure build; caller publishes under the writer
  /// mutex.
  [[nodiscard]] std::shared_ptr<const ShardIndex> rebuild_index(
      const ShardIndex* old, std::size_t victim, const Key& key,
      std::shared_ptr<const FlatContainer> value) const;

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

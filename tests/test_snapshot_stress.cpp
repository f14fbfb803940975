// Concurrency regression suite for the lock-free ContainerCache read path
// (labelled `stress`: the TSan CI job builds and runs this binary).
//
// Each shard owns a live open-addressing table that readers probe without a
// lock (acquire loads of per-slot state words) through a version-stamped
// thread-local pin, while writers insert into that same table in place,
// mark evicted slots dead, and publish a rebuilt table only to grow or
// compact — all under a per-shard mutex. These tests drive lookups
// concurrently against every writer-side event — in-place insert, dead
// mark, rebuild, and clear() — asserting that readers always observe a
// coherent table (bit-identical answers to direct construction) and that
// handles pin their containers across arbitrary churn. They are exactly the
// interleavings the publication protocol must make safe, so they double as
// the TSan proof obligation for the design in DESIGN.md §9.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/container_cache.hpp"
#include "core/metrics.hpp"
#include "util/rng.hpp"
#include "util/striped.hpp"

namespace hhc::core {
namespace {

constexpr std::size_t kThreads = 8;

TEST(SnapshotStress, LookupsRaceInsertionsAndEvictions) {
  // Tiny shards + more keys than capacity: every thread's lookup stream is
  // a mix of lock-free hits, constructing misses, and displacing inserts,
  // so index snapshots are republished constantly while other threads read
  // them. Any torn read or stale-index use shows up as a path mismatch.
  const HhcTopology net{3};
  ContainerCache cache{net, {.shards = 2, .max_entries_per_shard = 4}};
  const auto pairs = sample_pairs(net, 64, 7);
  std::vector<DisjointPathSet> expected;
  expected.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    expected.push_back(node_disjoint_paths(net, s, t));
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{1000 + id};
      for (std::size_t i = 0; i < 200; ++i) {
        const std::size_t k = rng.below(pairs.size());
        const ContainerHandle handle = cache.lookup(pairs[k].s, pairs[k].t);
        if (handle.materialize().paths != expected[k].paths) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * 200);
}

TEST(SnapshotStress, HandlesOutliveConcurrentChurn) {
  // The handle-lifetime contract under contention: handles taken before a
  // storm of evictions/republications (and a final clear()) must keep
  // reading their original containers byte-for-byte. A handle shares
  // ownership of the flat container, so the churn can only retire the
  // *index* snapshots, never the containers a reader still holds.
  const HhcTopology net{3};
  ContainerCache cache{net, {.shards = 1, .max_entries_per_shard = 2}};
  const auto pairs = sample_pairs(net, 48, 29);

  std::vector<ContainerHandle> handles;
  std::vector<DisjointPathSet> before;
  for (std::size_t k = 0; k < 8; ++k) {
    handles.push_back(cache.lookup(pairs[k].s, pairs[k].t));
    before.push_back(handles.back().materialize());
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      util::Xoshiro256 rng{5000 + id};
      for (std::size_t i = 0; i < 100; ++i) {
        const std::size_t k = rng.below(pairs.size());
        (void)cache.lookup(pairs[k].s, pairs[k].t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(cache.evictions(), 0u);
  cache.clear();

  for (std::size_t k = 0; k < handles.size(); ++k) {
    ASSERT_TRUE(handles[k].valid());
    EXPECT_EQ(handles[k].materialize().paths, before[k].paths);
  }
}

TEST(SnapshotStress, ClearRacesLookupsWithoutTearing) {
  // clear() unpublishes every shard's snapshot while readers run. A reader
  // either sees the old snapshot (hit) or none (miss + reconstruction) —
  // both must yield the canonical container; nothing may crash or tear.
  const HhcTopology net{2};
  ContainerCache cache{net, {.shards = 2}};
  const auto pairs = sample_pairs(net, 16, 3);
  std::vector<DisjointPathSet> expected;
  expected.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    expected.push_back(node_disjoint_paths(net, s, t));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t id = 0; id < kThreads - 1; ++id) {
    readers.emplace_back([&, id] {
      util::Xoshiro256 rng{9000 + id};
      for (std::size_t i = 0; i < 300; ++i) {
        const std::size_t k = rng.below(pairs.size());
        const auto set = cache.lookup(pairs[k].s, pairs[k].t).materialize();
        if (set.paths != expected[k].paths) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread clearer{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.clear();
      std::this_thread::yield();
    }
  }};
  for (auto& thread : readers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  clearer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SnapshotStress, ReadersProbeTheTableAWriterFillsInPlace) {
  // One shard, so every reader probes exactly the table the writer is
  // filling. Readers mix hits (warm keys) with misses (keys the writer has
  // not reached yet, which they also insert). Unbounded, the fill crosses
  // several growth rebuilds; capped, every insert past the cap marks a
  // slot dead and every few inserts compact the table.
  const HhcTopology net{3};
  const auto pairs = sample_pairs(net, 192, 41);
  std::vector<DisjointPathSet> expected;
  expected.reserve(pairs.size());
  ContainerCache reference{net};  // counts the pool's distinct keys
  for (const auto& [s, t] : pairs) {
    expected.push_back(node_disjoint_paths(net, s, t));
    (void)reference.lookup(s, t);
  }

  const ContainerCache::Config configs[] = {
      {.shards = 1},
      {.shards = 1, .max_entries_per_shard = 24},
  };
  for (const auto& config : configs) {
    ContainerCache cache{net, config};
    for (std::size_t k = 0; k < 16; ++k) {
      (void)cache.lookup(pairs[k].s, pairs[k].t);  // warm keys
    }
    constexpr std::size_t kReaders = kThreads - 1;
    constexpr std::size_t kReads = 300;
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    threads.emplace_back([&] {  // the writer walks the pool in order
      for (std::size_t k = 16; k < pairs.size(); ++k) {
        if (cache.lookup(pairs[k].s, pairs[k].t).materialize().paths !=
            expected[k].paths) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    for (std::size_t id = 0; id < kReaders; ++id) {
      threads.emplace_back([&, id] {
        util::Xoshiro256 rng{7000 + id};
        for (std::size_t i = 0; i < kReads; ++i) {
          // Half the reads go to the warm keys, half anywhere in the pool.
          const std::size_t k =
              rng.below(i % 2 == 0 ? std::size_t{16} : pairs.size());
          const ContainerHandle handle = cache.lookup(pairs[k].s, pairs[k].t);
          if (handle.materialize().paths != expected[k].paths) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(cache.hits() + cache.misses(),
              16 + (pairs.size() - 16) + kReaders * kReads);
    if (config.max_entries_per_shard == 0) {
      EXPECT_EQ(cache.size(), reference.size());
      EXPECT_EQ(cache.evictions(), 0u);
    } else {
      EXPECT_EQ(cache.size(), config.max_entries_per_shard);
      EXPECT_GT(cache.evictions(), pairs.size() / 2);
    }
    // Quiescent again: every key still answers exactly.
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_EQ(cache.lookup(pairs[k].s, pairs[k].t).materialize().paths,
                expected[k].paths);
    }
  }
}

TEST(StripedCounter, FoldIsExactAfterWritersJoin) {
  util::StripedCounter counter;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.fold(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.fold(), 0u);
  counter.add(3);
  EXPECT_EQ(counter.fold(), 3u);
}

TEST(StripedCounter, InstancesAreIndependent) {
  // Two counters incremented from the same threads must not share cells
  // (the TLS cache is keyed by each counter's process-unique id).
  util::StripedCounter a;
  util::StripedCounter b;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t id = 0; id < kThreads; ++id) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        a.add(2);
        b.add();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(a.fold(), kThreads * 2000u);
  EXPECT_EQ(b.fold(), kThreads * 1000u);
}

}  // namespace
}  // namespace hhc::core

// Per-thread striped counters: the write side of "move the shared atomics
// off the hot path".
//
// A StripedCounter gives every thread its own cache-line-aligned cell, so
// the hot increment is one relaxed fetch_add on memory no other thread
// writes — no shared-counter cache-line ping-pong, which is what made the
// ContainerCache hit counters a scalability ceiling once the lookup itself
// went lock-free. Reads fold every cell at the moment of the read
// (ContainerCache::stats() is the canonical consumer), so totals are exact
// for quiescent periods and at-most-one-increment racy under load — the
// same consistency the old single atomic gave concurrent readers.
//
// Lifetime/identity scheme: every counter holds a SlotKey (util/slot_pool.hpp),
// and each thread keeps a slot -> cell* table in TLS whose entries are
// tagged with the counter's never-reused id. Cells are OWNED by the counter
// (so counts from exited threads survive in fold()). A destroyed counter's
// slot goes to a later counter; a thread's stale entry there no longer
// matches the id and is replaced on first use, so a thread's table is as
// long as the most counters alive at once, not the most ever created.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/slot_pool.hpp"

namespace hhc::util {

class StripedCounter {
 public:
  StripedCounter() : key_{pool()} {}

  StripedCounter(const StripedCounter&) = delete;
  StripedCounter& operator=(const StripedCounter&) = delete;

  /// Wait-free on the fast path (one relaxed fetch_add on a thread-private
  /// cell); first use per (thread, counter) registers a cell under a mutex.
  void add(std::uint64_t n = 1) noexcept {
    local_cell().fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum of every thread's cell at the time of the call (exact when
  /// writers are quiescent; otherwise may miss increments racing the fold,
  /// exactly like a relaxed load of a shared atomic would).
  [[nodiscard]] std::uint64_t fold() const {
    std::uint64_t total = 0;
    std::lock_guard lock{mutex_};
    for (const auto& cell : cells_) {
      total += cell->value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every cell. Increments racing the reset may land before or
  /// after their cell is zeroed; callers quiesce writers when they need
  /// an exact cut (ContainerCache::clear() holds every writer mutex).
  void reset() noexcept {
    std::lock_guard lock{mutex_};
    for (const auto& cell : cells_) {
      cell->value.store(0, std::memory_order_relaxed);
    }
  }

  /// Length of the calling thread's cell table: bounded by the most
  /// counters alive at once.
  [[nodiscard]] static std::size_t thread_table_size() {
    return tls_cells().size();
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };

  [[nodiscard]] static SlotPool& pool() {
    static auto* slots = new SlotPool;  // never destroyed: outlives counters
    return *slots;
  }

  [[nodiscard]] static ThreadTable<std::atomic<std::uint64_t>*>& tls_cells() {
    thread_local ThreadTable<std::atomic<std::uint64_t>*> cells;
    return cells;
  }

  [[nodiscard]] std::atomic<std::uint64_t>& local_cell() {
    std::atomic<std::uint64_t>*& slot = tls_cells().get(key_);
    if (slot == nullptr) {
      std::lock_guard lock{mutex_};
      cells_.push_back(std::make_unique<Cell>());
      slot = &cells_.back()->value;
    }
    return *slot;
  }

  const SlotKey key_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace hhc::util

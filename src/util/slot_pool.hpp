// Recycled slot numbers for per-thread tables keyed by object.
//
// Some hot paths keep a thread_local table with one entry per live object:
// a striped counter's cell, an admission gate's shed streak, a cache
// shard's pinned table. Indexing such a table by a never-reused object id
// makes every long-lived thread's table grow with every object the process
// has ever created. Instead each object holds a SlotKey: a slot number
// drawn from a SlotPool, which hands out the numbers of destroyed objects
// first, so a table is only as long as the most objects alive at once.
//
// A recycled slot may still hold the dead object's entry in some thread's
// table, so ThreadTable tags each entry with its owner's never-reused id
// and starts the entry afresh when the id differs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace hhc::util {

/// Slot numbers: a released number is reused before a new one is issued.
/// Thread-safe.
class SlotPool {
 public:
  [[nodiscard]] std::size_t acquire() {
    std::lock_guard lock{mutex_};
    if (free_.empty()) return issued_++;
    const std::size_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void release(std::size_t slot) {
    std::lock_guard lock{mutex_};
    free_.push_back(slot);
  }

 private:
  std::mutex mutex_;  // guards free_ and issued_
  std::vector<std::size_t> free_;
  std::size_t issued_ = 0;
};

/// An object's identity in per-thread tables: a process-unique id that is
/// never reused, and a slot number held until the object dies.
class SlotKey {
 public:
  explicit SlotKey(SlotPool& pool)
      : pool_{pool},
        id_{next_id().fetch_add(1, std::memory_order_relaxed)},
        slot_{pool.acquire()} {}
  ~SlotKey() { pool_.release(slot_); }
  SlotKey(const SlotKey&) = delete;
  SlotKey& operator=(const SlotKey&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::size_t slot() const noexcept { return slot_; }

 private:
  [[nodiscard]] static std::atomic<std::uint64_t>& next_id() noexcept {
    static std::atomic<std::uint64_t> id{0};
    return id;
  }

  SlotPool& pool_;
  const std::uint64_t id_;
  const std::size_t slot_;
};

/// One thread's entries, indexed by slot. Meant to be thread_local.
template <class T>
class ThreadTable {
 public:
  /// This thread's entry for `key`'s object, value-initialized the first
  /// time this thread meets that object in the slot.
  [[nodiscard]] T& get(const SlotKey& key) {
    if (key.slot() >= entries_.size()) entries_.resize(key.slot() + 1);
    Entry& entry = entries_[key.slot()];
    if (entry.owner != key.id()) {
      entry.owner = key.id();
      entry.value = T{};
    }
    return entry.value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t owner = ~std::uint64_t{0};  // no object has this id
    T value{};
  };
  std::vector<Entry> entries_;
};

}  // namespace hhc::util

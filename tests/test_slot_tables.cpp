// Per-thread tables keyed by recycled slots (util/slot_pool.hpp).
//
// util::StripedCounter keeps each thread's cells, and query::AdmissionGate
// each thread's shed streaks, in thread_local tables indexed by the
// object's slot. Slots of destroyed objects are reused, so a long-lived
// thread's tables stay as long as the most objects alive at once however
// many objects the process creates. These tests pin that bound, that a
// reused slot never hands an object its predecessor's entry, and (under
// the TSan job, ctest -L stress) that creation and destruction race
// add()/fold() and admit() cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "query/admission.hpp"
#include "util/slot_pool.hpp"
#include "util/striped.hpp"

namespace hhc {
namespace {

using query::AdmissionConfig;
using query::AdmissionGate;
using query::AdmissionVerdict;
using util::StripedCounter;

// A gate that sheds on overload, driven into overload: its next admit()
// takes the shed path and so touches this thread's shed-streak entry.
AdmissionConfig shedding_config() {
  AdmissionConfig config;
  config.overload_latency_us = 1.0;
  config.shed_on_overload = true;
  return config;
}

void overload(AdmissionGate& gate) {
  for (std::uint64_t i = 0; i < AdmissionGate::kDecisionEpoch; ++i) {
    gate.record_latency(100.0);
  }
}

TEST(SlotTables, HundredThousandCountersAndGatesKeepThreadTablesBounded) {
  std::size_t shed = 0;
  for (int i = 0; i < 100000; ++i) {
    StripedCounter counter;
    counter.add(2);
    AdmissionGate gate{shedding_config()};
    overload(gate);
    if (gate.admit() == AdmissionVerdict::kShed) ++shed;
  }
  EXPECT_EQ(shed, 100000u);  // every gate reached its shed streak
  // Each iteration holds one counter plus the gate's two at a time; the
  // slots are reused, so the tables do not grow with the iteration count.
  EXPECT_LE(StripedCounter::thread_table_size(), 16u);
  EXPECT_LE(AdmissionGate::thread_table_size(), 16u);
}

TEST(SlotTables, ReusedSlotStartsFromAFreshEntry) {
  util::SlotPool pool;
  std::size_t first_slot = 0;
  util::ThreadTable<int> table;
  {
    const util::SlotKey first{pool};
    first_slot = first.slot();
    table.get(first) = 7;
  }
  const util::SlotKey second{pool};
  EXPECT_EQ(second.slot(), first_slot);  // recycled
  EXPECT_EQ(table.get(second), 0);       // not the predecessor's 7

  // The same through a counter: a counter on a recycled slot must not
  // count into its predecessor's cell.
  std::uint64_t folded = 0;
  {
    auto old_counter = std::make_unique<StripedCounter>();
    old_counter->add(5);
    old_counter.reset();
    StripedCounter next;
    next.add(1);
    folded = next.fold();
  }
  EXPECT_EQ(folded, 1u);
}

// Creation and destruction race add()/fold() on long-lived counters and
// admit() on a long-lived gate; the long-lived totals stay exact.
TEST(SlotTables, CreationAndDestructionRaceAddAndFold) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  StripedCounter shared;
  AdmissionGate shared_gate{shedding_config()};
  overload(shared_gate);
  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        StripedCounter local;
        local.add(3);
        shared.add(1);
        if (local.fold() != 3) ADD_FAILURE() << "local counter lost a count";
        (void)shared.fold();
        if (i % 8 == 0) {
          AdmissionGate gate{shedding_config()};
          overload(gate);
          (void)gate.admit();
        }
        if (shared_gate.admit() == AdmissionVerdict::kShed) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          shared_gate.release();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(shared.fold(), std::uint64_t{kThreads} * kRounds);
  EXPECT_GT(shed.load(), 0u);
}

}  // namespace
}  // namespace hhc

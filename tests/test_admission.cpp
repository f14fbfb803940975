#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "query/admission.hpp"

namespace hhc::query {
namespace {

TEST(AdmissionGate, DefaultConfigAdmitsEverything) {
  AdmissionGate gate{AdmissionConfig{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  }
  // No release() calls needed: the unlimited gate never claimed a slot.
  EXPECT_FALSE(gate.overloaded());
}

TEST(AdmissionGate, RejectPolicyShedsBeyondTheBound) {
  AdmissionConfig config;
  config.max_in_flight = 2;
  config.policy = AdmissionPolicy::kReject;
  AdmissionGate gate{config};

  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  EXPECT_EQ(gate.in_flight(), 2u);

  gate.release();
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  gate.release();
  gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(AdmissionGate, DegradePolicyAdmitsDegradedBeyondTheBound) {
  AdmissionConfig config;
  config.max_in_flight = 1;
  config.policy = AdmissionPolicy::kDegrade;
  AdmissionGate gate{config};

  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(),
            AdmissionVerdict::kAdmittedDegraded);
  EXPECT_EQ(gate.in_flight(), 2u);  // degraded admissions still hold slots
  gate.release();
  gate.release();
}

TEST(AdmissionGate, EwmaTracksLatencyAndFlagsOverload) {
  AdmissionConfig config;
  config.ewma_alpha = 1.0;  // EWMA == last sample, exact assertions
  config.overload_latency_us = 100.0;
  AdmissionGate gate{config};

  EXPECT_FALSE(gate.overloaded());
  gate.record_latency(50.0);
  EXPECT_DOUBLE_EQ(gate.ewma_latency_us(), 50.0);
  EXPECT_FALSE(gate.overloaded());

  gate.record_latency(500.0);
  EXPECT_DOUBLE_EQ(gate.ewma_latency_us(), 500.0);
  EXPECT_TRUE(gate.overloaded());

  // Overload degrades admission even though no in-flight bound is set.
  EXPECT_EQ(gate.admit(),
            AdmissionVerdict::kAdmittedDegraded);

  gate.record_latency(1.0);
  EXPECT_FALSE(gate.overloaded());
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
}

TEST(AdmissionGate, EwmaSmoothingFollowsAlpha) {
  AdmissionConfig config;
  config.ewma_alpha = 0.5;
  AdmissionGate gate{config};
  gate.record_latency(100.0);  // first sample seeds the average
  gate.record_latency(200.0);
  EXPECT_DOUBLE_EQ(gate.ewma_latency_us(), 150.0);
  gate.record_latency(50.0);
  EXPECT_DOUBLE_EQ(gate.ewma_latency_us(), 100.0);
}

TEST(AdmissionGate, ConcurrentAdmitsNeverExceedTheBound) {
  constexpr std::size_t kBound = 4;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 2000;

  AdmissionConfig config;
  config.max_in_flight = kBound;
  config.policy = AdmissionPolicy::kReject;
  AdmissionGate gate{config};

  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> peak{0};
  std::atomic<std::size_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (gate.admit() != AdmissionVerdict::kAdmitted) {
          continue;
        }
        const std::size_t now = active.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        admitted.fetch_add(1);
        active.fetch_sub(1);
        gate.release();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(admitted.load(), 0u);
  EXPECT_LE(peak.load(), kBound);
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(AdmissionGate, ShedOnOverloadShedsAndProbesReopenTheGate) {
  AdmissionConfig config;
  config.ewma_alpha = 1.0;  // EWMA == last sample, exact assertions
  config.overload_latency_us = 10.0;
  config.shed_on_overload = true;
  config.probe_interval = 4;
  AdmissionGate gate{config};

  // Healthy gate admits normally (not degraded).
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);

  gate.record_latency(1000.0);
  ASSERT_TRUE(gate.overloaded());

  // Overloaded + shed_on_overload: decisions shed instead of degrading...
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  // ...except every probe_interval-th consecutive shed decision, which is
  // admitted degraded as the half-open probe. This is the recovery path:
  // without it a 100%-shedding gate would never see another completion.
  EXPECT_EQ(gate.admit(),
            AdmissionVerdict::kAdmittedDegraded);
  gate.release();

  // The probe completed fast: the gate must reopen off that one completion
  // alone — no overloaded() read in between, pinning the eager fold on the
  // completion path while the overload flag is set.
  gate.record_latency(1.0);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_FALSE(gate.overloaded());
}

TEST(AdmissionGate, ProbeIntervalZeroDisablesProbing) {
  AdmissionConfig config;
  config.ewma_alpha = 1.0;
  config.overload_latency_us = 10.0;
  config.shed_on_overload = true;
  config.probe_interval = 0;
  AdmissionGate gate{config};
  gate.record_latency(1000.0);
  ASSERT_TRUE(gate.overloaded());
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  }
}

TEST(AdmissionGate, BoundAboveTheStripeCountAdmitsExactlyTheBound) {
  // The stripe count is at most the hardware thread count, so a bound of
  // twice that plus one spreads several slots over every stripe. One
  // thread must still get the whole bound, then shed.
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  AdmissionConfig config;
  config.max_in_flight = 2 * threads + 1;
  config.policy = AdmissionPolicy::kReject;
  AdmissionGate gate{config};

  for (std::size_t i = 0; i < config.max_in_flight; ++i) {
    ASSERT_EQ(gate.admit(), AdmissionVerdict::kAdmitted) << "admission " << i;
  }
  EXPECT_EQ(gate.in_flight(), config.max_in_flight);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  EXPECT_EQ(gate.in_flight(), config.max_in_flight);  // the shed wrote nothing

  for (std::size_t i = 0; i < config.max_in_flight; ++i) gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  gate.release();
}

TEST(AdmissionGate, NestedAdmitsAndReleasesReturnToZero) {
  AdmissionConfig config;
  config.max_in_flight = 3;
  config.policy = AdmissionPolicy::kReject;
  AdmissionGate gate{config};

  // Interleaved nesting on one thread: units taken from several stripes
  // come back one at a time, in any order, without underflowing a stripe.
  for (int round = 0; round < 4; ++round) {
    ASSERT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
    ASSERT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
    gate.release();
    ASSERT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
    ASSERT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
    EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
    EXPECT_EQ(gate.in_flight(), 3u);
    gate.release();
    gate.release();
    EXPECT_EQ(gate.in_flight(), 1u);
    gate.release();
    EXPECT_EQ(gate.in_flight(), 0u);
  }
}

TEST(AdmissionGate, OverBoundDegradeAndProbeUnitsReleaseWithoutLeaking) {
  AdmissionConfig config;
  config.max_in_flight = 2;
  config.policy = AdmissionPolicy::kDegrade;
  config.ewma_alpha = 1.0;
  config.overload_latency_us = 10.0;
  config.shed_on_overload = true;
  config.probe_interval = 2;
  AdmissionGate gate{config};

  // kDegrade beyond the bound: two admissions fill it, two more exceed it.
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmittedDegraded);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmittedDegraded);
  EXPECT_EQ(gate.in_flight(), 4u);

  // Shed posture with the bound still full: every other decision is a
  // probe that claims a unit above the bound.
  gate.record_latency(1000.0);
  ASSERT_TRUE(gate.overloaded());
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmittedDegraded);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kShed);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmittedDegraded);
  EXPECT_EQ(gate.in_flight(), 6u);

  for (int i = 0; i < 6; ++i) gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);

  // Every credit came back: once the detector recovers, the full bound is
  // available again and nothing beyond it.
  gate.record_latency(1.0);
  ASSERT_FALSE(gate.overloaded());
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmitted);
  EXPECT_EQ(gate.admit(), AdmissionVerdict::kAdmittedDegraded);
  for (int i = 0; i < 3; ++i) gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(CircuitBreaker, DisabledBreakerNeverShortCircuits) {
  CircuitBreaker breaker{0};
  EXPECT_FALSE(breaker.enabled());
  for (int i = 0; i < 10; ++i) breaker.record(1, 2, /*disconnected=*/true);
  EXPECT_FALSE(breaker.should_short_circuit(1, 2));
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, OpensAtTheThresholdWithinOneEpoch) {
  CircuitBreaker breaker{3};
  breaker.record(1, 2, true);
  breaker.record(1, 2, true);
  EXPECT_FALSE(breaker.should_short_circuit(1, 2));  // streak 2 < 3
  breaker.record(1, 2, true);
  EXPECT_TRUE(breaker.should_short_circuit(1, 2));
  EXPECT_EQ(breaker.trips(), 1u);
  // A different pair is unaffected.
  EXPECT_FALSE(breaker.should_short_circuit(2, 1));
}

TEST(CircuitBreaker, SuccessResetsTheStreak) {
  CircuitBreaker breaker{2};
  breaker.record(7, 9, true);
  breaker.record(7, 9, false);  // connectivity came back mid-streak
  breaker.record(7, 9, true);
  EXPECT_FALSE(breaker.should_short_circuit(7, 9));
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, EpochAdvanceGivesThePairAFreshChance) {
  CircuitBreaker breaker{2};
  breaker.record(3, 4, true);
  breaker.record(3, 4, true);
  ASSERT_TRUE(breaker.should_short_circuit(3, 4));
  // The fault landscape changed: the open breaker from the old epoch must
  // not short-circuit new queries, and the streak restarts. The advance is
  // wait-free; the stale entry resets lazily on its next touch.
  breaker.advance_fault_epoch();
  EXPECT_EQ(breaker.fault_epoch(), 1u);
  EXPECT_FALSE(breaker.should_short_circuit(3, 4));
  breaker.record(3, 4, true);
  EXPECT_FALSE(breaker.should_short_circuit(3, 4));
  breaker.record(3, 4, true);
  EXPECT_TRUE(breaker.should_short_circuit(3, 4));
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreaker, ConcurrentRecordsReachTheThresholdOnce) {
  CircuitBreaker breaker{1};  // every disconnect opens
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        breaker.record(t, t + 1, true);
        (void)breaker.should_short_circuit(t, t + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // One trip per pair: the open breaker must not re-trip on every record.
  EXPECT_EQ(breaker.trips(), kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(breaker.should_short_circuit(t, t + 1));
  }
}

}  // namespace
}  // namespace hhc::query

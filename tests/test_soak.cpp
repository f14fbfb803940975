// Short deterministic soak runs (< 60 s even under sanitizers) asserting
// the overload contract end to end: no stuck queries, bounded deadline
// overrun, deterministic breaker sheds on the hostile pair, and recovery
// after scheduled repairs. Timing-derived fields (percentiles, EWMA) are
// machine-dependent, so every assertion here is an invariant, not an exact
// latency value.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/soak.hpp"

namespace hhc::sim {
namespace {

SoakConfig base_config() {
  SoakConfig config;
  config.m = 1;  // 8-node clusters keep sanitizer runs well under a minute
  config.epochs = 6;
  config.queries_per_epoch = 64;
  config.workers = 2;
  config.max_queued = 1024;  // no door sheds unless a test wants them
  config.fault_rate = 0.5;
  config.seed = 11;
  return config;
}

TEST(Soak, EveryArrivalIsAccountedForAndNoneGetStuck) {
  const SoakReport report = run_soak(base_config());
  EXPECT_EQ(report.stuck, 0u);
  EXPECT_EQ(report.completed + report.door_shed, report.offered);
  // Outcome partition over completed queries.
  EXPECT_EQ(report.ok + report.shed + report.timed_out, report.completed);
  EXPECT_EQ(report.epochs.size(), base_config().epochs);
}

TEST(Soak, DeadlinesNeverOverrunByMoreThanTheContractSlack) {
  SoakConfig config = base_config();
  config.deadline_us = 2000.0;
  config.admission.max_in_flight = 2;
  config.admission.policy = query::AdmissionPolicy::kReject;
  const SoakReport report = run_soak(config);

  EXPECT_EQ(report.stuck, 0u);
  // The cooperative-cancellation contract: completion past a deadline is
  // bounded by one stage-check interval. The slack here is generous (far
  // beyond 64 BFS expansions) because sanitizer builds and CI preemption
  // stretch wall time, but a service that parks a query past its deadline
  // blows through even this.
  EXPECT_LT(report.max_overrun_us, 100000.0);  // 100 ms
}

TEST(Soak, HostilePairTripsTheBreakerDeterministically) {
  SoakConfig config = base_config();
  config.fault_rate = 1.0;  // every epoch severs the hostile node
  config.queries_per_epoch = 0;  // hostile traffic only: exact counts below
  config.hostile_per_epoch = 6;
  config.admission.breaker_threshold = 3;
  const SoakReport report = run_soak(config);

  // Each epoch: 3 authoritative disconnects open the breaker, the other 3
  // hostile queries short-circuit to kShed.
  EXPECT_EQ(report.breaker_trips, config.epochs);
  EXPECT_EQ(report.breaker_short_circuits, 3 * config.epochs);
  EXPECT_GE(report.shed, report.breaker_short_circuits);
  EXPECT_EQ(report.stuck, 0u);
}

TEST(Soak, OkRateRecoversAfterRepairs) {
  SoakConfig config = base_config();
  config.hostile_per_epoch = 4;
  config.admission.breaker_threshold = 2;
  config.repair_after = 1;  // every outage heals before the next epoch
  const SoakReport report = run_soak(config);

  std::size_t faulted = 0, healed = 0;
  for (const SoakEpoch& epoch : report.epochs) {
    (epoch.faults_active > 0 ? faulted : healed) += 1;
  }
  ASSERT_GT(faulted, 0u) << "seed produced no outage epochs; pick another";
  ASSERT_GT(healed, 0u) << "seed produced no healed epochs; pick another";
  // Repairs restore full service: healed epochs answer everything
  // authoritatively, so recovery is monotone across the repair boundary.
  EXPECT_DOUBLE_EQ(report.healed_ok_rate, 1.0);
  EXPECT_GE(report.healed_ok_rate, report.faulted_ok_rate);
}

TEST(Soak, SingleWorkerRunsAreFullyDeterministic) {
  SoakConfig config = base_config();
  config.workers = 1;  // serial consumption: even breaker streaks replay
  config.admission.breaker_threshold = 2;
  const SoakReport a = run_soak(config);
  const SoakReport b = run_soak(config);

  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.disconnected, b.disconnected);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.breaker_short_circuits, b.breaker_short_circuits);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].faults_active, b.epochs[i].faults_active);
    EXPECT_EQ(a.epochs[i].ok, b.epochs[i].ok);
    EXPECT_EQ(a.epochs[i].shed, b.epochs[i].shed);
    EXPECT_EQ(a.epochs[i].disconnected, b.epochs[i].disconnected);
  }
}

TEST(Soak, DoorShedsKickInWhenTheArrivalQueueIsBounded) {
  SoakConfig config = base_config();
  config.queries_per_epoch = 512;
  config.workers = 1;
  config.max_queued = 0;  // admit only into an empty queue: sheds guaranteed
  const SoakReport report = run_soak(config);
  EXPECT_GT(report.door_shed, 0u);
  EXPECT_EQ(report.completed + report.door_shed, report.offered);
  EXPECT_EQ(report.stuck, 0u);
}

TEST(Soak, ClosedLoopAccountsEveryArrivalWithNoDoorSheds) {
  SoakConfig config = base_config();
  config.closed_loop = true;
  config.workers = 4;
  const SoakReport report = run_soak(config);
  EXPECT_EQ(report.stuck, 0u);
  EXPECT_EQ(report.door_shed, 0u);  // issue-on-completion never door-sheds
  EXPECT_EQ(report.completed, report.offered);
  EXPECT_EQ(report.ok + report.shed + report.timed_out, report.completed);
  EXPECT_GT(report.goodput_qps(), 0.0);
}

TEST(Soak, ClosedLoopConsumesTheSameSeededQueryStream) {
  // Both arrival models draw (s, t) pairs from the seeded RNG in the same
  // order, so single-stream closed-loop and single-worker open-loop runs
  // of one seed answer the SAME queries — the outcome mix (which ignores
  // timing) must match exactly when nothing sheds or expires.
  SoakConfig open = base_config();
  open.workers = 1;
  open.admission.breaker_threshold = 2;
  SoakConfig closed = open;
  closed.closed_loop = true;

  const SoakReport a = run_soak(open);
  const SoakReport b = run_soak(closed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.disconnected, b.disconnected);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].faults_active, b.epochs[i].faults_active);
    EXPECT_EQ(a.epochs[i].ok, b.epochs[i].ok);
    EXPECT_EQ(a.epochs[i].disconnected, b.epochs[i].disconnected);
  }
}

TEST(Soak, ReportRendersCsvAndJson) {
  SoakConfig config = base_config();
  config.epochs = 2;
  config.queries_per_epoch = 16;
  const SoakReport report = run_soak(config);

  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("epoch,faults,offered"), std::string::npos);
  // Header + one row per epoch + the total row.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            config.epochs + 1);

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"stuck\":0"), std::string::npos);
  EXPECT_NE(json.find("\"healed_ok_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"closed_loop\":false"), std::string::npos);
  EXPECT_NE(json.find("\"goodput_qps\""), std::string::npos);
}

}  // namespace
}  // namespace hhc::sim

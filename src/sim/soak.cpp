#include "sim/soak.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>
#include <thread>
#include <vector>

#include "core/fault_model.hpp"
#include "core/io.hpp"
#include "core/topology.hpp"
#include "query/path_service.hpp"
#include "sim/resilient.hpp"
#include "sim/stats.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hhc::sim {

namespace {

// One arrival's fate, written by exactly one task (or the generator, for
// door sheds and hostile queries) — indexed slots, no locking.
enum class SlotState : std::uint8_t { kPending, kCompleted, kDoorShed };

// Closed-loop retry of a shed query: attempt k (k >= 1) waits a seeded
// jittered_wait() of kBackoffBaseNs << k first, up to kMaxAttempts in all.
// The query's deadline covers the retries: one that expires while backing
// off answers kTimedOut and ends them.
constexpr std::size_t kMaxAttempts = 8;
constexpr std::uint64_t kBackoffBaseNs = 10'000;

struct Slot {
  std::atomic<SlotState> state{SlotState::kPending};
  query::RouteOutcome outcome = query::RouteOutcome::kOk;
  bool disconnected = false;  // authoritative kOk + kDisconnected
  double micros = 0.0;
  double overrun_us = 0.0;  // completion past the query's own deadline
};

void record(Slot& slot, const query::RouteResult& result,
            const util::Deadline& deadline) {
  slot.outcome = result.outcome;
  slot.disconnected =
      result.outcome == query::RouteOutcome::kOk &&
      result.level == query::DegradationLevel::kDisconnected;
  slot.micros = result.micros;
  // remaining_micros is +inf for unarmed deadlines, so the overrun clamps
  // to zero and deadline-free soaks report 0 throughout.
  const double over = -deadline.remaining_micros();
  slot.overrun_us = over > 0.0 ? over : 0.0;
  slot.state.store(SlotState::kCompleted, std::memory_order_release);
}

// The adversarial fault schedule: each epoch independently starts an
// outage with probability fault_rate, failing faults_per_burst random
// nodes (never the anchor, node 0) for [epoch, epoch + repair_after).
// Outage epochs also sever the hostile node so the anchor->hostile pair is
// deterministically disconnected there. Pure function of the RNG state.
core::FaultModel build_schedule(const core::HhcTopology& net,
                                const SoakConfig& config, core::Node hostile,
                                util::Xoshiro256& rng) {
  core::FaultModel model;
  for (std::uint64_t e = 0; e < config.epochs; ++e) {
    if (!rng.chance(config.fault_rate)) continue;
    const std::uint64_t repaired = e + config.repair_after;
    for (std::size_t i = 0; i < config.faults_per_burst; ++i) {
      const core::Node v = 1 + rng.below(net.node_count() - 1);
      if (v == hostile) continue;  // hostile gets its own window below
      model.fail_node(v, e, repaired);
    }
    if (config.hostile_per_epoch > 0) model.fail_node(hostile, e, repaired);
  }
  return model;
}

}  // namespace

SoakReport run_soak(const SoakConfig& config) {
  const core::HhcTopology net{config.m};
  const core::Node hostile = net.node_count() - 1;
  constexpr core::Node kAnchor = 0;

  util::Xoshiro256 rng{config.seed};
  const core::FaultModel model = build_schedule(net, config, hostile, rng);

  query::PathServiceConfig service_config;
  service_config.admission = config.admission;
  query::PathService service{net, service_config};

  const std::size_t per_epoch =
      config.queries_per_epoch + config.hostile_per_epoch;
  std::vector<Slot> slots(config.epochs * per_epoch);
  util::ThreadPool pool{std::max<std::size_t>(1, config.workers)};

  SoakReport report;
  report.config = config;
  for (std::uint64_t e = 0; e < config.epochs; ++e) {
    if (e > 0) service.advance_fault_epoch();
    const std::size_t base = e * per_epoch;
    // wall_seconds covers the traffic phases only: not the topology build,
    // the thread-pool spawn, or the per-epoch bookkeeping below.
    const util::Stopwatch traffic;

    SoakEpoch row;
    row.epoch = e;
    row.faults_active = model.fault_count(e);
    row.offered = per_epoch;

    if (config.closed_loop) {
      // Closed-loop arrivals: pre-generate the epoch's pairs (consuming
      // the RNG exactly like the open-loop generator — two draws per
      // query), then let `workers` fixed streams race an index counter,
      // each issuing its next query only when the previous one completed.
      // A shed stream backs off and retries the same query, so goodput
      // counts distinct completed queries, not how fast shedders drain the
      // list. Deadlines are armed at issue time: a closed-loop query's
      // budget starts when it is issued, not when the epoch was generated.
      std::vector<std::pair<core::Node, core::Node>> pairs(
          config.queries_per_epoch);
      for (auto& [s, t] : pairs) {
        s = rng.below(net.node_count());
        t = rng.below(net.node_count());
      }
      std::atomic<std::size_t> next{0};
      const std::size_t streams = std::max<std::size_t>(1, config.workers);
      for (std::size_t w = 0; w < streams; ++w) {
        pool.submit([&service, &model, &pairs, &next, &slots, &config, base,
                     e, w] {
          util::Xoshiro256 backoff{config.seed ^ (e << 32) ^ (w + 1)};
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= pairs.size()) return;
            query::PairQuery query;
            query.s = pairs[i].first;
            query.t = pairs[i].second;
            query.faults = &model;
            query.time = e;
            if (config.deadline_us > 0.0) {
              query.deadline = util::Deadline::after_micros(config.deadline_us);
            }
            query::RouteResult result = service.answer(query);
            for (std::size_t attempt = 1;
                 result.outcome == query::RouteOutcome::kShed &&
                 attempt < kMaxAttempts;
                 ++attempt) {
              std::this_thread::sleep_for(std::chrono::nanoseconds{
                  jittered_wait(kBackoffBaseNs << attempt, backoff)});
              result = service.answer(query);
            }
            record(slots[base + i], result, query.deadline);
          }
        });
      }
      pool.wait_idle();  // pairs/next are epoch-scoped; drain before they die
    } else {
      // Open-loop arrivals: the generator submits the whole epoch's traffic
      // without waiting; the bounded queue sheds the excess at the door.
      for (std::size_t i = 0; i < config.queries_per_epoch; ++i) {
        query::PairQuery query;
        query.s = rng.below(net.node_count());
        query.t = rng.below(net.node_count());
        query.faults = &model;
        query.time = e;
        if (config.deadline_us > 0.0) {
          query.deadline = util::Deadline::after_micros(config.deadline_us);
        }
        Slot& slot = slots[base + i];
        const bool queued = pool.try_submit(
            [&service, &slot, query] {
              record(slot, service.answer(query), query.deadline);
            },
            config.max_queued);
        if (!queued) {
          slot.state.store(SlotState::kDoorShed, std::memory_order_relaxed);
          ++row.door_shed;
        }
      }
    }

    // Hostile traffic runs inline so its disconnect streak is in arrival
    // order — what the circuit breaker counts.
    for (std::size_t i = 0; i < config.hostile_per_epoch; ++i) {
      query::PairQuery query;
      query.s = kAnchor;
      query.t = hostile;
      query.faults = &model;
      query.time = e;
      if (config.deadline_us > 0.0) {
        query.deadline = util::Deadline::after_micros(config.deadline_us);
      }
      record(slots[base + config.queries_per_epoch + i], service.answer(query),
             query.deadline);
    }

    pool.wait_idle();  // epoch barrier: the next epoch is a new fault world
    report.wall_seconds += traffic.seconds();

    std::vector<std::uint64_t> latencies;
    latencies.reserve(per_epoch);
    for (std::size_t i = 0; i < per_epoch; ++i) {
      const Slot& slot = slots[base + i];
      if (slot.state.load(std::memory_order_acquire) != SlotState::kCompleted) {
        continue;
      }
      switch (slot.outcome) {
        case query::RouteOutcome::kOk: ++row.ok; break;
        case query::RouteOutcome::kShed: ++row.shed; break;
        case query::RouteOutcome::kTimedOut: ++row.timed_out; break;
        case query::RouteOutcome::kInvalid: break;  // soak never sends these
      }
      if (slot.disconnected) ++row.disconnected;
      latencies.push_back(static_cast<std::uint64_t>(slot.micros));
      report.max_overrun_us = std::max(report.max_overrun_us, slot.overrun_us);
    }
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      row.p50_us = static_cast<double>(percentile(latencies, 0.5));
      row.p99_us = static_cast<double>(percentile(latencies, 0.99));
      row.max_us = static_cast<double>(latencies.back());
    }
    report.epochs.push_back(row);
  }

  // Aggregates + the recovery split.
  double faulted_sum = 0.0, healed_sum = 0.0;
  std::size_t faulted_epochs = 0, healed_epochs = 0;
  for (const SoakEpoch& row : report.epochs) {
    report.offered += row.offered;
    report.door_shed += row.door_shed;
    report.ok += row.ok;
    report.shed += row.shed;
    report.timed_out += row.timed_out;
    report.disconnected += row.disconnected;
    if (row.faults_active > 0) {
      faulted_sum += row.ok_rate();
      ++faulted_epochs;
    } else {
      healed_sum += row.ok_rate();
      ++healed_epochs;
    }
  }
  for (const Slot& slot : slots) {
    const SlotState state = slot.state.load(std::memory_order_acquire);
    if (state == SlotState::kCompleted) ++report.completed;
    if (state == SlotState::kPending) ++report.stuck;
  }
  if (faulted_epochs > 0) {
    report.faulted_ok_rate = faulted_sum / static_cast<double>(faulted_epochs);
  }
  if (healed_epochs > 0) {
    report.healed_ok_rate = healed_sum / static_cast<double>(healed_epochs);
  }

  const query::ServiceStats stats = service.stats();
  report.breaker_trips = stats.breaker_trips;
  report.breaker_short_circuits = stats.breaker_short_circuits;
  return report;
}

namespace {

std::vector<std::string> epoch_cells(const SoakEpoch& row) {
  return {std::to_string(row.epoch),
          std::to_string(row.faults_active),
          std::to_string(row.offered),
          std::to_string(row.door_shed),
          std::to_string(row.ok),
          std::to_string(row.shed),
          std::to_string(row.timed_out),
          std::to_string(row.disconnected),
          std::to_string(row.p50_us),
          std::to_string(row.p99_us),
          std::to_string(row.max_us)};
}

void epoch_json(core::JsonWriter& json, const SoakEpoch& row) {
  json.begin_object();
  json.key("epoch").value(row.epoch);
  json.key("faults_active").value(std::uint64_t{row.faults_active});
  json.key("offered").value(std::uint64_t{row.offered});
  json.key("door_shed").value(std::uint64_t{row.door_shed});
  json.key("ok").value(std::uint64_t{row.ok});
  json.key("shed").value(std::uint64_t{row.shed});
  json.key("timed_out").value(std::uint64_t{row.timed_out});
  json.key("disconnected").value(std::uint64_t{row.disconnected});
  json.key("p50_us").value(row.p50_us);
  json.key("p99_us").value(row.p99_us);
  json.key("max_us").value(row.max_us);
  json.end_object();
}

}  // namespace

std::string SoakReport::to_csv() const {
  std::string out = core::csv_row({"epoch", "faults", "offered", "door_shed",
                                   "ok", "shed", "timed_out", "disconnected",
                                   "p50_us", "p99_us", "max_us"});
  for (const SoakEpoch& row : epochs) {
    out += '\n';
    out += core::csv_row(epoch_cells(row));
  }
  out += '\n';
  out += core::csv_row({"total", "", std::to_string(offered),
                        std::to_string(door_shed), std::to_string(ok),
                        std::to_string(shed), std::to_string(timed_out),
                        std::to_string(disconnected), "", "",
                        std::to_string(max_overrun_us)});
  return out;
}

std::string SoakReport::to_json() const {
  core::JsonWriter json;
  json.begin_object();
  json.key("config").begin_object();
  json.key("m").value(static_cast<std::uint64_t>(config.m));
  json.key("epochs").value(std::uint64_t{config.epochs});
  json.key("queries_per_epoch").value(std::uint64_t{config.queries_per_epoch});
  json.key("hostile_per_epoch").value(std::uint64_t{config.hostile_per_epoch});
  json.key("workers").value(std::uint64_t{config.workers});
  json.key("max_queued").value(std::uint64_t{config.max_queued});
  json.key("closed_loop").value(config.closed_loop);
  json.key("deadline_us").value(config.deadline_us);
  json.key("fault_rate").value(config.fault_rate);
  json.key("faults_per_burst").value(std::uint64_t{config.faults_per_burst});
  json.key("repair_after").value(config.repair_after);
  json.key("seed").value(config.seed);
  json.key("admission_policy")
      .value(query::to_string(config.admission.policy));
  json.key("max_in_flight").value(std::uint64_t{config.admission.max_in_flight});
  json.key("breaker_threshold")
      .value(std::uint64_t{config.admission.breaker_threshold});
  json.end_object();
  json.key("epochs").begin_array();
  for (const SoakEpoch& row : epochs) epoch_json(json, row);
  json.end_array();
  json.key("offered").value(std::uint64_t{offered});
  json.key("completed").value(std::uint64_t{completed});
  json.key("door_shed").value(std::uint64_t{door_shed});
  json.key("ok").value(std::uint64_t{ok});
  json.key("shed").value(std::uint64_t{shed});
  json.key("timed_out").value(std::uint64_t{timed_out});
  json.key("disconnected").value(std::uint64_t{disconnected});
  json.key("stuck").value(std::uint64_t{stuck});
  json.key("max_overrun_us").value(max_overrun_us);
  json.key("breaker_trips").value(breaker_trips);
  json.key("breaker_short_circuits").value(breaker_short_circuits);
  json.key("faulted_ok_rate").value(faulted_ok_rate);
  json.key("healed_ok_rate").value(healed_ok_rate);
  json.key("goodput_qps").value(goodput_qps());
  json.key("wall_seconds").value(wall_seconds);
  json.end_object();
  return json.str();
}

void SoakReport::print(std::ostream& os) const {
  util::Table table{{"epoch", "faults", "offered", "door-shed", "ok", "shed",
                     "timed-out", "disc", "p50us", "p99us", "maxus"}};
  for (const SoakEpoch& row : epochs) {
    table.row()
        .add(row.epoch)
        .add(std::uint64_t{row.faults_active})
        .add(std::uint64_t{row.offered})
        .add(std::uint64_t{row.door_shed})
        .add(std::uint64_t{row.ok})
        .add(std::uint64_t{row.shed})
        .add(std::uint64_t{row.timed_out})
        .add(std::uint64_t{row.disconnected})
        .add(row.p50_us, 1)
        .add(row.p99_us, 1)
        .add(row.max_us, 1);
  }
  table.print(os, "soak: per-epoch outcome mix");
  os << "offered " << offered << ", completed " << completed << ", door-shed "
     << door_shed << ", stuck " << stuck << '\n'
     << "ok " << ok << ", shed " << shed << ", timed-out " << timed_out
     << ", disconnected " << disconnected << '\n'
     << "max deadline overrun " << max_overrun_us << " us\n"
     << "breaker: " << breaker_trips << " trips, " << breaker_short_circuits
     << " short-circuits\n"
     << "ok-rate faulted " << faulted_ok_rate << " vs healed "
     << healed_ok_rate << " (recovery)\n"
     << "goodput " << goodput_qps() << " qps ("
     << (config.closed_loop ? "closed" : "open") << "-loop)\n"
     << "wall " << wall_seconds << " s\n";
}

}  // namespace hhc::sim

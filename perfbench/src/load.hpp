// The four workloads: their set-up and their timed load phases against
// the public PathService API, with every answer checked afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_model.hpp"
#include "core/topology.hpp"
#include "pairs.hpp"
#include "query/path_service.hpp"
#include "samples.hpp"

namespace perfbench {

enum class Workload { kHot, kCold, kMixed, kOverload };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload workload) noexcept;

/// Cluster dimension of each workload: m = 4 (2^20 nodes) everywhere but
/// overload, whose disconnected pairs would pay a 0.2-1 s survivor BFS at
/// m = 4 and make its tail a lottery.
[[nodiscard]] unsigned workload_m(Workload workload) noexcept;

/// Constants of the overload workload, recorded with every result.
struct OverloadShape {
  static constexpr double kOfferedRate = 500000.0;  // arrivals per second
  static constexpr double kEpochSeconds = 0.5;      // fault model lifetime
  static constexpr double kDeadlineMicros = 2000.0; // from the due time
  static constexpr std::size_t kQueueCapacity = 256;
  static constexpr double kFaultShare = 0.03;       // of nodes and of links
};

/// Everything set-up builds: the topology, the seeded inputs and a warm
/// service. Members are declared in dependency order so the service is
/// destroyed before the topology it references.
struct Env {
  Workload workload = Workload::kHot;
  std::uint64_t seed = 0;
  std::unique_ptr<hhc::core::HhcTopology> net;
  std::vector<Pair> pool;                      // hot, mixed, overload
  std::vector<hhc::core::FaultModel> epochs;   // overload: one per epoch
  std::vector<FreshStream> streams;            // cold clients, mixed writer
  std::unique_ptr<hhc::query::PathService> service;
};

[[nodiscard]] hhc::query::PathServiceConfig service_config(Workload workload);

/// Seeded fault model of one overload epoch.
[[nodiscard]] hhc::core::FaultModel epoch_faults(
    const hhc::core::HhcTopology& net, std::uint64_t seed, std::size_t epoch);

/// Builds the topology, generates the pairs, constructs the service and
/// warms it (answering each pool pair once), then resets the service
/// stats so warm-up traffic is not counted.
[[nodiscard]] Env set_up(Workload workload, std::uint64_t seed,
                         double seconds);

/// Every arrival ends in exactly one of these.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t invalid = 0;
  std::uint64_t refused = 0;  // overload: the arrival queue was full

  void add(const Outcomes& other) noexcept;
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return shed + timed_out + invalid + refused;
  }
};

struct LoadResult {
  double wall_s = 0.0;
  std::vector<double> rates;  // per 0.5 s interval (cold: per round)
  double qps = 0.0;           // median of `rates`
  double writer_qps = 0.0;  // mixed: median 0.5 s rate of writer misses
  std::uint64_t counted_ok = 0;  // ok answers in qps (readers on mixed)
  Samples latency;               // of the counted answers
  Outcomes outcomes;
  std::uint64_t writer_misses = 0;  // mixed
  Samples gen_lag;                  // overload
  Samples queue_wait;               // overload
  std::uint64_t checked = 0;        // answers checked in full
  std::uint64_t wrong = 0;          // answers that failed a check
  bool accounting_ok = true;        // outcomes partition and match stats()
  std::vector<std::string> errors;  // first few check/accounting failures
  double peak_rss_mb = 0.0;
  double tracer_on_qps_ratio = 0.0;  // hot, traced runs only
  hhc::query::ServiceStats stats;    // after the phase
  std::uint64_t cache_hits = 0;      // during the phase
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
};

/// Runs the workload's timed phase for `seconds`, then checks every answer
/// and the outcome accounting. With `tracer_segments` (hot only) the phase
/// alternates obs::Tracer off/on in four segments to price the program's
/// own instrumentation.
[[nodiscard]] LoadResult run_load(Env& env, double seconds,
                                  bool tracer_segments);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

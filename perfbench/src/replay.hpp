// The traced differential replay: a workload's seeded input, replayed on
// one thread through each layer's public entry point on parallel instances
// kept in identical state, with a span around every call. Per-layer self
// time is measured from outside, as a span's duration minus the durations
// of the calls that model its children.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "load.hpp"

namespace perfbench {

/// One row of the per-layer table.
struct LayerRow {
  std::string layer;
  std::string span;
  std::size_t calls = 0;
  double self_p50_us = 0.0;
  double self_mean_us = 0.0;
  double share = 0.0;    // of end-to-end time
  bool on_path = true;   // false: a reference call no answer waited for
};

struct ReplayResult {
  std::size_t queries = 0;
  std::vector<LayerRow> rows;
  double clock_cost_ns = 0.0;
  double untraced_mean_us = 0.0;  // service call + walk, untimed inside
  double traced_sum_us = 0.0;     // per-query sum of self times (corrected)
  double raw_traced_sum_us = 0.0; // the same without the clock correction
  double construct_p50_us = 0.0;
  double construct_p99_us = 0.0;
  double construct_mean_us = 0.0;
  double cache_hit_us = 0.0;
  double cache_publish_us = 0.0;
  double publish_first_decile_us = 0.0;
  double publish_last_decile_us = 0.0;
  double handle_walk_us = 0.0;
  double service_self_us = 0.0;
  double route_guaranteed_us = 0.0;
  double route_fallback_us = 0.0;
  double fallback_share = 0.0;
  double fan_solves_per_construct = 0.0;
  std::uint64_t wrong = 0;  // layers that disagreed on an answer
  std::vector<std::string> errors;
};

/// Replays `env`'s workload input (its own instances; env.service is not
/// touched) and writes the spans to `spans_csv` when it is non-empty.
[[nodiscard]] ReplayResult replay(const Env& env,
                                  const std::string& spans_csv);

}  // namespace perfbench

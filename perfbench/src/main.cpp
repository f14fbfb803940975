// perfbench — the PathService benchmark harness.
//
//   perfbench --workload <hot|cold|mixed|overload> --seed <n> --seconds <s>
//             --trace <0|1> [--out <results.json>] [--spans <spans.csv>]
//             [--source-id <git sha or tree hash>]
//
// Sets the workload up several times (the median is setup_s), runs its
// timed load phase with program tracing off, checks every answer and the
// outcome accounting, and, with --trace 1, runs the traced differential
// replay for the per-layer numbers. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exit status 0
// only when every check passed.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.hpp"
#include "load.hpp"
#include "replay.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupRepeats = 8;
// Claims are developed on any seed and confirmed on this one, which
// development runs leave alone.
constexpr std::uint64_t kHeldOutSeed = 7177;

struct Args {
  Workload workload = Workload::kHot;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <hot|cold|mixed|overload> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <file>] "
               "[--spans <file>] [--source-id <id>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const std::optional<Workload> workload = parse_workload(value);
      if (!workload) usage("unknown workload " + value);
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto [end, ec] = std::from_chars(
          value.data(), value.data() + value.size(), args.seed);
      if (ec != std::errc{} || end != value.data() + value.size()) {
        usage("bad seed " + value);
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      try {
        args.seconds = std::stod(value);
      } catch (const std::exception&) {
        usage("bad seconds " + value);
      }
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        usage("seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return args;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<int> usable_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(static_cast<int>(cpu));
    }
  }
  return cpus;
}

// Runs `body` on a thread pinned to `cpu` (unpinned when cpu < 0) and
// rethrows whatever it threw.
template <class Body>
void on_cpu(int cpu, Body&& body) {
  std::exception_ptr error;
  std::thread worker{[cpu, &body, &error] {
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<std::size_t>(cpu), &set);
      (void)sched_setaffinity(0, sizeof(set), &set);
    }
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
  }};
  worker.join();
  if (error) std::rethrow_exception(error);
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count etc., printed beside the value
};

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

std::string samples_note(const Samples& samples, double p) {
  const auto beyond = static_cast<std::uint64_t>(
      std::floor((1.0 - p) * static_cast<double>(samples.count())));
  return "n=" + std::to_string(samples.count()) + ", " +
         std::to_string(beyond) + " beyond";
}

std::vector<Metric> end_to_end(const LoadResult& load, double setup_s) {
  return {
      {"qps", load.qps, "1/s",
       "median interval rate; ok=" + std::to_string(load.counted_ok) +
           " in " + number(load.wall_s) + " s"},
      {"latency_p50_us", load.latency.percentile_us(0.50), "us",
       samples_note(load.latency, 0.50)},
      {"latency_p99_us", load.latency.percentile_us(0.99), "us",
       samples_note(load.latency, 0.99)},
      {"setup_s", setup_s, "s",
       "median of " + std::to_string(kSetupRepeats) + " set-ups"},
      {"peak_rss_mb", load.peak_rss_mb, "MB", "after the timed phase"},
  };
}

std::vector<Metric> per_layer(const LoadResult& load,
                              const ReplayResult& replay) {
  const std::uint64_t attempted = load.outcomes.attempted;
  const hhc::query::ServiceStats& stats = load.stats;
  return {
      {"failed_share", share(load.outcomes.failed(), attempted), "ratio",
       "attempted=" + std::to_string(attempted)},
      {"writer_qps", load.writer_qps, "1/s",
       "misses=" + std::to_string(load.writer_misses)},
      {"core.construct_us.p50", replay.construct_p50_us, "us", ""},
      {"core.construct_us.p99", replay.construct_p99_us, "us", ""},
      {"core.construct_us.mean", replay.construct_mean_us, "us", ""},
      {"core.cache_hit_us", replay.cache_hit_us, "us", ""},
      {"core.cache_publish_us", replay.cache_publish_us, "us", ""},
      {"core.publish_first_decile_us", replay.publish_first_decile_us, "us",
       ""},
      {"core.publish_last_decile_us", replay.publish_last_decile_us, "us", ""},
      {"core.handle_walk_us", replay.handle_walk_us, "us", ""},
      {"core.hit_ratio", share(load.cache_hits, load.cache_hits +
                                                    load.cache_misses),
       "ratio", ""},
      {"core.evictions", static_cast<double>(load.cache_evictions), "count",
       ""},
      {"query.service_self_us", replay.service_self_us, "us", ""},
      {"query.shed_share", share(stats.shed, attempted), "ratio", ""},
      {"query.timed_out_share", share(stats.timed_out, attempted), "ratio",
       ""},
      {"query.degraded_share", share(stats.degraded_admissions, attempted),
       "ratio", ""},
      {"query.breaker_share", share(stats.breaker_short_circuits, attempted),
       "ratio", ""},
      {"fault.route_guaranteed_us", replay.route_guaranteed_us, "us", ""},
      {"fault.route_fallback_us", replay.route_fallback_us, "us", ""},
      {"fault.fallback_share", replay.fallback_share, "ratio", ""},
      {"graph.fan_solves_per_construct", replay.fan_solves_per_construct,
       "count", ""},
      {"obs.tracer_on_qps_ratio", load.tracer_on_qps_ratio, "ratio", ""},
      {"bench.gen_lag_p99_us", load.gen_lag.percentile_us(0.99), "us",
       samples_note(load.gen_lag, 0.99)},
      {"bench.queue_wait_p99_us", load.queue_wait.percentile_us(0.99), "us",
       samples_note(load.queue_wait, 0.99)},
      {"bench.clock_cost_ns", replay.clock_cost_ns, "ns", ""},
      {"bench.reconcile_error",
       replay.untraced_mean_us > 0
           ? std::abs(replay.traced_sum_us / replay.untraced_mean_us - 1.0)
           : 0.0,
       "ratio", "must stay <= 0.10 on hot and cold"},
      {"bench.trace_overhead_ratio",
       replay.untraced_mean_us > 0
           ? replay.raw_traced_sum_us / replay.untraced_mean_us
           : 0.0,
       "ratio", ""},
  };
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_table(const ReplayResult& replay, Workload workload) {
  std::printf(
      "\nper-layer self time, traced replay of %zu %s queries "
      "(clock cost %.1f ns subtracted per span)\n",
      replay.queries, to_string(workload), replay.clock_cost_ns);
  std::printf("  %-6s %-28s %9s %12s %12s %8s\n", "layer", "span", "calls",
              "self_p50_us", "self_mean_us", "share");
  for (const LayerRow& row : replay.rows) {
    char share_text[16];
    if (!row.on_path) {
      std::snprintf(share_text, sizeof(share_text), "%s", "-");
    } else {
      std::snprintf(share_text, sizeof(share_text), "%.1f%%",
                    100.0 * row.share);
    }
    std::printf("  %-6s %-28s %9zu %12.4f %12.4f %8s\n", row.layer.c_str(),
                row.span.c_str(), row.calls, row.self_p50_us,
                row.self_mean_us, share_text);
  }
  const double ratio = replay.untraced_mean_us > 0
                           ? replay.traced_sum_us / replay.untraced_mean_us
                           : 0.0;
  std::printf(
      "  sum of self times %.4f us/query vs untraced %.4f us/query: "
      "ratio %.4f (%s 10%%); uncorrected spans ratio %.4f\n",
      replay.traced_sum_us, replay.untraced_mean_us, ratio,
      std::abs(ratio - 1.0) <= 0.10 ? "within" : "OUTSIDE",
      replay.untraced_mean_us > 0
          ? replay.raw_traced_sum_us / replay.untraced_mean_us
          : 0.0);
}

int run(const Args& args) {
  std::vector<std::string> errors;

  const std::vector<std::string> missed =
      gate_self_test(hhc::core::HhcTopology{workload_m(args.workload)});
  for (const std::string& name : missed) {
    errors.push_back("answer check missed a corruption: " + name);
  }

  // Each set-up runs on its own thread, pinned to the usable cores in turn:
  // on a shared host one core can run far slower than the others for
  // seconds at a time, and the median should not depend on which core
  // main() landed on.
  const std::vector<int> cpus = usable_cpus();
  std::vector<double> setups;
  Env env;
  for (int r = 0; r < kSetupRepeats; ++r) {
    env.service.reset();  // before the topology it references goes
    env = Env{};
    const int cpu = cpus.empty() ? -1
                                 : cpus[static_cast<std::size_t>(r) %
                                        cpus.size()];
    on_cpu(cpu, [&] {
      const std::uint64_t t0 = now_ns();
      env = set_up(args.workload, args.seed, args.seconds);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    });
  }
  const double setup_s = percentile(setups, 0.5);

  LoadResult load = run_load(env, args.seconds,
                             args.trace && args.workload == Workload::kHot);
  ReplayResult replayed;
  if (args.trace) replayed = replay(env, args.spans);

  for (const std::string& error : load.errors) errors.push_back(error);
  for (const std::string& error : replayed.errors) errors.push_back(error);
  const std::uint64_t wrong = load.wrong + replayed.wrong;
  const bool correct = errors.empty() && wrong == 0 && load.accounting_ok;

  const std::vector<Metric> metrics =
      args.trace ? per_layer(load, replayed) : end_to_end(load, setup_s);

  std::ostringstream provenance;
  provenance << "{\"source_id\": " << quoted(args.source_id)
             << ", \"nproc\": " << cpus.size()
             << ", \"cpu\": " << quoted(cpu_model())
             << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
             << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
             << ", \"seed\": " << args.seed
             << ", \"heldout_seed\": " << kHeldOutSeed
             << ", \"overload_offered_rate\": "
             << number(OverloadShape::kOfferedRate) << "}";

  const Outcomes& o = load.outcomes;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              to_string(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("provenance: %s\n", provenance.str().c_str());
  std::printf(
      "outcomes: attempted=%llu ok=%llu shed=%llu timed_out=%llu "
      "invalid=%llu refused=%llu; answers checked in full=%llu wrong=%llu; "
      "accounting %s\n",
      static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.ok),
      static_cast<unsigned long long>(o.shed),
      static_cast<unsigned long long>(o.timed_out),
      static_cast<unsigned long long>(o.invalid),
      static_cast<unsigned long long>(o.refused),
      static_cast<unsigned long long>(load.checked),
      static_cast<unsigned long long>(wrong),
      load.accounting_ok ? "ok" : "FAILED");
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %16.6f %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
  if (args.trace) print_table(replayed, args.workload);
  for (const std::string& error : errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }

  const std::string line =
      std::string{"{\"correct\": "} + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(o.attempted, 1)) +
      ", \"failed\": " + std::to_string(wrong) +
      ", \"metrics\": " + metrics_json(metrics) + "}";

  if (!args.out.empty()) {
    std::ofstream out{args.out};
    out << "{\"workload\": " << quoted(to_string(args.workload))
        << ", \"provenance\": " << provenance.str()
        << ", \"seconds\": " << number(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"wall_s\": " << number(load.wall_s)
        << ", \"setup_runs_s\": [";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      out << (i > 0 ? ", " : "") << number(setups[i]);
    }
    out << "], \"qps_rates\": [";
    for (std::size_t i = 0; i < load.rates.size(); ++i) {
      out << (i > 0 ? ", " : "") << number(load.rates[i]);
    }
    out << "], \"outcomes\": {\"attempted\": " << o.attempted
        << ", \"ok\": " << o.ok << ", \"shed\": " << o.shed
        << ", \"timed_out\": " << o.timed_out << ", \"invalid\": " << o.invalid
        << ", \"refused\": " << o.refused << "}, \"latency_samples\": "
        << load.latency.count() << ", \"checked\": " << load.checked
        << ", \"layers\": [";
    for (std::size_t i = 0; i < replayed.rows.size(); ++i) {
      const LayerRow& row = replayed.rows[i];
      out << (i > 0 ? ", " : "") << "{\"layer\": " << quoted(row.layer)
          << ", \"span\": " << quoted(row.span) << ", \"calls\": " << row.calls
          << ", \"self_p50_us\": " << number(row.self_p50_us)
          << ", \"self_mean_us\": " << number(row.self_mean_us)
          << ", \"share\": " << number(row.share)
          << ", \"on_path\": " << (row.on_path ? "true" : "false") << "}";
    }
    out << "], \"result\": " << line << "}\n";
  }

  std::fflush(stdout);
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}

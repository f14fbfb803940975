#include "replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>

#include "check.hpp"
#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "fault/adaptive_router.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hhc::core::ContainerCache;
using hhc::core::ContainerHandle;
using hhc::core::HhcTopology;
using hhc::query::DegradationLevel;
using hhc::query::PairQuery;
using hhc::query::PathService;
using hhc::query::RouteOutcome;

namespace {

constexpr double kZipfSkew = 0.99;
constexpr std::size_t kMixedWriterStride = 32;  // 1 writer pair in 32
constexpr std::size_t kReplayEpochs = 4;        // overload
constexpr std::size_t kFanProbeQueries = 2000;
constexpr std::size_t kReplayBlock = 1000;

// Keeps the untraced pass's walks observable.
volatile std::uint64_t g_sink = 0;

std::size_t replay_length(Workload workload) {
  switch (workload) {
    case Workload::kHot: return 40000;
    case Workload::kCold: return 16000;  // the fill is quadratic
    case Workload::kMixed: return 40000;
    case Workload::kOverload: return 20000;
  }
  return 0;
}

struct ReplayQuery {
  Pair pair;
  bool fault_aware = false;
  std::size_t epoch = 0;
};

// The same seeded draws the timed phase makes: hot/mixed replay reader 0's
// Zipf stream, cold replays client 0's fresh stream, mixed slips in one
// writer pair every kMixedWriterStride queries, overload replays the
// generator's stream spread over kReplayEpochs fault epochs.
std::vector<ReplayQuery> replay_input(const Env& env) {
  const std::size_t n = replay_length(env.workload);
  std::vector<ReplayQuery> input;
  input.reserve(n);
  hhc::util::Xoshiro256 rng = stream_rng(env.seed, 100);
  const hhc::util::ZipfianSampler zipf{std::max<std::size_t>(env.pool.size(), 1),
                                       kZipfSkew};
  switch (env.workload) {
    case Workload::kHot:
      while (input.size() < n) input.push_back({env.pool[zipf(rng)]});
      break;
    case Workload::kCold: {
      FreshStream stream{*env.net, env.seed, 0, 2};
      while (input.size() < n) input.push_back({stream.next()});
      break;
    }
    case Workload::kMixed: {
      FreshStream writer{*env.net, env.seed, 0, 1};
      while (input.size() < n) {
        input.push_back({input.size() % kMixedWriterStride == 0
                             ? writer.next()
                             : env.pool[zipf(rng)]});
      }
      break;
    }
    case Workload::kOverload: {
      rng = stream_rng(env.seed, 0x9e7);
      const std::size_t epochs = std::min(kReplayEpochs, env.epochs.size());
      while (input.size() < n) {
        ReplayQuery query;
        query.fault_aware = rng.below(4) == 0;
        query.pair = env.pool[query.fault_aware ? rng.below(env.pool.size())
                                                : zipf(rng)];
        query.epoch = input.size() * epochs / n;
        input.push_back(query);
      }
      break;
    }
  }
  return input;
}

enum Span : std::size_t {
  kRoot,
  kAnswerView,
  kAnswer,
  kRoute,
  kLookup,
  kConstruct,
  kWalk,
  kSpanCount
};
constexpr std::array<const char*, kSpanCount> kSpanName = {
    "bench.query",    "query.answer_view", "query.answer",    "fault.route",
    "core.lookup",    "core.construct",    "core.handle_walk"};
constexpr std::array<const char*, kSpanCount> kSpanLayer = {
    "bench", "query", "query", "fault", "core", "core", "core"};
constexpr int kAbsent = -1;
constexpr int kNoParent = -2;  // the root
constexpr int kOffPath = -3;   // a reference call no answer waits for

// One query's spans: at most one per name. Self time = duration minus the
// durations of the spans whose parent it is.
struct QueryTrace {
  std::array<std::uint64_t, kSpanCount> start{};
  std::array<std::uint64_t, kSpanCount> end{};
  std::array<int, kSpanCount> parent{kAbsent, kAbsent, kAbsent, kAbsent,
                                     kAbsent, kAbsent, kAbsent};

  void record(Span span, int parent_span, std::uint64_t t0, std::uint64_t t1) {
    start[span] = t0;
    end[span] = t1;
    parent[span] = parent_span;
  }
};

bool endpoints_alive(const ReplayQuery& query, const Env& env) {
  if (!query.fault_aware) return true;
  const hhc::core::FaultModel& faults = env.epochs[query.epoch];
  return !faults.node_faulty_at(query.pair.s) &&
         !faults.node_faulty_at(query.pair.t);
}

PairQuery to_query(const ReplayQuery& query, const Env& env) {
  PairQuery q{.s = query.pair.s, .t = query.pair.t};
  if (query.fault_aware) q.faults = &env.epochs[query.epoch];
  return q;
}

void warm(ContainerCache& cache, const Env& env) {
  for (const Pair& pair : env.pool) (void)cache.lookup(pair.s, pair.t);
}

void warm(PathService& service, const Env& env) {
  for (const Pair& pair : env.pool) {
    (void)service.answer_view({.s = pair.s, .t = pair.t});
  }
}

// Advances the service's fault epoch to the query's, as the generator does.
void sync_epoch(PathService& service, std::size_t& epoch,
                const ReplayQuery& query) {
  while (epoch < query.epoch) {
    ++epoch;
    service.advance_fault_epoch();
  }
}

// One call's timestamps and result, kept in a block-sized buffer while the
// block runs and folded into the traces afterwards, so a timed loop
// touches no more memory than the untraced one does.
struct Stamp {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t t2 = 0;
  std::uint64_t fp = 0;
  bool flag = false;  // cache hit / answer ok / router fell back
  bool seen = false;  // the call was made
};

// Service call + walk of its answer. Fills `stamp` when given: t0..t1 is
// the call, t1..t2 the walk, fp the walk fingerprint (0 unless ok).
std::uint64_t serve(PathService& service, const ReplayQuery& query,
                    const Env& env, bool view, Stamp* stamp) {
  const std::uint64_t t0 = stamp != nullptr ? span_ticks() : 0;
  std::uint64_t fp = 0;
  bool ok = false;
  std::uint64_t t1 = 0;
  if (view) {
    const hhc::query::RouteView answer =
        service.answer_view(to_query(query, env));
    if (stamp != nullptr) t1 = span_ticks();
    ok = answer.outcome == RouteOutcome::kOk;
    if (answer.ok()) fp = walk(answer.container);
  } else {
    const hhc::query::RouteResult answer =
        service.answer(to_query(query, env));
    if (stamp != nullptr) t1 = span_ticks();
    ok = answer.outcome == RouteOutcome::kOk;
    if (ok) fp = walk(PathList{answer.paths});
  }
  if (stamp != nullptr) {
    *stamp = {t0, t1, span_ticks(), fp, ok, true};
  }
  return fp;
}

}  // namespace

ReplayResult replay(const Env& env, const std::string& spans_csv) {
  ReplayResult result;
  const HhcTopology& net = *env.net;
  const std::vector<ReplayQuery> input = replay_input(env);
  const std::size_t n = input.size();
  const bool overload = env.workload == Workload::kOverload;
  const bool view = !overload;  // hot/cold/mixed clients use answer_view
  const hhc::query::PathServiceConfig config = service_config(env.workload);
  const ContainerCache::Config cache_config{
      .options = config.options,
      .shards = config.cache_shards,
      .max_entries_per_shard = config.max_entries_per_shard};
  result.queries = n;
  result.clock_cost_ns = span_clock_cost_ns();
  const double tick_ns = span_tick_ns();
  // Span length in ns, less the cost of an empty span when `corrected`.
  const auto span_ns = [&](std::uint64_t t0, std::uint64_t t1,
                           bool corrected) {
    const double raw = static_cast<double>(t1 - t0) * tick_ns;
    return corrected ? std::max(0.0, raw - result.clock_cost_ns) : raw;
  };
  const std::uint64_t origin = span_ticks();

  std::vector<QueryTrace> traces(n);
  std::vector<std::uint64_t> fp_construct(n, 0);
  std::vector<std::uint64_t> fp_lookup(n, 0);
  std::vector<bool> looked_up(n, false);

  // The instances, all warmed like the timed phase's service: two
  // services, the construction scratch, the cache, and the router over its
  // own cache (overload). Every instance sees the same calls in the same
  // order, so their states stay identical. The two services swap the
  // traced and untraced roles block by block, so a difference in their
  // memory layout does not masquerade as tracing overhead.
  PathService service_a{net, config};
  PathService service_b{net, config};
  std::array<PathService*, 2> services{&service_a, &service_b};
  for (PathService* service : services) warm(*service, env);
  std::array<std::size_t, 2> epochs{0, 0};
  hhc::core::ConstructionScratch scratch;
  ContainerCache cache{net, cache_config};
  warm(cache, env);
  ContainerCache router_cache{net, cache_config};
  warm(router_cache, env);
  const hhc::fault::AdaptiveRouter router{net, &router_cache};

  std::uint64_t untraced_ticks = 0;
  std::vector<Stamp> stamps(kReplayBlock);
  std::uint64_t sink = 0;
  std::size_t fault_aware = 0;
  std::size_t fallbacks = 0;
  std::vector<double> route_guaranteed;
  std::vector<double> route_fallback;
  const auto disagree = [&](const char* what) {
    ++result.wrong;
    if (result.errors.size() < 8) result.errors.emplace_back(what);
  };

  // Passes run block by block, so slow drift of the machine (frequency,
  // neighbours, allocator state) lands on every layer alike.
  for (std::size_t begin = 0; begin < n; begin += kReplayBlock) {
    const std::size_t end = std::min(n, begin + kReplayBlock);
    const std::size_t untraced = 1 - (begin / kReplayBlock) % 2;

    // core: the construction on a private scratch.
    for (std::size_t i = begin; i < end; ++i) {
      Stamp& stamp = stamps[i - begin];
      stamp.seen = endpoints_alive(input[i], env);
      if (!stamp.seen) continue;
      stamp.t0 = span_ticks();
      const hhc::core::DisjointPathSetRef ref = hhc::core::node_disjoint_paths(
          net, input[i].pair.s, input[i].pair.t, config.options, scratch);
      stamp.t1 = span_ticks();
      stamp.fp = walk(RefList{ref.paths});
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Stamp& stamp = stamps[i - begin];
      if (!stamp.seen) continue;
      fp_construct[i] = stamp.fp;
      traces[i].record(kConstruct, kOffPath, stamp.t0, stamp.t1);
    }

    // core: the cache.
    for (std::size_t i = begin; i < end; ++i) {
      Stamp& stamp = stamps[i - begin];
      stamp.seen = endpoints_alive(input[i], env);
      if (!stamp.seen) continue;
      stamp.t0 = span_ticks();
      const ContainerHandle handle = cache.lookup(
          input[i].pair.s, input[i].pair.t, config.options, &stamp.flag);
      stamp.t1 = span_ticks();
      stamp.fp = walk(handle);
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Stamp& stamp = stamps[i - begin];
      if (!stamp.seen) continue;
      fp_lookup[i] = stamp.fp;
      looked_up[i] = true;
      traces[i].record(kLookup, kAbsent, stamp.t0, stamp.t1);
      if (!stamp.flag) traces[i].parent[kConstruct] = kLookup;
      if (stamp.fp != fp_construct[i]) {
        disagree("cache and construction disagree");
      }
    }

    // fault: the router; its cache also sees the pristine lookups.
    for (std::size_t i = begin; overload && i < end; ++i) {
      const ReplayQuery& query = input[i];
      Stamp& stamp = stamps[i - begin];
      stamp.seen = query.fault_aware;
      if (!stamp.seen) {
        (void)router_cache.lookup(query.pair.s, query.pair.t);
        continue;
      }
      stamp.t0 = span_ticks();
      const hhc::query::RouteResult routed = router.route(to_query(query, env));
      stamp.t1 = span_ticks();
      stamp.flag = routed.used_fallback;
      stamp.fp = routed.level == DegradationLevel::kGuaranteed ? 1 : 0;
    }
    for (std::size_t i = begin; overload && i < end; ++i) {
      const Stamp& stamp = stamps[i - begin];
      if (!stamp.seen) continue;
      ++fault_aware;
      traces[i].record(kRoute, kAnswer, stamp.t0, stamp.t1);
      const double us = span_ns(stamp.t0, stamp.t1, true) / 1e3;
      if (stamp.flag) {
        ++fallbacks;
        route_fallback.push_back(us);
      } else if (stamp.fp == 1) {
        route_guaranteed.push_back(us);
      }
    }

    // query: the two services, one traced and one timed only around the
    // block. Service 1 always runs first, so each role runs first in half
    // the blocks and on each instance in half the blocks.
    for (const std::size_t which : {std::size_t{1}, std::size_t{0}}) {
      PathService& service = *services[which];
      if (which == untraced) {
        const std::uint64_t block_start = span_ticks();
        for (std::size_t i = begin; i < end; ++i) {
          sync_epoch(service, epochs[which], input[i]);
          sink += serve(service, input[i], env, view, nullptr);
        }
        untraced_ticks += span_ticks() - block_start;
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          sync_epoch(service, epochs[which], input[i]);
          (void)serve(service, input[i], env, view, &stamps[i - begin]);
        }
      }
    }
    const Span service_span = view ? kAnswerView : kAnswer;
    for (std::size_t i = begin; i < end; ++i) {
      const Stamp& stamp = stamps[i - begin];
      QueryTrace& trace = traces[i];
      trace.record(service_span, kRoot, stamp.t0, stamp.t1);
      trace.record(kWalk, kRoot, stamp.t1, stamp.t2);
      trace.record(kRoot, kNoParent, stamp.t0, stamp.t2);
      if (!stamp.flag) {
        // Shed by the breaker or the detector: no child call happened.
        if (trace.parent[kRoute] != kAbsent) trace.parent[kRoute] = kOffPath;
        if (looked_up[i]) trace.parent[kLookup] = kOffPath;
        continue;
      }
      if (looked_up[i]) {
        trace.parent[kLookup] = input[i].fault_aware ? kRoute : service_span;
      }
      if (!input[i].fault_aware && stamp.fp != fp_lookup[i]) {
        disagree("service and cache disagree");
      }
    }
  }
  result.untraced_mean_us = static_cast<double>(untraced_ticks) * tick_ns /
                            static_cast<double>(n) / 1e3;
  g_sink = sink;

  // graph: fan solves per construction, read from the obs registry with
  // the program's own tracing on.
  {
    hhc::obs::Histogram& fans =
        hhc::obs::stage_histogram(hhc::obs::stages::kFanSolve);
    hhc::core::ConstructionScratch probe_scratch;
    hhc::obs::Tracer::enable();
    const std::uint64_t before = fans.snapshot().count;
    std::size_t constructs = 0;
    for (std::size_t i = 0; i < std::min(n, kFanProbeQueries); ++i) {
      (void)hhc::core::node_disjoint_paths(net, input[i].pair.s,
                                           input[i].pair.t, config.options,
                                           probe_scratch);
      ++constructs;
    }
    const std::uint64_t solves = fans.snapshot().count - before;
    hhc::obs::Tracer::disable();
    hhc::obs::Tracer::clear();
    result.fan_solves_per_construct =
        static_cast<double>(solves) / static_cast<double>(constructs);
  }

  // Self times, clock-corrected, aggregated per span name.
  const auto duration = [&](const QueryTrace& trace, std::size_t span,
                            bool corrected) {
    return span_ns(trace.start[span], trace.end[span], corrected);
  };
  std::array<std::vector<double>, kSpanCount> self_on;
  std::vector<double> construct_all;
  std::vector<double> construct_off;
  std::vector<double> hit_lookup;
  std::vector<double> publish;  // in replay order
  double root_total = 0.0;
  double raw_total = 0.0;
  for (const QueryTrace& trace : traces) {
    if (trace.parent[kRoot] == kAbsent) continue;
    for (std::size_t span = 0; span < kSpanCount; ++span) {
      if (trace.parent[span] == kAbsent) continue;
      if (span == kRoot) continue;  // synthetic: the sum of its children
      const double dur = duration(trace, span, true);
      double children = 0.0;
      for (std::size_t child = 0; child < kSpanCount; ++child) {
        if (trace.parent[child] == static_cast<int>(span)) {
          children += duration(trace, child, true);
        }
      }
      const double self_us = (dur - children) / 1e3;
      if (span == kConstruct) construct_all.push_back(dur / 1e3);
      if (trace.parent[span] == kOffPath) {
        if (span == kConstruct) construct_off.push_back(dur / 1e3);
        continue;
      }
      self_on[span].push_back(self_us);
      if (span == kLookup) {
        (trace.parent[kConstruct] == kLookup ? publish : hit_lookup)
            .push_back(self_us);
      }
      if (trace.parent[span] == kNoParent || trace.parent[span] == kRoot) {
        root_total += dur / 1e3;
        raw_total += duration(trace, span, false) / 1e3;
      }
    }
  }
  const auto count = static_cast<double>(self_on[kWalk].size());
  result.traced_sum_us = count > 0 ? root_total / count : 0.0;
  result.raw_traced_sum_us = count > 0 ? raw_total / count : 0.0;
  for (std::size_t span = 1; span < kSpanCount; ++span) {
    if (self_on[span].empty()) continue;
    const double total = mean(self_on[span]) *
                         static_cast<double>(self_on[span].size());
    result.rows.push_back({kSpanLayer[span], kSpanName[span],
                           self_on[span].size(),
                           percentile(self_on[span], 0.5), mean(self_on[span]),
                           root_total > 0 ? total / root_total : 0.0});
  }
  if (!construct_off.empty()) {
    result.rows.push_back({"core", "core.construct (off path)",
                           construct_off.size(), percentile(construct_off, 0.5),
                           mean(construct_off), 0.0, false});
  }

  result.construct_p50_us = percentile(construct_all, 0.5);
  result.construct_p99_us = percentile(construct_all, 0.99);
  result.construct_mean_us = mean(construct_all);
  result.cache_hit_us = mean(hit_lookup);
  result.cache_publish_us = mean(publish);
  if (publish.size() >= 10) {
    const std::size_t decile = publish.size() / 10;
    result.publish_first_decile_us = mean(
        std::vector<double>(publish.begin(),
                            publish.begin() + static_cast<std::ptrdiff_t>(decile)));
    result.publish_last_decile_us = mean(
        std::vector<double>(publish.end() - static_cast<std::ptrdiff_t>(decile),
                            publish.end()));
  }
  result.handle_walk_us = mean(self_on[kWalk]);
  result.service_self_us = mean(self_on[view ? kAnswerView : kAnswer]);
  result.route_guaranteed_us = mean(route_guaranteed);
  result.route_fallback_us = mean(route_fallback);
  result.fallback_share =
      fault_aware == 0 ? 0.0
                       : static_cast<double>(fallbacks) /
                             static_cast<double>(fault_aware);

  if (!spans_csv.empty()) {
    std::ofstream out{spans_csv};
    out << "query,span,parent,start_ns,end_ns\n";
    for (std::size_t i = 0; i < n; ++i) {
      const QueryTrace& trace = traces[i];
      for (std::size_t span = 0; span < kSpanCount; ++span) {
        const int parent = trace.parent[span];
        if (parent == kAbsent) continue;
        out << i << ',' << kSpanName[span] << ','
            << (parent >= 0 ? kSpanName[static_cast<std::size_t>(parent)]
                : parent == kOffPath ? "(off path)"
                                     : "")
            << ',' << std::llround(span_ns(origin, trace.start[span], false))
            << ',' << std::llround(span_ns(origin, trace.end[span], false))
            << '\n';
      }
    }
  }
  return result;
}

}  // namespace perfbench

#include "load.hpp"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "check.hpp"
#include "core/disjoint.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hhc::core::ContainerHandle;
using hhc::core::FaultModel;
using hhc::core::HhcTopology;
using hhc::query::DegradationLevel;
using hhc::query::PairQuery;
using hhc::query::PathService;
using hhc::query::RouteOutcome;
using hhc::query::RouteResult;
using hhc::query::RouteView;

namespace {

constexpr std::size_t kPoolSize = 4096;
constexpr double kZipfSkew = 0.99;
constexpr std::size_t kMaxErrors = 8;
constexpr std::size_t kExactSample = 512;  // bit-for-bit comparisons
constexpr std::uint64_t kWriterExactStride = 64;
constexpr std::size_t kPrefetchedPairs = std::size_t{1} << 17;
constexpr double kTickSeconds = 0.5;
constexpr std::int64_t kColdRoundPairs = 24576;

void note(std::vector<std::string>& errors, std::string what) {
  if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
}

void count_outcome(Outcomes& outcomes, RouteOutcome outcome) {
  switch (outcome) {
    case RouteOutcome::kOk: ++outcomes.ok; break;
    case RouteOutcome::kShed: ++outcomes.shed; break;
    case RouteOutcome::kTimedOut: ++outcomes.timed_out; break;
    case RouteOutcome::kInvalid: ++outcomes.invalid; break;
  }
}

std::string describe(const Pair& p) {
  return "(" + std::to_string(p.s) + ", " + std::to_string(p.t) + ")";
}

// A thread's count of completed answers, sampled by the main thread. One
// cache line each, written only by its owner.
struct alignas(64) Progress {
  std::atomic<std::uint64_t> done{0};
};

// Progress snapshots every kTickSeconds. Rates are reported as the median
// over ticks, which a burst of noise from elsewhere on the machine moves
// far less than it moves a whole-run average.
struct Ticks {
  std::vector<double> at;                          // seconds since start
  std::vector<std::vector<std::uint64_t>> counts;  // [tick][thread]

  [[nodiscard]] std::vector<double> rates(std::size_t first,
                                          std::size_t last) const {
    std::vector<double> rates;
    double prev_at = 0.0;
    std::uint64_t prev = 0;
    for (std::size_t k = 0; k < at.size(); ++k) {
      std::uint64_t sum = 0;
      for (std::size_t i = first; i < last; ++i) sum += counts[k][i];
      if (at[k] - prev_at >= kTickSeconds / 2) {
        rates.push_back(static_cast<double>(sum - prev) / (at[k] - prev_at));
      }
      prev_at = at[k];
      prev = sum;
    }
    return rates;
  }
};

// Snapshots `progress` every kTickSeconds from `start` until `until()`,
// which is polled every few milliseconds.
template <class Until>
Ticks watch(const std::vector<Progress>& progress, std::uint64_t start,
            Until&& until) {
  Ticks ticks;
  const auto tick_ns = static_cast<std::uint64_t>(kTickSeconds * 1e9);
  std::uint64_t next = start + tick_ns;
  while (!until()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
    const std::uint64_t now = now_ns();
    if (now < next) continue;
    next += tick_ns;
    ticks.at.push_back(static_cast<double>(now - start) / 1e9);
    ticks.counts.emplace_back();
    for (const Progress& p : progress) {
      ticks.counts.back().push_back(p.done.load(std::memory_order_relaxed));
    }
  }
  return ticks;
}

// Runs body(i, stop, progress[i]) on `threads` threads for `seconds`, or
// until every body returns; returns the wall time from the common start to
// the last join. Exceptions stay inside their thread and are reported
// through `errors`.
template <class Body>
double run_threads(std::size_t threads, double seconds,
                   std::vector<std::string>& errors, Ticks& ticks,
                   Body&& body) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> finished{0};
  std::vector<Progress> progress(threads);
  std::mutex errors_mutex;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body(i, stop, progress[i]);
      } catch (const std::exception& e) {
        std::lock_guard lock{errors_mutex};
        note(errors, std::string{"client thread threw: "} + e.what());
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  const std::uint64_t start = now_ns();
  go.store(true, std::memory_order_release);
  const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  ticks = watch(progress, start, [&] {
    return now_ns() - start >= window_ns ||
           finished.load(std::memory_order_acquire) == threads;
  });
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : pool) thread.join();
  return static_cast<double>(now_ns() - start) / 1e9;
}

// One closed-loop client over a pair pool (hot, mixed readers). Pristine
// answers are deterministic, so each pool pair keeps its first handle and
// every later answer must reproduce its walk fingerprint exactly.
struct PoolTally {
  explicit PoolTally(std::size_t n) : first_fp(n, 0), first(n) {}
  Samples latency;
  Outcomes outcomes;
  std::vector<std::uint64_t> first_fp;
  std::vector<ContainerHandle> first;
  std::uint64_t mismatches = 0;
};

void pool_client(PathService& service, const std::vector<Pair>& pool,
                 const hhc::util::ZipfianSampler& zipf,
                 hhc::util::Xoshiro256 rng, const std::atomic<bool>& stop,
                 Progress& progress, PoolTally& tally) {
  while (!stop.load(std::memory_order_relaxed)) {
    const std::size_t index = zipf(rng);
    const PairQuery query{.s = pool[index].s, .t = pool[index].t};
    const std::uint64_t t0 = now_ns();
    const RouteView view = service.answer_view(query);
    const std::uint64_t t1 = now_ns();
    ++tally.outcomes.attempted;
    count_outcome(tally.outcomes, view.outcome);
    if (view.outcome != RouteOutcome::kOk) continue;
    tally.latency.add(t1 - t0);
    progress.done.store(tally.outcomes.ok, std::memory_order_relaxed);
    const std::uint64_t fp = view.ok() ? walk(view.container) : 0;
    if (tally.first_fp[index] == 0) {
      tally.first_fp[index] = fp;
      tally.first[index] = view.container;
    } else if (tally.first_fp[index] != fp) {
      ++tally.mismatches;
    }
  }
}

// Checks the pool answers of all clients: each distinct answer in full,
// cross-client agreement, and a seeded bit-for-bit sample.
void check_pool_answers(const HhcTopology& net, const std::vector<Pair>& pool,
                        const std::vector<PoolTally>& tallies,
                        std::uint64_t seed, LoadResult& result) {
  std::vector<std::uint64_t> agreed(pool.size(), 0);
  std::vector<const ContainerHandle*> representative(pool.size(), nullptr);
  for (const PoolTally& tally : tallies) {
    if (tally.mismatches != 0) {
      result.wrong += tally.mismatches;
      note(result.errors, "a pool pair was answered with different bits");
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (tally.first_fp[i] == 0) continue;
      if (agreed[i] != 0) {
        if (agreed[i] != tally.first_fp[i]) {
          ++result.wrong;
          note(result.errors, "clients disagree on " + describe(pool[i]));
        }
        continue;
      }
      const ContainerHandle& handle = tally.first[i];
      ++result.checked;
      std::string why =
          handle.valid() ? check_container(net, pool[i].s, pool[i].t, handle)
                         : "ok outcome without a container";
      if (why.empty() && walk(handle) != tally.first_fp[i]) {
        why = "handle changed after it was returned";
      }
      if (!why.empty()) {
        ++result.wrong;
        note(result.errors, describe(pool[i]) + ": " + why);
      }
      agreed[i] = tally.first_fp[i];
      representative[i] = &handle;
    }
  }
  hhc::util::Xoshiro256 rng = stream_rng(seed, 0xe8ac7);
  for (std::size_t k = 0; k < kExactSample; ++k) {
    const std::size_t i = rng.below(pool.size());
    if (representative[i] == nullptr || !representative[i]->valid()) continue;
    const std::string why = check_exact(net, pool[i].s, pool[i].t,
                                        representative[i]->materialize().paths);
    if (!why.empty()) {
      ++result.wrong;
      note(result.errors, describe(pool[i]) + ": " + why);
    }
  }
}

// A client answering its own stream of fresh pairs (cold clients, the
// mixed writer). Every answer is a construction plus a publication.
struct MissTally {
  struct Kept {
    Pair pair;
    ContainerHandle handle;
    std::uint64_t fp = 0;
  };
  Samples latency;
  Outcomes outcomes;
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;
  std::vector<Kept> kept;  // cold: checked after the phase
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;
};

// `check_inline`: the mixed writer checks each answer right after it
// returns (outside the timed call) instead of keeping its handle, because
// kept handles would pin every container the capped cache evicts.
// `quota` (null = none) is a query budget shared by the round's clients:
// a client takes one unit per query and stops when none is left, so a
// client on a slow core does less of the round instead of holding it up.
void miss_client(PathService& service, FreshStream& stream,
                 const std::atomic<bool>& stop, bool check_inline,
                 std::atomic<std::int64_t>* quota, Progress& progress,
                 MissTally& tally) {
  const HhcTopology& net = service.net();
  while (!stop.load(std::memory_order_relaxed) &&
         (quota == nullptr ||
          quota->fetch_sub(1, std::memory_order_relaxed) > 0)) {
    const Pair pair = stream.next();
    const std::uint64_t t0 = now_ns();
    const RouteView view = service.answer_view({.s = pair.s, .t = pair.t});
    const std::uint64_t t1 = now_ns();
    ++tally.outcomes.attempted;
    count_outcome(tally.outcomes, view.outcome);
    if (view.outcome != RouteOutcome::kOk) continue;
    tally.latency.add(t1 - t0);
    ++(view.cache_hit ? tally.hits : tally.misses);
    progress.done.store(tally.misses, std::memory_order_relaxed);
    const std::uint64_t fp = view.ok() ? walk(view.container) : 0;
    if (!check_inline) {
      tally.kept.push_back({pair, view.container, fp});
      continue;
    }
    ++tally.checked;
    std::string why = view.ok()
                          ? check_container(net, pair.s, pair.t, view.container)
                          : "ok outcome without a container";
    if (why.empty() && tally.checked % kWriterExactStride == 0) {
      why = check_exact(net, pair.s, pair.t, view.container.materialize().paths);
    }
    if (!why.empty()) {
      ++tally.wrong;
      note(tally.errors, describe(pair) + ": " + why);
    }
  }
}

void check_kept_misses(const HhcTopology& net, MissTally& tally,
                       std::uint64_t seed, LoadResult& result) {
  for (const MissTally::Kept& kept : tally.kept) {
    ++result.checked;
    std::string why = kept.handle.valid()
                          ? check_container(net, kept.pair.s, kept.pair.t,
                                            kept.handle)
                          : "ok outcome without a container";
    if (why.empty() && walk(kept.handle) != kept.fp) {
      why = "handle changed after it was returned";
    }
    if (!why.empty()) {
      ++result.wrong;
      note(result.errors, describe(kept.pair) + ": " + why);
    }
  }
  if (tally.kept.empty()) return;
  hhc::util::Xoshiro256 rng = stream_rng(seed, 0xe8ac7);
  for (std::size_t k = 0; k < kExactSample; ++k) {
    const MissTally::Kept& kept = tally.kept[rng.below(tally.kept.size())];
    if (!kept.handle.valid()) continue;
    const std::string why = check_exact(net, kept.pair.s, kept.pair.t,
                                        kept.handle.materialize().paths);
    if (!why.empty()) {
      ++result.wrong;
      note(result.errors, describe(kept.pair) + ": " + why);
    }
  }
}

// --- overload: open-loop generator, bounded queue, two workers ----------

struct Arrival {
  std::uint64_t due_ns = 0;
  std::uint64_t push_ns = 0;
  std::uint32_t pair = 0;
  std::uint32_t epoch = 0;
  bool fault_aware = false;
};

class ArrivalQueue {
 public:
  explicit ArrivalQueue(std::size_t capacity) : ring_(capacity) {}

  bool push(const Arrival& arrival) {
    std::lock_guard lock{mutex_};
    if (size_ == ring_.size()) return false;
    ring_[(head_ + size_) % ring_.size()] = arrival;
    ++size_;
    return true;
  }
  bool pop(Arrival& arrival) {
    std::lock_guard lock{mutex_};
    if (size_ == 0) return false;
    arrival = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --size_;
    return true;
  }

 private:
  std::mutex mutex_;  // guards ring_, head_, size_
  std::vector<Arrival> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

struct WorkerTally {
  explicit WorkerTally(std::size_t n) : first_fp(n, 0), first_paths(n) {}
  struct FaultAnswer {
    std::uint64_t fp = 0;
    DegradationLevel level = DegradationLevel::kDisconnected;
    std::vector<Path> paths;
  };
  Samples latency;
  Samples queue_wait;
  Outcomes outcomes;
  std::vector<std::uint64_t> first_fp;
  std::vector<std::vector<Path>> first_paths;
  std::unordered_map<std::uint64_t, FaultAnswer> fault_answers;  // epoch|pair
  std::uint64_t mismatches = 0;
};

std::uint64_t fault_fp(const RouteResult& result) {
  return walk(PathList{result.paths}) ^
         ((static_cast<std::uint64_t>(result.level) + 1) *
          0xff51afd7ed558ccdULL);
}

void overload_worker(PathService& service, const Env& env,
                     ArrivalQueue& queue, const std::atomic<bool>& done,
                     Progress& progress, WorkerTally& tally) {
  const auto budget = std::chrono::nanoseconds{static_cast<std::int64_t>(
      OverloadShape::kDeadlineMicros * 1e3)};
  Arrival arrival;
  for (;;) {
    if (!queue.pop(arrival)) {
      if (done.load(std::memory_order_acquire)) {
        if (!queue.pop(arrival)) return;
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    tally.queue_wait.add(now_ns() - arrival.push_ns);
    const Pair& pair = env.pool[arrival.pair];
    PairQuery query{.s = pair.s, .t = pair.t};
    if (arrival.fault_aware) query.faults = &env.epochs[arrival.epoch];
    query.deadline = hhc::util::Deadline{
        std::chrono::steady_clock::time_point{
            std::chrono::nanoseconds{arrival.due_ns}} +
        budget};
    RouteResult result = service.answer(query);
    const std::uint64_t done_ns = now_ns();
    count_outcome(tally.outcomes, result.outcome);
    if (result.outcome != RouteOutcome::kOk) continue;
    tally.latency.add(done_ns - arrival.due_ns);
    progress.done.store(tally.outcomes.ok, std::memory_order_relaxed);
    if (!arrival.fault_aware) {
      const std::uint64_t fp = walk(PathList{result.paths});
      if (tally.first_fp[arrival.pair] == 0) {
        tally.first_fp[arrival.pair] = fp;
        tally.first_paths[arrival.pair] = std::move(result.paths);
      } else if (tally.first_fp[arrival.pair] != fp) {
        ++tally.mismatches;
      }
      continue;
    }
    const std::uint64_t key =
        (std::uint64_t{arrival.epoch} << 32) | arrival.pair;
    const std::uint64_t fp = fault_fp(result);
    const auto [it, fresh] = tally.fault_answers.try_emplace(key);
    if (fresh) {
      it->second = {fp, result.level, std::move(result.paths)};
    } else if (it->second.fp != fp) {
      ++tally.mismatches;
    }
  }
}

void check_overload_answers(const Env& env,
                            const std::vector<WorkerTally>& tallies,
                            LoadResult& result) {
  const HhcTopology& net = *env.net;
  std::vector<std::uint64_t> agreed(env.pool.size(), 0);
  std::unordered_map<std::uint64_t, std::uint64_t> fault_agreed;
  // Fault-free container of each pool pair, built on first use: one pair
  // is checked under every epoch's faults.
  std::vector<std::vector<Path>> containers(env.pool.size());
  std::size_t exact_budget = kExactSample;
  for (const WorkerTally& tally : tallies) {
    if (tally.mismatches != 0) {
      result.wrong += tally.mismatches;
      note(result.errors, "a pair was answered with different bits");
    }
    for (std::size_t i = 0; i < env.pool.size(); ++i) {
      if (tally.first_fp[i] == 0) continue;
      if (agreed[i] != 0) {
        if (agreed[i] != tally.first_fp[i]) {
          ++result.wrong;
          note(result.errors, "workers disagree on " + describe(env.pool[i]));
        }
        continue;
      }
      agreed[i] = tally.first_fp[i];
      ++result.checked;
      const Pair& pair = env.pool[i];
      std::string why = check_container(net, pair.s, pair.t,
                                        PathList{tally.first_paths[i]});
      if (why.empty() && exact_budget > 0) {
        --exact_budget;
        why = check_exact(net, pair.s, pair.t, tally.first_paths[i]);
      }
      if (!why.empty()) {
        ++result.wrong;
        note(result.errors, describe(pair) + ": " + why);
      }
    }
    for (const auto& [key, answer] : tally.fault_answers) {
      const auto [it, fresh] = fault_agreed.try_emplace(key, answer.fp);
      if (!fresh) {
        if (it->second != answer.fp) {
          ++result.wrong;
          note(result.errors, "workers disagree on a fault-aware answer");
        }
        continue;
      }
      ++result.checked;
      const std::size_t i = key & 0xffffffffULL;
      const Pair& pair = env.pool[i];
      if (containers[i].empty()) {
        containers[i] =
            hhc::core::node_disjoint_paths(net, pair.s, pair.t).paths;
      }
      const std::string why =
          check_fault_answer(net, pair.s, pair.t, containers[i],
                             env.epochs[key >> 32], answer.level, answer.paths);
      if (!why.empty()) {
        ++result.wrong;
        note(result.errors, "fault-aware " + describe(pair) + ": " + why);
      }
    }
  }
}

void run_overload(Env& env, double seconds, LoadResult& result) {
  PathService& service = *env.service;
  const hhc::util::ZipfianSampler zipf{env.pool.size(), kZipfSkew};
  ArrivalQueue queue{OverloadShape::kQueueCapacity};
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::atomic<int> running{3};
  std::vector<Progress> progress(2);
  std::vector<WorkerTally> tallies;
  tallies.reserve(2);
  for (int i = 0; i < 2; ++i) tallies.emplace_back(env.pool.size());
  Outcomes generated;
  std::mutex errors_mutex;
  const auto guarded = [&](auto&& body) {
    return [&, body] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard lock{errors_mutex};
        note(result.errors, std::string{"overload thread threw: "} + e.what());
        done.store(true, std::memory_order_release);
      }
      running.fetch_sub(1, std::memory_order_release);
    };
  };

  std::uint64_t start = 0;
  std::vector<std::thread> threads;
  threads.emplace_back(guarded([&] {
    hhc::util::Xoshiro256 rng = stream_rng(env.seed, 0x9e7);
    const double period_ns = 1e9 / OverloadShape::kOfferedRate;
    const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
    const auto epoch_ns =
        static_cast<std::uint64_t>(OverloadShape::kEpochSeconds * 1e9);
    std::uint32_t epoch = 0;
    for (std::uint64_t k = 0;; ++k) {
      const auto offset =
          static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
      if (offset >= window_ns) break;
      const std::uint64_t due = start + offset;
      std::uint64_t now = now_ns();
      while (now < due) now = now_ns();
      const auto due_epoch = static_cast<std::uint32_t>(offset / epoch_ns);
      while (epoch < due_epoch) {
        ++epoch;
        service.advance_fault_epoch();
      }
      Arrival arrival{.due_ns = due, .push_ns = now, .epoch = epoch};
      arrival.fault_aware = rng.below(4) == 0;
      // Fault-aware pairs are uniform over the pool, so the share of
      // blocked pairs is the fault model's, not a Zipf-head lottery.
      arrival.pair = static_cast<std::uint32_t>(
          arrival.fault_aware ? rng.below(env.pool.size()) : zipf(rng));
      result.gen_lag.add(now - due);
      ++generated.attempted;
      if (!queue.push(arrival)) ++generated.refused;
    }
    done.store(true, std::memory_order_release);
  }));
  for (std::size_t i = 0; i < tallies.size(); ++i) {
    threads.emplace_back(guarded([&, i] {
      overload_worker(service, env, queue, done, progress[i], tallies[i]);
    }));
  }
  start = now_ns();
  go.store(true, std::memory_order_release);
  const Ticks ticks = watch(progress, start, [&] {
    return running.load(std::memory_order_acquire) == 0;
  });
  for (std::thread& thread : threads) thread.join();
  result.rates = ticks.rates(0, 2);
  result.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  result.peak_rss_mb = peak_rss_mb();

  result.outcomes = generated;
  Outcomes served;
  for (const WorkerTally& tally : tallies) {
    served.add(tally.outcomes);
    result.latency.merge(tally.latency);
    result.queue_wait.merge(tally.queue_wait);
  }
  result.outcomes.ok = served.ok;
  result.outcomes.shed = served.shed;
  result.outcomes.timed_out = served.timed_out;
  result.outcomes.invalid = served.invalid;
  result.counted_ok = served.ok;
  check_overload_answers(env, tallies, result);
}

// ok + shed + timed_out + invalid + refused == attempted, and the counts
// agree with the service's own stats().
void check_accounting(const Outcomes& o, const hhc::query::ServiceStats& s,
                      LoadResult& result) {
  if (o.ok + o.failed() != o.attempted) {
    result.accounting_ok = false;
    note(result.errors, "outcomes do not partition the attempts");
  }
  if (s.queries != o.attempted - o.refused ||
      s.guaranteed + s.best_effort + s.disconnected != o.ok ||
      s.shed != o.shed || s.timed_out != o.timed_out ||
      s.invalid != o.invalid) {
    result.accounting_ok = false;
    note(result.errors, "benchmark counts disagree with PathService::stats()");
  }
}

void run_pool_clients(Env& env, double seconds, std::size_t clients,
                      std::uint64_t stream_base, std::vector<PoolTally>& tallies,
                      LoadResult& result, double& wall) {
  const hhc::util::ZipfianSampler zipf{env.pool.size(), kZipfSkew};
  std::vector<PoolTally> local;
  local.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) local.emplace_back(env.pool.size());
  Ticks ticks;
  wall = run_threads(clients, seconds, result.errors, ticks,
                     [&](std::size_t i, const std::atomic<bool>& stop,
                         Progress& progress) {
                       pool_client(*env.service, env.pool, zipf,
                                   stream_rng(env.seed, stream_base + i), stop,
                                   progress, local[i]);
                     });
  result.rates = ticks.rates(0, clients);
  for (PoolTally& tally : local) tallies.push_back(std::move(tally));
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "hot") return Workload::kHot;
  if (name == "cold") return Workload::kCold;
  if (name == "mixed") return Workload::kMixed;
  if (name == "overload") return Workload::kOverload;
  return std::nullopt;
}

const char* to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kHot: return "hot";
    case Workload::kCold: return "cold";
    case Workload::kMixed: return "mixed";
    case Workload::kOverload: return "overload";
  }
  return "?";
}

unsigned workload_m(Workload workload) noexcept {
  return workload == Workload::kOverload ? 3 : 4;
}

void Outcomes::add(const Outcomes& other) noexcept {
  attempted += other.attempted;
  ok += other.ok;
  shed += other.shed;
  timed_out += other.timed_out;
  invalid += other.invalid;
  refused += other.refused;
}

hhc::query::PathServiceConfig service_config(Workload workload) {
  hhc::query::PathServiceConfig config;
  if (workload == Workload::kMixed) {
    config.cache_shards = 16;
    config.max_entries_per_shard = 512;
  }
  if (workload == Workload::kOverload) {
    config.admission = {.max_in_flight = 2,
                        .policy = hhc::query::AdmissionPolicy::kReject,
                        .ewma_alpha = 0.2,
                        .overload_latency_us = 50.0,
                        .breaker_threshold = 2,
                        .shed_on_overload = true,
                        .probe_interval = 64};
  }
  return config;
}

FaultModel epoch_faults(const HhcTopology& net, std::uint64_t seed,
                        std::size_t epoch) {
  hhc::util::Xoshiro256 rng = stream_rng(seed, 0xfa0000 + epoch);
  const auto share = [](double population) {
    return static_cast<std::size_t>(
        std::llround(OverloadShape::kFaultShare * population));
  };
  const auto nodes = static_cast<double>(net.node_count());
  FaultModel::RandomSpec spec;
  spec.node_faults = share(nodes);
  spec.internal_link_faults = share(nodes * net.m() / 2);
  spec.external_link_faults = share(nodes / 2);
  return FaultModel::random(net, spec, 0, 0, rng);
}

Env set_up(Workload workload, std::uint64_t seed, double seconds) {
  Env env;
  env.workload = workload;
  env.seed = seed;
  env.net = std::make_unique<HhcTopology>(workload_m(workload));
  if (workload != Workload::kCold) {
    hhc::util::Xoshiro256 rng = stream_rng(seed, 1);
    env.pool = make_pool(*env.net, kPoolSize, rng);
  }
  // Fresh-pair streams: each client's first kPrefetchedPairs pairs.
  const unsigned streams = workload == Workload::kCold    ? 2
                           : workload == Workload::kMixed ? 1
                                                          : 0;
  for (unsigned i = 0; i < streams; ++i) {
    env.streams.emplace_back(*env.net, seed, i, streams, kPrefetchedPairs);
  }
  if (workload == Workload::kOverload) {
    const auto epochs = static_cast<std::size_t>(
        std::ceil(seconds / OverloadShape::kEpochSeconds)) + 1;
    for (std::size_t e = 0; e < epochs; ++e) {
      env.epochs.push_back(epoch_faults(*env.net, seed, e));
    }
  }
  env.service =
      std::make_unique<PathService>(*env.net, service_config(workload));
  for (const Pair& pair : env.pool) {
    (void)env.service->answer_view({.s = pair.s, .t = pair.t});
  }
  env.service->reset_stats();
  return env;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

LoadResult run_load(Env& env, double seconds, bool tracer_segments) {
  LoadResult result;
  PathService& service = *env.service;
  const hhc::core::CacheStats before = service.cache().stats();

  switch (env.workload) {
    case Workload::kHot: {
      std::vector<PoolTally> tallies;
      if (!tracer_segments) {
        run_pool_clients(env, seconds, 2, 100, tallies, result, result.wall_s);
      } else {
        // off, on, off, on: the ratio of the "on" and "off" throughput is
        // what the program's own spans cost on the read path.
        double wall[2] = {0.0, 0.0};
        std::uint64_t ok[2] = {0, 0};
        for (std::size_t segment = 0; segment < 4; ++segment) {
          const std::size_t on = segment % 2;
          if (on != 0) hhc::obs::Tracer::enable();
          const std::size_t first = tallies.size();
          double segment_wall = 0.0;
          run_pool_clients(env, seconds / 4, 2, 100 + 2 * segment, tallies,
                           result, segment_wall);
          if (on != 0) {
            hhc::obs::Tracer::disable();
            hhc::obs::Tracer::clear();
          }
          wall[on] += segment_wall;
          for (std::size_t i = first; i < tallies.size(); ++i) {
            ok[on] += tallies[i].outcomes.ok;
          }
        }
        result.wall_s = wall[0] + wall[1];
        result.tracer_on_qps_ratio =
            (static_cast<double>(ok[1]) / wall[1]) /
            (static_cast<double>(ok[0]) / wall[0]);
      }
      result.peak_rss_mb = peak_rss_mb();
      for (const PoolTally& tally : tallies) {
        result.outcomes.add(tally.outcomes);
        result.latency.merge(tally.latency);
      }
      result.counted_ok = result.outcomes.ok;
      check_pool_answers(*env.net, env.pool, tallies, env.seed, result);
      break;
    }
    case Workload::kCold: {
      // Rounds: the 2 clients fill a fresh default service with
      // kColdRoundPairs fresh pairs, until the time is up. Every round
      // does the same work, so round rates compare, and peak memory is one
      // round's fill however fast a fill runs.
      const std::uint64_t end =
          now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
      double partial_rate = 0.0;
      for (std::size_t round = 0;; ++round) {
        const std::uint64_t now = now_ns();
        if (now >= end) break;
        if (round > 0) {
          env.service.reset();
          env.service = std::make_unique<PathService>(
              *env.net, service_config(Workload::kCold));
        }
        std::vector<MissTally> tallies(2);
        std::atomic<std::int64_t> quota{kColdRoundPairs};
        Ticks ticks;
        const double wall = run_threads(
            2, static_cast<double>(end - now) / 1e9, result.errors, ticks,
            [&](std::size_t i, const std::atomic<bool>& stop,
                Progress& progress) {
              miss_client(*env.service, env.streams[i], stop, false, &quota,
                          progress, tallies[i]);
            });
        result.wall_s += wall;
        Outcomes round_outcomes;
        for (MissTally& tally : tallies) {
          round_outcomes.add(tally.outcomes);
          if (tally.hits != 0) {
            note(result.errors, "a fresh cold pair hit the cache");
            result.accounting_ok = false;
          }
          check_kept_misses(*env.net, tally, env.seed + round, result);
        }
        if (round_outcomes.attempted == kColdRoundPairs) {
          result.rates.push_back(static_cast<double>(round_outcomes.ok) /
                                 wall);
          for (const MissTally& tally : tallies) {
            result.latency.merge(tally.latency);
          }
          result.counted_ok += round_outcomes.ok;
        } else {
          partial_rate = static_cast<double>(round_outcomes.ok) / wall;
        }
        result.outcomes.add(round_outcomes);
        result.stats = env.service->stats();
        check_accounting(round_outcomes, result.stats, result);
        result.cache_hits += result.stats.cache.hits;
        result.cache_misses += result.stats.cache.misses;
        result.cache_evictions += result.stats.cache.evictions;
      }
      if (result.rates.empty()) result.rates.push_back(partial_rate);
      result.peak_rss_mb = peak_rss_mb();
      break;
    }
    case Workload::kMixed: {
      const hhc::util::ZipfianSampler zipf{env.pool.size(), kZipfSkew};
      std::vector<PoolTally> readers;
      readers.reserve(2);
      for (int i = 0; i < 2; ++i) readers.emplace_back(env.pool.size());
      MissTally writer;
      Ticks ticks;
      result.wall_s = run_threads(
          3, seconds, result.errors, ticks,
          [&](std::size_t i, const std::atomic<bool>& stop,
              Progress& progress) {
            if (i < 2) {
              pool_client(service, env.pool, zipf,
                          stream_rng(env.seed, 100 + i), stop, progress,
                          readers[i]);
            } else {
              miss_client(service, env.streams[0], stop, true, nullptr,
                          progress, writer);
            }
          });
      result.rates = ticks.rates(0, 2);
      result.writer_qps = percentile(ticks.rates(2, 3), 0.5);
      result.peak_rss_mb = peak_rss_mb();
      for (const PoolTally& tally : readers) {
        result.outcomes.add(tally.outcomes);
        result.latency.merge(tally.latency);
        result.counted_ok += tally.outcomes.ok;
      }
      result.outcomes.add(writer.outcomes);
      result.writer_misses = writer.misses;
      result.checked += writer.checked;
      result.wrong += writer.wrong;
      for (std::string& error : writer.errors) {
        note(result.errors, std::move(error));
      }
      check_pool_answers(*env.net, env.pool, readers, env.seed, result);
      break;
    }
    case Workload::kOverload:
      run_overload(env, seconds, result);
      break;
  }

  result.qps = percentile(result.rates, 0.5);
  if (env.workload != Workload::kCold) {
    result.stats = service.stats();
    result.cache_hits = result.stats.cache.hits - before.hits;
    result.cache_misses = result.stats.cache.misses - before.misses;
    result.cache_evictions = result.stats.cache.evictions - before.evictions;
    check_accounting(result.outcomes, result.stats, result);
  }
  return result;
}

}  // namespace perfbench

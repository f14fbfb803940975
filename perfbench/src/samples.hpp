// Timing primitives of the benchmark: a raw nanosecond clock and a latency
// recorder that keeps every sample at a resolution far finer than the
// 10% changes the benchmark must see.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Timestamps for the traced replay's spans, in units of span_tick_ns()
/// nanoseconds. On x86-64 this reads the TSC: rdtsc does not drain the
/// pipeline the way clock_gettime does, so a span disturbs the
/// sub-microsecond read path it brackets less. Elsewhere it is now_ns().
[[nodiscard]] std::uint64_t span_ticks() noexcept;
/// Nanoseconds per span tick, calibrated once against steady_clock.
[[nodiscard]] double span_tick_ns();
/// Median cost in ns of two back-to-back span_ticks() reads: what an empty
/// span measures. Subtracted from every traced span.
[[nodiscard]] double span_clock_cost_ns();

/// Per-thread latency recorder with bounded memory. Samples below 65.5 µs
/// are counted in 1 ns bins and samples below 16.8 ms in 64 ns bins, so
/// percentiles are exact to the nanosecond where the read path lives and
/// to 0.1% on the miss and overload tails; longer samples are kept raw.
/// (obs::Histogram's octave-wide buckets cannot show a 10% change.)
class Samples {
 public:
  Samples();

  void add(std::uint64_t ns) noexcept;
  void merge(const Samples& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean_us() const noexcept;
  /// Nearest-rank percentile in µs, p in (0, 1]; 0 when empty.
  [[nodiscard]] double percentile_us(double p) const;

 private:
  static constexpr std::uint64_t kFineLimit = std::uint64_t{1} << 16;
  static constexpr std::uint64_t kCoarseLimit = std::uint64_t{1} << 24;
  static constexpr unsigned kCoarseShift = 6;

  std::vector<std::uint32_t> bins_;
  std::vector<std::uint64_t> beyond_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

/// Nearest-rank percentile of raw values (copied), p in (0, 1]; 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double mean(const std::vector<double>& values);

}  // namespace perfbench

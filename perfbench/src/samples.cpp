#include "samples.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

std::uint64_t span_ticks() noexcept {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

double span_tick_ns() {
  static const double ns_per_tick = [] {
    const std::uint64_t ns0 = now_ns();
    const std::uint64_t ticks0 = span_ticks();
    std::uint64_t ns1 = ns0;
    while (ns1 - ns0 < 20'000'000) ns1 = now_ns();
    const std::uint64_t ticks1 = span_ticks();
    return static_cast<double>(ns1 - ns0) /
           static_cast<double>(std::max<std::uint64_t>(ticks1 - ticks0, 1));
  }();
  return ns_per_tick;
}

double span_clock_cost_ns() {
  std::vector<double> costs(20001);
  for (double& cost : costs) {
    const std::uint64_t a = span_ticks();
    const std::uint64_t b = span_ticks();
    cost = static_cast<double>(b - a);
  }
  return percentile(std::move(costs), 0.5) * span_tick_ns();
}

Samples::Samples()
    : bins_(kFineLimit + ((kCoarseLimit - kFineLimit) >> kCoarseShift), 0) {}

void Samples::add(std::uint64_t ns) noexcept {
  ++count_;
  sum_ns_ += static_cast<double>(ns);
  if (ns < kFineLimit) {
    ++bins_[ns];
  } else if (ns < kCoarseLimit) {
    ++bins_[kFineLimit + ((ns - kFineLimit) >> kCoarseShift)];
  } else {
    beyond_.push_back(ns);
  }
}

void Samples::merge(const Samples& other) {
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  beyond_.insert(beyond_.end(), other.beyond_.begin(), other.beyond_.end());
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double Samples::mean_us() const noexcept {
  return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_) / 1e3;
}

double Samples::percentile_us(double p) const {
  if (count_ == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    seen += bins_[i];
    if (seen < rank) continue;
    if (i < kFineLimit) return static_cast<double>(i) / 1e3;
    const std::uint64_t lo =
        kFineLimit + ((i - kFineLimit) << kCoarseShift);
    return (static_cast<double>(lo) +
            static_cast<double>(std::uint64_t{1} << kCoarseShift) / 2) /
           1e3;
  }
  std::vector<std::uint64_t> beyond = beyond_;
  const auto k = static_cast<std::ptrdiff_t>(rank - seen - 1);
  std::nth_element(beyond.begin(), beyond.begin() + k, beyond.end());
  return static_cast<double>(beyond[static_cast<std::size_t>(k)]) / 1e3;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench

// The benchmark's own arithmetic: tail percentiles, due-time latency and
// the sustainable-rate search. Header-only so selftest.cc can check it
// without the serving stack.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Percentiles a tail metric may be reported at, lowest first.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 95.0, 99.0,
                                               99.9};

/// The highest ladder percentile, at most `cap`, with at least ten samples
/// strictly beyond it among `n`; 0 when even the median lacks them.
inline double SupportedPercentile(int64_t n, double cap) {
  double best = 0.0;
  for (const double p : kPercentileLadder) {
    if (p > cap) break;
    // Compare in integers: ten samples beyond p means n * (100 - p) >= 1000.
    const auto beyond_x10 = static_cast<int64_t>(
        std::llround(static_cast<double>(n) * (100.0 - p) * 10.0));
    if (beyond_x10 >= 10'000) best = p;
  }
  return best;
}

/// Nearest-rank percentile of `sorted` (ascending); misses sort last.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The middle of `sorted` (ascending), or the mean of its two middle
/// values when their count is even.
inline double Median(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

/// One reported tail: the value, the percentile it was taken at, and the
/// sample count behind it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t count = 0;
};

/// The median and the highest supported percentile up to `cap` of
/// `samples` (which may hold kMiss for failed requests).
struct Summary {
  Tail p50;
  Tail tail;
};

inline Summary Summarize(std::vector<double> samples, double cap = 99.0) {
  std::sort(samples.begin(), samples.end());
  Summary out;
  const auto n = static_cast<int64_t>(samples.size());
  const double tail_p = SupportedPercentile(n, cap);
  out.p50 = {NearestRank(samples, 50.0), 50.0, n};
  out.tail = {NearestRank(samples, tail_p > 0 ? tail_p : 50.0),
              tail_p > 0 ? tail_p : 50.0, n};
  return out;
}

/// A timed sample: `at` orders it within the run.
struct TimedSample {
  double at = 0.0;
  double value = 0.0;
};

/// Summarize() over consecutive windows of at least 200 samples each (at
/// most five), reporting the median of the windows' medians and of their
/// tails: a burst of outside load moves one window, not the result. The
/// tail's percentile is the lowest any window supports; the count is the
/// total. `windows_out`, when given, receives each window's own summary.
inline Summary WindowedSummary(std::vector<TimedSample> samples,
                               double cap = 99.0,
                               std::vector<Summary>* windows_out = nullptr) {
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) {
              return a.at < b.at;
            });
  const size_t windows =
      std::clamp<size_t>(samples.size() / 200, 1, 5);
  std::vector<double> p50s;
  std::vector<double> tails;
  double percentile = cap;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = samples.size() * w / windows;
    const size_t hi = samples.size() * (w + 1) / windows;
    std::vector<double> values;
    for (size_t i = lo; i < hi; ++i) values.push_back(samples[i].value);
    const Summary s = Summarize(values, cap);
    if (windows_out != nullptr) windows_out->push_back(s);
    p50s.push_back(s.p50.value);
    tails.push_back(s.tail.value);
    percentile = std::min(percentile, s.tail.percentile);
  }
  std::sort(p50s.begin(), p50s.end());
  std::sort(tails.begin(), tails.end());
  const auto n = static_cast<int64_t>(samples.size());
  Summary out;
  out.p50 = {Median(p50s), 50.0, n};
  out.tail = {Median(tails), percentile, n};
  return out;
}

/// Open-loop latency: from when the request was due to when it was
/// answered. A request that failed or was refused missed every limit.
inline double DueLatencyMs(Clock::time_point due, Clock::time_point done,
                           bool ok) {
  if (!ok) return kMiss;
  return std::chrono::duration<double, std::milli>(done - due).count();
}

/// Outcome of one step of the sustainable-rate search.
struct RateStep {
  double offered = 0.0;  ///< requests per second offered in the step
  double tail_ms = 0.0;  ///< due-time p99 (or highest supported) of the step
  /// Median due-time latency of the step's last quarter minus that of
  /// its first quarter: positive and large when the backlog grows.
  double latency_growth_ms = 0.0;
};

/// A step passes when the tail stays within the latency limit and the
/// backlog grows by less than a tenth of that limit over the step.
inline bool Sustainable(const RateStep& step, double limit_ms) {
  return step.tail_ms <= limit_ms &&
         step.latency_growth_ms <= limit_ms / 10.0;
}

/// Finds the highest sustainable offered rate: doubles from `start`
/// until a step fails, then bisects between the best pass and the lowest
/// failure for the remaining steps. Returns the highest passing rate, or
/// 0 when none passed. `probe` runs one step at the given rate.
inline double FindSustainableRate(
    const std::function<RateStep(double)>& probe, double start,
    int max_steps, double limit_ms, std::vector<RateStep>* steps = nullptr) {
  double pass = 0.0;
  double fail = 0.0;  // 0 = no failure seen yet
  double rate = start;
  for (int i = 0; i < max_steps; ++i) {
    const RateStep step = probe(rate);
    if (steps != nullptr) steps->push_back(step);
    if (Sustainable(step, limit_ms)) {
      pass = std::max(pass, rate);
    } else {
      fail = fail == 0.0 ? rate : std::min(fail, rate);
    }
    rate = fail == 0.0 ? pass * 2.0 : (pass + fail) / 2.0;
  }
  return pass;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

// Self-tests for the benchmark's own arithmetic (stats.h). run.py runs
// this binary before every benchmark run; a failure stops the run.
//
//   perfbench_selftest    # prints one line per check, exit 0 iff all pass

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void TestSupportedPercentile() {
  Check(SupportedPercentile(19, 99.0) == 0.0, "19 samples support nothing");
  Check(SupportedPercentile(20, 99.0) == 50.0, "20 samples support p50");
  Check(SupportedPercentile(99, 99.0) == 50.0, "99 samples stop below p90");
  Check(SupportedPercentile(100, 99.0) == 90.0, "100 samples support p90");
  Check(SupportedPercentile(200, 99.0) == 95.0, "200 samples support p95");
  Check(SupportedPercentile(999, 99.0) == 95.0, "999 samples stop below p99");
  Check(SupportedPercentile(1000, 99.0) == 99.0, "1000 samples support p99");
  Check(SupportedPercentile(10000, 99.0) == 99.0, "the cap holds at p99");
  Check(SupportedPercentile(10000, 99.9) == 99.9, "10000 samples reach p99.9");
}

void TestSummarize() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const Summary s = Summarize(samples);
  Check(s.p50.value == 500.0, "median by nearest rank");
  Check(s.tail.value == 990.0 && s.tail.percentile == 99.0,
        "p99 by nearest rank");
  Check(s.tail.count == 1000, "the tail carries its sample count");

  std::vector<double> few(150, 1.0);
  const Summary f = Summarize(few);
  Check(f.tail.percentile == 90.0 && f.tail.count == 150,
        "150 samples report p90, not p99");
}

void TestWindowedSummary() {
  // Five windows of 1000; one has a burst that alone would set the p99.
  std::vector<TimedSample> samples;
  for (int i = 0; i < 5000; ++i) {
    const bool burst = i >= 2000 && i < 3000 && i % 10 == 0;
    samples.push_back({static_cast<double>(i), burst ? 100.0 : 1.0});
  }
  const Summary s = WindowedSummary(samples);
  Check(s.tail.value == 1.0 && s.tail.percentile == 99.0,
        "one noisy window does not set the tail");
  Check(s.tail.count == 5000, "the windowed tail counts every sample");
  const Summary few = WindowedSummary(
      std::vector<TimedSample>(300, TimedSample{0.0, 2.0}));
  Check(few.tail.percentile == 95.0 && few.p50.value == 2.0,
        "under 400 samples one window keeps the whole tail");

  // Two windows, one twice as slow: neither alone sets the result.
  std::vector<TimedSample> two;
  for (int i = 0; i < 400; ++i) {
    two.push_back({static_cast<double>(i), i < 200 ? 1.0 : 2.0});
  }
  const Summary halves = WindowedSummary(two);
  Check(halves.p50.value == 1.5 && halves.tail.value == 1.5,
        "an even count of windows reports the mean of the middle two");
}

void TestDueLatency() {
  const Clock::time_point due = Clock::now();
  const Clock::time_point done = due + std::chrono::microseconds(2500);
  Check(std::fabs(DueLatencyMs(due, done, true) - 2.5) < 1e-9,
        "latency runs from the due time");
  Check(std::isinf(DueLatencyMs(due, done, false)),
        "a failed request is a miss");

  // 2% failures among otherwise fast answers: the p99 is a miss, the
  // median is not.
  std::vector<double> samples(980, 1.0);
  for (int i = 0; i < 20; ++i) samples.push_back(DueLatencyMs(due, done, false));
  const Summary s = Summarize(samples);
  Check(s.p50.value == 1.0, "failures leave the median alone");
  Check(std::isinf(s.tail.value), "failures above 1% push p99 to a miss");
}

/// A FIFO server with a fixed service time, fed by evenly spaced
/// arrivals for `window_s` of virtual time: it keeps up exactly when the
/// offered rate is at most `capacity`.
RateStep SyntheticServer(double capacity, double window_s, double rate) {
  const double service = 1.0 / capacity;
  const auto n = static_cast<size_t>(rate * window_s);
  std::vector<double> sojourn_ms;
  double free_at = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double arrival = static_cast<double>(i) / rate;
    const double start = std::max(arrival, free_at);
    free_at = start + service;
    sojourn_ms.push_back((free_at - arrival) * 1e3);
  }
  RateStep step;
  step.offered = rate;
  step.tail_ms = Summarize(sojourn_ms).tail.value;
  // Sojourn times only grow in a FIFO, so each quarter is sorted already.
  const size_t q = n / 4;
  const std::vector<double> first(sojourn_ms.begin(), sojourn_ms.begin() + q);
  const std::vector<double> last(sojourn_ms.end() - q, sojourn_ms.end());
  step.latency_growth_ms = q > 0 ? Median(last) - Median(first) : 0.0;
  return step;
}

void TestSustainableSearch() {
  const double capacity = 1000.0;  // the knee, requests per second
  const double limit_ms = 5.0;
  const auto probe = [&](double rate) {
    return SyntheticServer(capacity, 10.0, rate);
  };
  Check(Sustainable(probe(capacity), limit_ms), "the knee itself passes");
  Check(!Sustainable(probe(capacity * 1.01), limit_ms),
        "1% past the knee fails");

  std::vector<RateStep> steps;
  const double found = FindSustainableRate(probe, 100.0, 16, limit_ms, &steps);
  // Backlog growth this close to the knee is below what a 10 s window
  // can show, so the search may land a hair above it.
  Check(found >= 0.98 * capacity && found <= 1.01 * capacity,
        "the search lands within 2% of the knee");
  Check(steps.size() == 16, "the search runs its step budget");

  const double from_above =
      FindSustainableRate(probe, 3000.0, 16, limit_ms);
  Check(from_above >= 0.98 * capacity && from_above <= 1.01 * capacity,
        "a start above the knee bisects down to it");

  const double never = FindSustainableRate(
      [](double rate) { return RateStep{rate, kMiss, 0.0}; }, 100.0, 4,
      limit_ms);
  Check(never == 0.0, "a server that always misses sustains nothing");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSupportedPercentile();
  perfbench::TestSummarize();
  perfbench::TestWindowedSummary();
  perfbench::TestDueLatency();
  perfbench::TestSustainableSearch();
  std::printf("selftest: %s\n", perfbench::failures == 0 ? "PASS" : "FAIL");
  return perfbench::failures == 0 ? 0 : 1;
}

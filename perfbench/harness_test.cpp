// Self-tests of the perfbench harness: the percentile rule, open-loop
// timing from the scheduled send, the drift ratio and the op deck. Exits
// non-zero when any check fails.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void PercentileNeedsTenSamplesBeyond() {
  using perfbench::Percentile;
  // Nearest rank: p50 of 1..20 is 10, with exactly 10 samples beyond.
  Check(Percentile(OneTo(20), 0.5) == 10.0, "p50 of 1..20 is 10");
  Check(!Percentile(OneTo(19), 0.5).has_value(),
        "p50 of 19 samples has 9 beyond: not reported");
  // p99 needs 1000 samples: rank 990 leaves 10 beyond.
  Check(Percentile(OneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Check(!Percentile(OneTo(999), 0.99).has_value(),
        "p99 of 999 samples is not reported");
  Check(!Percentile({}, 0.5).has_value(), "no samples, no percentile");
}

void OpenLoopTimesFromScheduledSend() {
  using namespace perfbench;
  const auto start = SteadyClock::now();
  PoissonSchedule a(100, 7, start);
  PoissonSchedule b(100, 7, start);
  PoissonSchedule c(100, 8, start);
  bool same = true;
  bool differs = false;
  auto last = start;
  bool increasing = true;
  double total_gap_s = 0;
  constexpr int kSends = 20000;
  for (int i = 0; i < kSends; ++i) {
    const auto ta = a.Next();
    same = same && ta == b.Next();
    differs = differs || ta != c.Next();
    increasing = increasing && ta > last;
    total_gap_s = NanosBetween(start, ta) / 1e9;
    last = ta;
  }
  Check(same, "one seed gives one schedule");
  Check(differs, "another seed gives another schedule");
  Check(increasing, "due times increase");
  Check(std::fabs(total_gap_s / kSends - 0.01) < 0.0005,
        "mean gap is 1/rate");

  // A 1 ms service with one 40 ms stall on the third request: the
  // requests due during the stall are sent late, and their latency,
  // taken from the due time, carries the wait.
  PoissonSchedule schedule(1000, 3, SteadyClock::now());
  std::vector<double> latency_ms, late_ms;
  RunOpenLoop(schedule, SteadyClock::now() + std::chrono::milliseconds(100),
              [&](SteadyClock::time_point due, SteadyClock::time_point sent) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    latency_ms.size() == 2 ? 40 : 1));
                latency_ms.push_back(NanosBetween(due, SteadyClock::now()) / 1e6);
                late_ms.push_back(NanosBetween(due, sent) / 1e6);
                return latency_ms.size() < 6;
              });
  Check(latency_ms.size() == 6, "a false return stops the loop");
  Check(latency_ms.size() == 6 && latency_ms[2] >= 40,
        "the stalled request is charged its service");
  Check(late_ms.size() == 6 && late_ms[3] >= 30 && latency_ms[3] >= 31,
        "the next request is sent late and charged the stall");
}

void DeckDealsExactProportions() {
  using Deck = perfbench::Deck<char>;
  const std::vector<std::pair<char, double>> mix = {
      {'c', 0.25}, {'r', 0.45}, {'u', 0.20}, {'d', 0.05}, {'a', 0.03},
      {'w', 0.02}};
  Deck a(mix, 100, 1);
  Deck b(mix, 100, 1);
  Deck c(mix, 100, 2);
  Check(a.cards().size() == 100, "deck holds exactly `size` cards");
  bool exact = true;
  bool same = true;
  bool differs = false;
  for (int round = 0; round < 3; ++round) {
    int counts[128] = {};
    for (int i = 0; i < 100; ++i) {
      const char op = a.Next();
      same = same && op == b.Next();
      differs = differs || op != c.Next();
      ++counts[static_cast<int>(op)];
    }
    exact = exact && counts['c'] == 25 && counts['r'] == 45 &&
            counts['u'] == 20 && counts['d'] == 5 && counts['a'] == 3 &&
            counts['w'] == 2;
  }
  Check(exact, "every 100 draws hold the mix's exact proportions");
  Check(same, "one seed deals one order");
  Check(differs, "another seed deals another order");
}

void DriftRatioComparesHalves() {
  using perfbench::DriftRatio;
  Check(DriftRatio({1, 2, 3, 6, 7, 8}, 10) == 1.0, "steady: 1.0");
  Check(DriftRatio({1, 2, 3, 4, 6, 7}, 10) == 0.5, "slowing: 0.5");
  Check(DriftRatio({6, 7}, 10) == 0.0, "empty first half: 0");
  Check(DriftRatio({1, 6, 11}, 10) == 1.0, "ops past the window ignored");
}

void ResultLineIsJson() {
  const std::string line = perfbench::ResultJson(
      true, 3, 0, {{"ops_s", 1234.5, "1/s"}, {"setup_s", 0.25, "s"}});
  Check(line ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"ops_s\": {\"value\": 1234.5, \"unit\": "
            "\"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}",
        "result line format");
}

}  // namespace

int main() {
  PercentileNeedsTenSamplesBeyond();
  OpenLoopTimesFromScheduledSend();
  DriftRatioComparesHalves();
  DeckDealsExactProportions();
  ResultLineIsJson();
  if (failures != 0) return 1;
  std::printf("perfbench self-tests passed\n");
  return 0;
}

// Statistics and load-generation helpers of the perfbench driver. Kept
// free of rgpdOS types so the self-tests exercise them in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; a p99 over 300 samples rests on 3 points and
/// flips from run to run.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (q in (0, 1]) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie beyond the rank.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * double(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a small set of values (mean of the middle two when even).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// splitmix64: a small, seedable stream for schedules and shuffles.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Poisson send schedule of an open-loop generator: exponential gaps of
/// mean 1/rate drawn from a seeded stream, anchored at `start`. A request
/// is timed from the instant it was due, not from when the generator got
/// round to sending it, so a stall is charged to every request queued
/// behind it.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, std::uint64_t seed,
                  SteadyClock::time_point start)
      : mean_gap_ns_(1e9 / rate_per_s), state_(seed), start_(start) {}

  /// Due time of the next request.
  SteadyClock::time_point Next() {
    // 1 - u lies in (0, 1], so the log stays finite.
    const double u = double(SplitMix64(state_) >> 11) * 0x1.0p-53;
    offset_ns_ += -mean_gap_ns_ * std::log(1.0 - u);
    return start_ + std::chrono::nanoseconds(std::int64_t(offset_ns_));
  }

 private:
  double mean_gap_ns_;
  std::uint64_t state_;
  SteadyClock::time_point start_;
  double offset_ns_ = 0;
};

/// Drive an open loop over `schedule` until `deadline`: wait for each due
/// time, then call `send(due, sent)`; a false return stops the loop. The
/// caller times each request from `due`, so time the generator spent late
/// (stalled behind an earlier request) is charged to the request.
template <class Send>
void RunOpenLoop(PoissonSchedule& schedule, SteadyClock::time_point deadline,
                 Send&& send) {
  for (auto due = schedule.Next(); due < deadline; due = schedule.Next()) {
    std::this_thread::sleep_until(due);
    if (!send(due, SteadyClock::now())) return;
  }
}

/// Deals ops from a shuffled deck whose cards follow the mix weights
/// exactly, reshuffling when it runs out. Unlike drawing each op
/// independently, every `size` consecutive ops hold the mix's exact
/// proportions, so a short run's throughput does not swing with how many
/// cheap or costly ops the seed happened to draw.
template <class Op>
class Deck {
 public:
  Deck(const std::vector<std::pair<Op, double>>& weights, std::size_t size,
       std::uint64_t seed)
      : state_(seed) {
    double total = 0;
    for (const auto& [op, w] : weights) total += w;
    double dealt = 0;
    for (const auto& [op, w] : weights) {
      // Largest-remainder rounding keeps the deck exactly `size` cards.
      const auto upto = static_cast<std::size_t>(
          std::llround((dealt + w) / total * double(size)));
      while (cards_.size() < upto) cards_.push_back(op);
      dealt += w;
    }
    next_ = cards_.size();
  }

  Op Next() {
    if (next_ == cards_.size()) {
      for (std::size_t i = cards_.size(); i > 1; --i) {  // Fisher-Yates
        std::swap(cards_[i - 1], cards_[SplitMix64(state_) % i]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

  [[nodiscard]] const std::vector<Op>& cards() const { return cards_; }

 private:
  std::uint64_t state_;
  std::vector<Op> cards_;
  std::size_t next_ = 0;
};

inline double NanosBetween(SteadyClock::time_point from,
                           SteadyClock::time_point to) {
  return double(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Ops completed in the second half of a window divided by those in the
/// first half; `done_ns` are completion offsets from the window start.
/// 1.0 is a steady system; below 1 it slowed down while measured.
inline double DriftRatio(const std::vector<double>& done_ns,
                         double window_ns) {
  std::size_t first = 0;
  std::size_t second = 0;
  for (const double t : done_ns) {
    if (t < window_ns / 2) {
      ++first;
    } else if (t <= window_ns) {
      ++second;
    }
  }
  return first == 0 ? 0.0 : double(second) / double(first);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line the benchmark prints last.
inline std::string ResultJson(bool correct, std::uint64_t attempted,
                              std::uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    // %.17g keeps every digit; non-finite values are not JSON.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    out += "\"" + metrics[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

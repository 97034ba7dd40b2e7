// Driver-side tracing: spans around every call the benchmark makes into a
// layer's public functions, plus deltas of the counters and histograms the
// layers already export through metrics::MetricsRegistry. Spans stay in
// memory until the run ends.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "metrics/metrics.hpp"

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< "<layer>.<call>", or the op class
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;      ///< id of the op the span belongs to
  bool root = false;         ///< the op itself; other spans are its children
  std::uint32_t lane = 0;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// One client thread's span buffer. Untraced lanes record nothing and
/// cost one branch per call.
class Lane {
 public:
  Lane(bool traced, std::uint32_t id) : traced_(traced), id_(id) {}

  /// Open an op of class `op_class`; spans until EndOp() are its children.
  void BeginOp(const char* op_class) {
    if (!traced_) return;
    ++op_;
    op_class_ = op_class;
    op_start_ = NowNs();
  }
  void EndOp() {
    if (!traced_) return;
    spans_.push_back({op_class_, op_start_, NowNs(), op_, true, id_});
  }

  /// Run `fn` (a call into one layer) and record it as a span.
  template <class Fn>
  auto Call(const char* layer_call, Fn&& fn) {
    if (!traced_) return fn();
    const std::int64_t start = NowNs();
    auto result = fn();
    spans_.push_back({layer_call, start, NowNs(), op_, false, id_});
    return result;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool traced_;
  std::uint32_t id_;
  std::uint64_t op_ = 0;
  const char* op_class_ = "";
  std::int64_t op_start_ = 0;
  std::vector<Span> spans_;
};

/// Per-call aggregate of the spans of one run.
struct CallStats {
  std::uint64_t count = 0;
  double total_ns = 0;
  std::vector<double> durations_ns;
};

struct SpanSummary {
  std::map<std::string, CallStats> calls;
  double op_ns = 0;          ///< wall time of every op
  double attributed_ns = 0;  ///< part of it inside a layer-call span
};

inline SpanSummary Summarize(const std::vector<const Lane*>& lanes) {
  SpanSummary summary;
  for (const Lane* lane : lanes) {
    for (const Span& span : lane->spans()) {
      const double ns = double(span.end_ns - span.start_ns);
      if (span.root) {
        summary.op_ns += ns;
        continue;
      }
      summary.attributed_ns += ns;
      CallStats& stats = summary.calls[span.name];
      ++stats.count;
      stats.total_ns += ns;
      stats.durations_ns.push_back(ns);
    }
  }
  return summary;
}

/// Chrome trace-event JSON ("traceEvents" with complete events) of every
/// recorded span; open in chrome://tracing or Perfetto.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const Lane*>& lanes) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const Lane* lane : lanes) {
    for (const Span& span : lane->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[256];
  for (const Lane* lane : lanes) {
    for (const Span& span : lane->spans()) {
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"op\":%llu}}",
                    first ? "" : ",", span.name, span.root ? "op" : "layer",
                    double(span.start_ns - origin) / 1e3,
                    double(span.end_ns - span.start_ns) / 1e3, span.lane,
                    static_cast<unsigned long long>(span.op));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

/// Counters and histograms of the metrics registry, summed over one or
/// more Begin()/End() windows.
class RegistryDelta {
 public:
  void Begin() { before_ = Registry().Snapshot(); }
  void End() {
    const rgpdos::metrics::MetricsSnapshot after = Registry().Snapshot();
    for (const auto& [name, value] : after.counters) {
      const std::uint64_t* before = before_.FindCounter(name);
      counters_[name] += double(value - (before == nullptr ? 0 : *before));
    }
    for (const auto& h : after.histograms) {
      const auto* before = before_.FindHistogram(h.name);
      auto [it, fresh] = histograms_.try_emplace(h.name);
      rgpdos::metrics::HistogramSnapshot& sum = it->second;
      if (fresh) {
        sum.name = h.name;
        sum.bounds = h.bounds;
        sum.buckets.assign(h.buckets.size(), 0);
      }
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        sum.buckets[i] += h.buckets[i] - (before ? before->buckets[i] : 0);
      }
      sum.count += h.count - (before ? before->count : 0);
      sum.sum += h.sum - (before ? before->sum : 0);
    }
  }

  /// Counter increase (0 when never registered).
  [[nodiscard]] double Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  [[nodiscard]] rgpdos::metrics::HistogramSnapshot Histogram(
      const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? rgpdos::metrics::HistogramSnapshot{}
                                   : it->second;
  }

  /// The `n` most-contended `lock.contention.<name>` counters (not the
  /// total, not the per-thread `.t<i>` slots), largest first.
  [[nodiscard]] std::vector<std::pair<std::string, double>> TopLocks(
      std::size_t n) const {
    std::vector<std::pair<std::string, double>> locks;
    constexpr std::string_view kPrefix = "lock.contention.";
    for (const auto& [name, delta] : counters_) {
      if (name.rfind(kPrefix, 0) != 0 || name == "lock.contention.total" ||
          delta <= 0) {
        continue;
      }
      const std::size_t dot = name.rfind('.');
      if (name.size() > dot + 2 && name[dot + 1] == 't' &&
          name.find_first_not_of("0123456789", dot + 2) == std::string::npos) {
        continue;
      }
      locks.emplace_back(name.substr(kPrefix.size()), delta);
    }
    std::sort(locks.begin(), locks.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (locks.size() > n) locks.resize(n);
    return locks;
  }

 private:
  static rgpdos::metrics::MetricsRegistry& Registry() {
    return rgpdos::metrics::MetricsRegistry::Instance();
  }

  rgpdos::metrics::MetricsSnapshot before_;
  std::map<std::string, double> counters_;
  std::map<std::string, rgpdos::metrics::HistogramSnapshot> histograms_;
};

}  // namespace perfbench

// Async block layer A/B: the same put-heavy (journal-commit-bound)
// workload swept over submission-ring depths on an NVMe cost model.
//
// Each journal commit submits its record blocks as ONE ring submission,
// which the latency model amortises across the device queue (queue_depth
// 16 for Nvme) — depth 0 boots with async_io off, forcing queue_depth 1,
// the honest serialized baseline. Every leg also reports the extent
// journal's bytes per put and write amplification (journal bytes per
// logical record byte; journal.write_amp in the metrics snapshot tracks
// the same ratio).
//
// Artifact: BENCH_async_io.json with per-depth device-normalized puts/s,
// journal bytes/put, write amplification, and the ring counters
// (blockdev.async.{submitted,completed,coalesced_flushes}).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace rgpdos::bench {
namespace {

constexpr std::size_t kSubjects = 8;  ///< boot population (schema warm-up)
constexpr int kPuts = 256;            ///< timed journal commits per leg

struct LegResult {
  double puts_per_sec = 0;  ///< device-normalized
  double journal_bytes_per_put = 0;
  double write_amp = 0;  ///< journal bytes / logical record bytes
  double coalesced_flushes = 0;
  double ops_submitted = 0;
};

LegResult RunLeg(std::size_t ring_depth) {
  RgpdWorld world = MakeRgpdWorld(
      kSubjects, /*per_subject=*/1, /*consent_fraction=*/1.0,
      /*worker_threads=*/1, [&](core::BootConfig& config) {
        config.latency = blockdev::LatencyProfile::Nvme();
        config.cache_blocks = 0;
        config.cache_record_entries = 0;
        config.cache_decisions = false;
        config.async_io = ring_depth != 0;
        config.ring_depth = ring_depth == 0 ? 16 : ring_depth;
        // More room: the timed loop adds kPuts records on top of the
        // boot population.
        config.dbfs_blocks += kPuts * 14;
        config.inode_count += kPuts * 6;
      });
  auto& os = *world.os;
  const dsl::TypeDecl decl = BenchUserDecl();

  const std::uint64_t journal_before = os.dbfs_store().journal().bytes_logged();
  const auto logical_counter = [&]() -> double {
    const auto snapshot = metrics::MetricsRegistry::Instance().Snapshot();
    const std::uint64_t* v = snapshot.FindCounter("dbfs.put.logical_bytes");
    return v != nullptr ? double(*v) : 0.0;
  };
  const double logical_before = logical_counter();
  const std::uint64_t sim_before = SimulatedDeviceNanos(os);
  blockdev::AsyncDeviceStats async_before;
  if (auto* async = os.dbfs_async()) async_before = async->async_stats();

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPuts; ++i) {
    const auto subject = static_cast<dbfs::SubjectId>(1 + i % kSubjects);
    membrane::Membrane m = decl.DefaultMembrane(subject, os.clock().Now());
    auto id = os.dbfs().Put(
        sentinel::Domain::kDed, subject, "user",
        db::Row{db::Value(std::string("name") + std::to_string(i)),
                db::Value(std::string("pw")),
                db::Value(std::int64_t(1960 + i % 60))},
        std::move(m));
    if (!id.ok()) {
      std::fprintf(stderr, "put failed: %s\n", id.status().ToString().c_str());
      std::abort();
    }
  }
  const double wall_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count();
  const double sim_ns = double(SimulatedDeviceNanos(os) - sim_before);

  LegResult leg;
  leg.puts_per_sec = double(kPuts) / ((wall_ns + sim_ns) / 1e9);
  leg.journal_bytes_per_put =
      double(os.dbfs_store().journal().bytes_logged() - journal_before) /
      double(kPuts);
  const double logical = logical_counter() - logical_before;
  leg.write_amp = logical > 0
                      ? leg.journal_bytes_per_put * double(kPuts) / logical
                      : 0;
  if (auto* async = os.dbfs_async()) {
    const blockdev::AsyncDeviceStats stats = async->async_stats();
    leg.coalesced_flushes =
        double(stats.coalesced_flushes - async_before.coalesced_flushes);
    leg.ops_submitted =
        double(stats.ops_submitted - async_before.ops_submitted);
  }
  return leg;
}

int Main() {
  std::vector<std::pair<std::string, double>> stats;
  stats.emplace_back("puts", double(kPuts));

  std::printf("=== async ring-depth sweep, put workload (NVMe cost model) "
              "===\n");
  std::printf("%-14s %14s %16s %11s %12s %12s\n", "leg", "puts/s(dev)",
              "jnl bytes/put", "write_amp", "coalesced", "ring ops");
  double sync_pps = 0;
  double deep_pps = 0;
  for (const std::size_t depth : {std::size_t(0), std::size_t(1),
                                  std::size_t(4), std::size_t(16),
                                  std::size_t(32)}) {
    const LegResult leg = RunLeg(depth);
    const std::string name =
        depth == 0 ? "sync" : "depth_" + std::to_string(depth);
    std::printf("%-14s %14.0f %16.0f %10.2fx %12.0f %12.0f\n", name.c_str(),
                leg.puts_per_sec, leg.journal_bytes_per_put, leg.write_amp,
                leg.coalesced_flushes, leg.ops_submitted);
    stats.emplace_back(name + ".puts_per_sec", leg.puts_per_sec);
    stats.emplace_back(name + ".journal_bytes_per_put",
                       leg.journal_bytes_per_put);
    stats.emplace_back(name + ".write_amp", leg.write_amp);
    stats.emplace_back(name + ".coalesced_flushes", leg.coalesced_flushes);
    stats.emplace_back(name + ".ops_submitted", leg.ops_submitted);
    if (depth == 0) sync_pps = leg.puts_per_sec;
    if (depth == 16) deep_pps = leg.puts_per_sec;
  }

  const double ring_speedup = sync_pps > 0 ? deep_pps / sync_pps : 0;
  std::printf("ring speedup (depth 16 / sync): %.2fx\n", ring_speedup);
  stats.emplace_back("ring_speedup_depth16", ring_speedup);

  DumpBenchArtifact("async_io", stats);
  return 0;
}

}  // namespace
}  // namespace rgpdos::bench

int main() { return rgpdos::bench::Main(); }

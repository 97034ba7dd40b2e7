// Extent journal cost: a put-heavy (journal-commit-bound) workload on an
// NVMe cost model, uncached, so every journal commit reaches the device.
//
// Each journal commit writes its record blocks as ONE batch, which the
// latency model amortises across the device queue (queue_depth 16 for
// Nvme). The bench reports device-normalized puts/s, the extent journal's
// bytes per put and its write amplification (journal bytes per logical
// record byte; journal.write_amp in the metrics snapshot tracks the same
// ratio).
//
// Artifact: BENCH_journal_extents.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace rgpdos::bench {
namespace {

constexpr std::size_t kSubjects = 8;  ///< boot population (schema warm-up)
constexpr int kPuts = 256;            ///< timed journal commits

int Main() {
  RgpdWorld world = MakeRgpdWorld(
      kSubjects, /*per_subject=*/1, /*consent_fraction=*/1.0,
      /*worker_threads=*/1, [](core::BootConfig& config) {
        config.latency = blockdev::LatencyProfile::Nvme();
        config.cache_blocks = 0;
        config.cache_record_entries = 0;
        config.cache_decisions = false;
        // More room: the timed loop adds kPuts records on top of the
        // boot population.
        config.dbfs_blocks += kPuts * 14;
        config.inode_count += kPuts * 6;
      });
  auto& os = *world.os;
  const dsl::TypeDecl decl = BenchUserDecl();

  const std::uint64_t journal_before = os.dbfs_store().journal().bytes_logged();
  const auto logical_counter = []() -> double {
    const auto snapshot = metrics::MetricsRegistry::Instance().Snapshot();
    const std::uint64_t* v = snapshot.FindCounter("dbfs.put.logical_bytes");
    return v != nullptr ? double(*v) : 0.0;
  };
  const double logical_before = logical_counter();
  const std::uint64_t sim_before = SimulatedDeviceNanos(os);

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

  const double puts_per_sec = double(kPuts) / ((wall_ns + sim_ns) / 1e9);
  const double journal_bytes_per_put =
      double(os.dbfs_store().journal().bytes_logged() - journal_before) /
      double(kPuts);
  const double logical = logical_counter() - logical_before;
  const double write_amp =
      logical > 0 ? journal_bytes_per_put * double(kPuts) / logical : 0;

  std::printf("=== extent journal, put workload (NVMe cost model) ===\n");
  std::printf("%14s %16s %11s\n", "puts/s(dev)", "jnl bytes/put",
              "write_amp");
  std::printf("%14.0f %16.0f %10.2fx\n", puts_per_sec, journal_bytes_per_put,
              write_amp);

  DumpBenchArtifact("journal_extents",
                    {{"puts", double(kPuts)},
                     {"puts_per_sec", puts_per_sec},
                     {"journal_bytes_per_put", journal_bytes_per_put},
                     {"write_amp", write_amp}});
  return 0;
}

}  // namespace
}  // namespace rgpdos::bench

int main() { return rgpdos::bench::Main(); }

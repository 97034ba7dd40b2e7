// Parallel ps_invoke scaling: the same consented population processed by
// one DED pipeline at 1 / 2 / 4 / 8 lanes (BootConfig::worker_threads),
// on an UNCACHED seek-bound (HDD) device cost model — the workload is
// IO-bound, the shape the pipelined DED stages exist for. (The NVMe
// leg of the same story lives in bench_journal_extents and
// bench_gdprbench_mix; here the device is deliberately slow so that
// device waits, not host CPU, dominate — lane scaling is about hiding
// those waits.)
//
// Throughput is device-normalized: records / (wall time + simulated
// device time ÷ lanes). The division models the loader lane's batched
// reads (GetMembraneMany / GetMany), which the cost model charges at
// the profile's queue depth, overlapping with the execute lanes: device
// waits run beside execute-lane work instead of serialising behind it.
// Wall time — the host CPU cost of the pipeline itself — is NOT divided,
// so a pipeline that burns CPU on coordination shows up as a flat curve
// exactly as it would on real hardware.
//
// Acceptance gate: speedup_4_threads (4-lane / 1-lane device-normalized
// records/s) must clear RGPDOS_SPEEDUP_FLOOR (default 2.5; 0 disables).
// The unpipelined DED recorded 0.95 — a flat curve. The 1-lane
// `sim ms/invoke` column is reported but not gated: it includes the
// audit writer's journal commits, whose count depends on how fast
// commits complete, so it moves from run to run.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.hpp"

namespace rgpdos::bench {
namespace {

constexpr std::size_t kSubjects = 96;
constexpr std::size_t kPerSubject = 2;
constexpr int kIterations = 4;
constexpr int kSpinRounds = 2000;  ///< light per-record compute; IO dominates

/// Register an analytics-purpose processing with a small compute kernel:
/// enough work that the execute lanes have something to overlap with the
/// load lane's device waits, small enough that the device stays the
/// bottleneck.
core::ProcessingId RegisterSpinProcessing(core::RgpdOs& os) {
  core::ImplManifest manifest;
  manifest.claimed_purpose = "analytics";
  manifest.fields_read = {"year_of_birthdate"};
  auto id = os.RegisterProcessingSource(
      "purpose analytics { input: user.v_ano; }",
      [](core::ProcessingInput& input) -> Result<core::ProcessingOutput> {
        core::ProcessingOutput output;
        if (!input.Has("year_of_birthdate")) return output;
        RGPD_ASSIGN_OR_RETURN(db::Value year, input.Field("year_of_birthdate"));
        std::uint64_t acc = static_cast<std::uint64_t>(*year.AsInt());
        for (int i = 0; i < kSpinRounds; ++i) {
          acc += 0x9E3779B97F4A7C15ULL;
          std::uint64_t z = acc;
          z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
          z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
          acc ^= z >> 31;
        }
        output.npd.push_back(static_cast<std::uint8_t>(acc));
        return output;
      },
      manifest);
  if (!id.ok()) std::abort();
  return *id;
}

struct LaneResult {
  unsigned lanes = 0;
  double records_per_sec = 0;       ///< device-normalized (headline)
  double wall_records_per_sec = 0;  ///< raw wall clock, for reference
  double sim_ms_per_invoke = 0;
  double p50_us = 0;
  double p99_us = 0;
};

LaneResult RunAtLanes(unsigned lanes) {
  RgpdWorld world = MakeRgpdWorld(
      kSubjects, kPerSubject, /*consent_fraction=*/1.0, lanes,
      [](core::BootConfig& config) {
        config.latency = blockdev::LatencyProfile::Hdd();
        config.cache_blocks = 0;  // every load pays device cost
        config.cache_record_entries = 0;
        config.cache_decisions = false;
      });
  const core::ProcessingId processing = RegisterSpinProcessing(*world.os);

  // Warm past the runtime purpose verifier (its first runs trace field
  // reads); with the caches off the IO cost per invoke stays identical.
  for (int i = 0; i < 2; ++i) {
    auto r = world.os->ps().Invoke(sentinel::Domain::kApplication, processing,
                                   {});
    if (!r.ok()) std::abort();
  }

  std::uint64_t records = 0;
  LatencyReservoir latency;
  const std::uint64_t sim_before = SimulatedDeviceNanos(*world.os);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    Stopwatch invoke_watch;
    auto r = world.os->ps().Invoke(sentinel::Domain::kApplication, processing,
                                   {});
    if (!r.ok()) std::abort();
    latency.Record(double(invoke_watch.ElapsedNanos()));
    records += r->records_processed;
  }
  const double wall_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count();
  const double sim_ns =
      double(SimulatedDeviceNanos(*world.os) - sim_before);
  const double effective_ns = wall_ns + sim_ns / double(lanes);

  LaneResult result;
  result.lanes = lanes;
  result.records_per_sec = double(records) / (effective_ns / 1e9);
  result.wall_records_per_sec = double(records) / (wall_ns / 1e9);
  result.sim_ms_per_invoke = sim_ns / 1e6 / kIterations;
  result.p50_us = latency.P50Us();
  result.p99_us = latency.P99Us();
  return result;
}

int Main() {
  std::vector<std::pair<std::string, double>> stats;
  stats.emplace_back("subjects", double(kSubjects));
  stats.emplace_back("records", double(kSubjects * kPerSubject));
  stats.emplace_back("iterations", double(kIterations));

  std::printf("=== parallel invoke, uncached HDD cost model ===\n");
  std::printf("%-8s %16s %16s %14s %10s %10s\n", "lanes", "records/s(dev)",
              "records/s(wall)", "sim ms/invoke", "p50 us", "p99 us");
  double baseline_rps = 0;
  double four_lane_rps = 0;
  for (unsigned lanes : {1u, 2u, 4u, 8u}) {
    const LaneResult r = RunAtLanes(lanes);
    std::printf("%-8u %16.0f %16.0f %14.2f %10.1f %10.1f\n", r.lanes,
                r.records_per_sec, r.wall_records_per_sec,
                r.sim_ms_per_invoke, r.p50_us, r.p99_us);
    const std::string prefix = "threads_" + std::to_string(lanes);
    stats.emplace_back(prefix + ".threads", double(lanes));
    stats.emplace_back(prefix + ".records_per_sec", r.records_per_sec);
    stats.emplace_back(prefix + ".wall_records_per_sec",
                       r.wall_records_per_sec);
    stats.emplace_back(prefix + ".sim_ms_per_invoke", r.sim_ms_per_invoke);
    stats.emplace_back(prefix + ".p50_us", r.p50_us);
    stats.emplace_back(prefix + ".p99_us", r.p99_us);
    if (lanes == 1) baseline_rps = r.records_per_sec;
    if (lanes == 4) four_lane_rps = r.records_per_sec;
  }
  const double speedup = baseline_rps > 0 ? four_lane_rps / baseline_rps : 0;
  std::printf("4-lane speedup over 1-lane: %.2fx\n", speedup);
  stats.emplace_back("speedup_4_threads", speedup);

  DumpBenchArtifact("parallel_invoke", stats);

  double floor = 2.5;
  if (const char* env = std::getenv("RGPDOS_SPEEDUP_FLOOR");
      env != nullptr && *env != '\0') {
    floor = std::atof(env);
  }
  if (floor > 0 && speedup < floor) {
    std::fprintf(stderr,
                 "FAIL: speedup_4_threads %.2f below floor %.2f "
                 "(the parallel-invoke curve went flat)\n",
                 speedup, floor);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rgpdos::bench

int main() { return rgpdos::bench::Main(); }

// Shard scale-out (DESIGN.md §12): an open-loop, million-subject load
// harness driving the GDPRbench controller / customer / regulator mixes
// against the sharded storage spine at 1 / 2 / 4 / 8 shards.
//
// Load model. Arrivals are Poisson at a fixed target QPS (open loop: the
// schedule does not slow down when the system falls behind, so queueing
// delay is visible instead of hidden by closed-loop back-off). Subjects
// are drawn zipfian (theta 0.9) from a >= 1M population, each loaded
// with one PD record up front.
//
// Time model. The host has however many cores it has (often one, in
// CI); real shard parallelism cannot be measured by wall clock alone.
// Instead every shard is an independent virtual server, exactly what the
// sharded spine gives the hardware: an op's SERVICE time is the wall
// time of executing it (CPU, caches, journal) plus the DELTA of the
// target shard's simulated NVMe device time (LatencyModelDevice.
// simulated_ns — reads 10us, writes 20us, flushes 50us). Completion is
// simulated by per-shard FIFO server clocks (OpenLoopRecorder): an op
// starts at max(arrival, shard free time) and occupies only its own
// shard, so independent shards drain the same arrival schedule in
// parallel — which is precisely the claim the spine makes, and what the
// recorded p50/p99/p999 sojourn times and per-shard ops/s quantify.
// Fan-out ops (regulator purpose audits) occupy every shard at once.
//
// Knobs (env): RGPDOS_BENCH_SUBJECTS (default 1,000,000),
// RGPDOS_BENCH_OPS per role (default 30,000), RGPDOS_BENCH_QPS target
// arrival rate (default 50,000). CI smoke runs shrink all three.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace rgpdos::bench {
namespace {

std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Blocks a loaded subject costs on its shard's 1 KiB-block device
/// (record file + membrane + subject-tree nodes + slack), measured
/// empirically and kept generous: running out of blocks mid-bench would
/// abort a multi-minute run.
constexpr std::uint64_t kBlocksPerSubject = 24;
constexpr std::uint32_t kInodesPerSubject = 8;

struct ScaleWorld {
  std::unique_ptr<core::RgpdOs> os;
  std::size_t shards = 1;
  std::uint64_t subjects = 0;
  double load_seconds = 0;
};

/// Boot an N-shard world and bulk-load one `user` record per subject.
ScaleWorld MakeScaleWorld(std::size_t shards, std::uint64_t subjects) {
  ScaleWorld world;
  world.shards = shards;
  world.subjects = subjects;

  const std::uint64_t per_shard = (subjects + shards - 1) / shards;
  core::BootConfig config;
  config.block_size = 1024;
  config.dbfs_blocks = per_shard * kBlocksPerSubject + 8192;
  config.inode_count =
      static_cast<std::uint32_t>(per_shard * kInodesPerSubject + 1024);
  config.journal_blocks = 1024;
  // The NPD store shares config.inode_count; give its device room for
  // the resulting inode table (256 B/inode) plus journal and slack.
  config.npd_blocks =
      std::uint64_t(config.inode_count) / (config.block_size / 256) +
      config.journal_blocks + 8192;
  config.shards = shards;
  config.latency = blockdev::LatencyProfile::Nvme();
  // Caches stay on (the production configuration); the device model
  // still charges every miss and every journal write.
  auto booted = core::RgpdOs::Boot(config);
  if (!booted.ok()) {
    std::fprintf(stderr, "boot(%zu shards) failed: %s\n", shards,
                 booted.status().ToString().c_str());
    std::abort();
  }
  world.os = std::move(booted).value();
  if (auto d = world.os->DeclareTypes(kBenchTypes); !d.ok()) std::abort();

  const dsl::TypeDecl decl = BenchUserDecl();
  Rng rng(42);
  Stopwatch load_watch;
  for (std::uint64_t subject = 1; subject <= subjects; ++subject) {
    membrane::Membrane m =
        decl.DefaultMembrane(subject, world.os->clock().Now());
    db::Row row{db::Value("name_" + std::to_string(subject)),
                db::Value(std::string("pw")),
                db::Value(std::int64_t(1940 + subject % 70))};
    auto id = world.os->dbfs().Put(sentinel::Domain::kDed, subject, "user",
                                   row, std::move(m));
    if (!id.ok()) {
      std::fprintf(stderr, "load put subject %" PRIu64 " failed: %s\n",
                   subject, id.status().ToString().c_str());
      std::abort();
    }
  }
  world.load_seconds = double(load_watch.ElapsedNanos()) / 1e9;
  return world;
}

db::Row FreshUserRow(Rng& rng, std::uint64_t subject) {
  return db::Row{db::Value("name_" + std::to_string(subject) + "_" +
                           rng.NextName(6)),
                 db::Value(std::string("pw")),
                 db::Value(rng.NextInRange(1940, 2010))};
}

struct RoleResult {
  double achieved_ops_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  std::vector<double> per_shard_ops_s;
  std::size_t failed = 0;
};

/// Drive `ops` operations of `mix` through the world on the open-loop
/// schedule, attributing each op's service time to the shard(s) it
/// touched.
RoleResult RunRole(core::RgpdOs& os, std::size_t shards,
                   std::uint64_t subjects, const workload::OpMix& mix,
                   std::uint64_t ops, double target_qps) {
  const dsl::TypeDecl decl = BenchUserDecl();
  Rng rng(1234);
  Zipf zipf(subjects, 0.9, 99);
  OpenLoopRecorder recorder(target_qps, shards);
  RoleResult result;

  std::vector<std::uint64_t> sim_before(shards);
  const auto snapshot_sim = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      sim_before[s] = SimulatedDeviceNanosOfShard(os, s);
    }
  };

  for (std::uint64_t i = 0; i < ops; ++i) {
    const double arrival = recorder.NextArrivalNs();
    const std::uint64_t subject = 1 + zipf.Next();
    const std::size_t home = os.dbfs().ShardIndexOfSubject(subject);
    const workload::GdprOp op = mix.Sample(rng);
    const bool fan_out = op == workload::GdprOp::kAuditPurpose;

    snapshot_sim();
    Stopwatch watch;
    bool ok = true;
    switch (op) {
      case workload::GdprOp::kCreateRecord: {
        membrane::Membrane m = decl.DefaultMembrane(subject, os.clock().Now());
        ok = os.dbfs()
                 .Put(sentinel::Domain::kDed, subject, "user",
                      FreshUserRow(rng, subject), std::move(m))
                 .ok();
        break;
      }
      case workload::GdprOp::kReadRecord: {
        auto ids = os.dbfs().RecordsOfSubject(sentinel::Domain::kDed, subject);
        ok = ids.ok() && (ids->empty() ||
                          os.dbfs()
                              .Get(sentinel::Domain::kDed, ids->front())
                              .ok());
        break;
      }
      case workload::GdprOp::kUpdateRecord: {
        auto ids = os.dbfs().RecordsOfSubject(sentinel::Domain::kDed, subject);
        if (ids.ok() && !ids->empty()) {
          auto record = os.dbfs().Get(sentinel::Domain::kDed, ids->front());
          if (record.ok() && !record->erased) {
            ok = os.builtins()
                     .Update(core::PdRef{ids->front(), "user"},
                             FreshUserRow(rng, subject))
                     .ok();
          }
        }
        break;
      }
      case workload::GdprOp::kDeleteRecord: {
        auto ids = os.dbfs().RecordsOfSubject(sentinel::Domain::kDed, subject);
        if (ids.ok() && !ids->empty()) {
          ok = os.builtins()
                   .HardDelete(core::PdRef{ids->back(), "user"})
                   .ok();
        }
        break;
      }
      case workload::GdprOp::kRightOfAccess:
        ok = os.RightOfAccess(subject).ok();
        break;
      case workload::GdprOp::kRightToErasure:
        ok = os.RightToBeForgotten(subject).ok();
        break;
      case workload::GdprOp::kRightToPortability:
        ok = os.RightToPortability(subject).ok();
        break;
      case workload::GdprOp::kConsentWithdrawal: {
        auto ids = os.dbfs().RecordsOfSubject(sentinel::Domain::kDed, subject);
        if (ids.ok() && !ids->empty()) {
          auto record = os.dbfs().Get(sentinel::Domain::kDed, ids->front());
          if (record.ok() && !record->erased) {
            ok = os.builtins()
                     .RevokeConsent(core::PdRef{ids->front(), "user"},
                                    "analytics")
                     .ok();
          }
        }
        break;
      }
      case workload::GdprOp::kAuditSubject:
        ok = !os.processing_log().ForSubject(subject).empty() ||
             os.processing_log().VerifyChain();
        break;
      case workload::GdprOp::kAuditPurpose: {
        auto ids = os.dbfs().RecordsOfType(sentinel::Domain::kDed, "user");
        ok = ids.ok();
        break;
      }
    }
    if (!ok) ++result.failed;

    const double wall_ns = double(watch.ElapsedNanos());
    if (fan_out) {
      // Every shard worked: its own device delta plus an even share of
      // the host CPU time.
      std::vector<double> service(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        service[s] = wall_ns / double(shards) +
                     double(SimulatedDeviceNanosOfShard(os, s) -
                            sim_before[s]);
      }
      recorder.CompleteFanOut(arrival, service);
    } else {
      // Routed op: all work (wall + the home shard's device delta)
      // belongs to the owning shard. Cross-checking the other shards'
      // deltas here would always read zero by construction.
      const double service =
          wall_ns + double(SimulatedDeviceNanosOfShard(os, home) -
                           sim_before[home]);
      recorder.Complete(arrival, home, service);
    }
  }

  result.achieved_ops_s = recorder.AchievedOpsPerSec();
  result.p50_us = recorder.latency().P50Us();
  result.p99_us = recorder.latency().P99Us();
  result.p999_us = recorder.latency().P999Us();
  for (std::size_t s = 0; s < shards; ++s) {
    result.per_shard_ops_s.push_back(recorder.ServerOpsPerSec(s));
  }
  return result;
}

int Main() {
  const std::uint64_t subjects = EnvOr("RGPDOS_BENCH_SUBJECTS", 1'000'000);
  const std::uint64_t ops = EnvOr("RGPDOS_BENCH_OPS", 30'000);
  const double qps = double(EnvOr("RGPDOS_BENCH_QPS", 50'000));

  std::printf("=== shard scale-out: open-loop GDPRbench mixes ===\n");
  std::printf("subjects=%" PRIu64 " ops/role=%" PRIu64
              " target_qps=%.0f (NVMe cost model, virtual per-shard "
              "server clocks)\n\n",
              subjects, ops, qps);

  std::vector<std::pair<std::string, double>> stats;
  stats.emplace_back("subjects", double(subjects));
  stats.emplace_back("ops_per_role", double(ops));
  stats.emplace_back("target_qps", qps);

  double controller_1shard = 0;
  double controller_4shard = 0;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ScaleWorld world = MakeScaleWorld(shards, subjects);
    std::printf("--- %zu shard(s): loaded %" PRIu64 " subjects in %.1fs ---\n",
                shards, subjects, world.load_seconds);
    const std::string shard_prefix = "shards_" + std::to_string(shards);
    stats.emplace_back(shard_prefix + ".load_seconds", world.load_seconds);
    std::printf("%-12s %14s %10s %10s %10s %16s\n", "role", "achieved op/s",
                "p50 us", "p99 us", "p999 us", "per-shard op/s");
    for (const workload::OpMix& mix :
         {workload::OpMix::Controller(), workload::OpMix::Customer(),
          workload::OpMix::Regulator()}) {
      // Regulator purpose audits are full type scans (O(records) each);
      // at a million subjects the role runs a tenth of the ops so the
      // harness stays bounded. The JSON records the actual count.
      const std::uint64_t role_ops =
          mix.name() == "regulator"
              ? std::max<std::uint64_t>(ops / 10, 100)
              : ops;
      const RoleResult r =
          RunRole(*world.os, shards, subjects, mix, role_ops, qps);
      std::string per_shard;
      double min_shard = r.per_shard_ops_s.empty() ? 0 : r.per_shard_ops_s[0];
      double max_shard = min_shard;
      for (const double v : r.per_shard_ops_s) {
        min_shard = std::min(min_shard, v);
        max_shard = std::max(max_shard, v);
      }
      std::printf("%-12s %14.0f %10.1f %10.1f %10.1f %7.0f..%-7.0f\n",
                  mix.name().c_str(), r.achieved_ops_s, r.p50_us, r.p99_us,
                  r.p999_us, min_shard, max_shard);
      const std::string prefix = shard_prefix + "." + mix.name();
      stats.emplace_back(prefix + ".ops", double(role_ops));
      stats.emplace_back(prefix + ".achieved_ops_s", r.achieved_ops_s);
      stats.emplace_back(prefix + ".p50_us", r.p50_us);
      stats.emplace_back(prefix + ".p99_us", r.p99_us);
      stats.emplace_back(prefix + ".p999_us", r.p999_us);
      stats.emplace_back(prefix + ".failed_ops", double(r.failed));
      for (std::size_t s = 0; s < r.per_shard_ops_s.size(); ++s) {
        stats.emplace_back(prefix + ".shard" + std::to_string(s) + "_ops_s",
                           r.per_shard_ops_s[s]);
      }
      if (mix.name() == "controller") {
        if (shards == 1) controller_1shard = r.achieved_ops_s;
        if (shards == 4) controller_4shard = r.achieved_ops_s;
      }
    }
    std::printf("\n");
  }

  const double scaling =
      controller_1shard > 0 ? controller_4shard / controller_1shard : 0;
  std::printf("controller scaling 1 -> 4 shards: %.2fx %s\n", scaling,
              scaling >= 2.0 ? "(meets >=2x target)"
                             : "(BELOW the >=2x target)");
  stats.emplace_back("controller_scaling_4_shards", scaling);

  DumpBenchArtifact("shard_scaleout", stats);
  return 0;
}

}  // namespace
}  // namespace rgpdos::bench

int main() { return rgpdos::bench::Main(); }

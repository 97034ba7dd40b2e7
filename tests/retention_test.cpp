// Retention sweeper suite: the storage-limitation daemon (Art. 5(1)(e))
// proactively erases expired PD end-to-end — raw medium, block cache,
// decoded-record cache — while unexpired records, restricted records
// (Art. 18) and foreground traffic stay untouched. The daemon tests run
// in the TSan CI job; the crash-at-every-write sweep lives in
// recovery_test.cpp (RetentionRecovery.*).
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/retention.hpp"
#include "core/rgpdos.hpp"

namespace rgpdos {
namespace {

constexpr sentinel::Domain kDed = sentinel::Domain::kDed;

constexpr std::string_view kTypes = R"(
type note {
  fields { author: string, text: string };
  consent { reading: all };
  origin: subject;
  sensitivity: medium;
}
)";

/// Whole-device substring scan, used both on the raw medium and through
/// the block cache (what the cache SERVES after invalidation).
Result<bool> DeviceContains(blockdev::BlockDevice& device,
                            const std::string& marker) {
  Bytes image;
  image.reserve(device.block_count() * device.block_size());
  Bytes block;
  for (blockdev::BlockIndex b = 0; b < device.block_count(); ++b) {
    RGPD_RETURN_IF_ERROR(device.ReadBlock(b, block));
    image.insert(image.end(), block.begin(), block.end());
  }
  const std::string haystack(reinterpret_cast<const char*>(image.data()),
                             image.size());
  return haystack.find(marker) != std::string::npos;
}

/// OR of DeviceContains over every PD shard's raw medium — under
/// RGPDOS_SHARDS the spine is split, and erasure must hold on whichever
/// shard the subject routes to.
Result<bool> PdMediumContains(core::RgpdOs& os, const std::string& marker) {
  for (std::size_t s = 0; s < os.shard_count(); ++s) {
    RGPD_ASSIGN_OR_RETURN(bool hit, DeviceContains(os.dbfs_device(s), marker));
    if (hit) return true;
  }
  return false;
}

/// Same scan through each shard's block cache: what the caches SERVE
/// after a sweep, not what the medium holds.
Result<bool> PdCacheServes(core::RgpdOs& os, const std::string& marker) {
  for (std::size_t s = 0; s < os.shard_count(); ++s) {
    if (os.dbfs_cache(s) == nullptr) continue;
    RGPD_ASSIGN_OR_RETURN(bool hit,
                          DeviceContains(*os.dbfs_cache(s), marker));
    if (hit) return true;
  }
  return false;
}

class RetentionTest : public ::testing::Test {
 protected:
  static std::unique_ptr<core::RgpdOs> BootWorld(
      const core::BootConfig& base = {}) {
    core::BootConfig config = base;
    config.seed = 7;
    config.use_sim_clock = true;
    auto os = core::RgpdOs::Boot(config);
    EXPECT_TRUE(os.ok()) << os.status().ToString();
    std::unique_ptr<core::RgpdOs> world = std::move(os).value();
    EXPECT_TRUE(world->DeclareTypes(kTypes).ok());
    return world;
  }

  /// Put a note whose payload carries `marker`; ttl 0 = never expires.
  static dbfs::RecordId PutNote(core::RgpdOs& os, dbfs::SubjectId subject,
                                const std::string& marker, TimeMicros ttl) {
    auto type = os.dbfs().GetType(kDed, "note");
    EXPECT_TRUE(type.ok());
    membrane::Membrane m = (*type)->DefaultMembrane(subject, os.clock().Now());
    m.ttl = ttl;
    const std::string text = "pd payload " + marker;
    auto id = os.dbfs().Put(kDed, subject, "note",
                            db::Row{db::Value(std::string("author")),
                                    db::Value(text)},
                            std::move(m));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }
};

// The headline property: after one sweep, an expired record's payload is
// gone from the raw block device AND from what every cache level serves,
// while an unexpired neighbour survives byte-exact.
TEST_F(RetentionTest, SweepErasesExpiredFromMediumAndAllCacheLevels) {
  std::unique_ptr<core::RgpdOs> os = BootWorld();
  const dbfs::RecordId doomed =
      PutNote(*os, 1, "PD_TTL_MARKER_DOOMED", /*ttl=*/500);
  const dbfs::RecordId keeper =
      PutNote(*os, 1, "PD_TTL_MARKER_KEEPER", /*ttl=*/0);
  const dbfs::RecordId late =
      PutNote(*os, 2, "PD_TTL_MARKER_LATE", /*ttl=*/1'000'000);

  // Warm every cache level with the soon-to-expire record. Each cache
  // level is checked only when the world booted with it (RGPDOS_CACHE=0
  // turns them all off); the medium and API checks hold either way.
  ASSERT_TRUE(os->dbfs().Get(kDed, doomed).ok());
  ASSERT_TRUE(os->dbfs().Get(kDed, keeper).ok());
  if (os->dbfs().record_cache() != nullptr) {
    ASSERT_GT(os->dbfs().cached_record_count(), 0u);
  }
  ASSERT_TRUE(*PdMediumContains(*os, "PD_TTL_MARKER_DOOMED"));

  os->sim_clock()->Advance(1000);  // past doomed's TTL, not late's
  auto report = os->retention().SweepOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->scanned, 3u);
  EXPECT_EQ(report->expired, 1u);
  EXPECT_EQ(report->erased, 1u);
  EXPECT_EQ(report->deferred, 0u);
  EXPECT_TRUE(report->wrapped);

  // Level 0, the medium: no plaintext byte of the expired payload
  // anywhere (data region or journal — HardDelete scrubs both).
  EXPECT_FALSE(*PdMediumContains(*os, "PD_TTL_MARKER_DOOMED"));
  // Level 1, the block cache: nothing it serves contains the payload.
  if (os->dbfs_cache() != nullptr) {
    EXPECT_FALSE(*PdCacheServes(*os, "PD_TTL_MARKER_DOOMED"));
  }
  // Level 2, the record cache: the decoded record is unreachable.
  EXPECT_EQ(os->dbfs().Get(kDed, doomed).status().code(),
            StatusCode::kNotFound);

  // The unexpired neighbours are untouched, on disk and through the API.
  auto kept = os->dbfs().Get(kDed, keeper);
  ASSERT_TRUE(kept.ok());
  EXPECT_NE(kept->row[1].AsString()->find("PD_TTL_MARKER_KEEPER"),
            std::string::npos);
  EXPECT_TRUE(os->dbfs().Get(kDed, late).ok());
  EXPECT_TRUE(*PdMediumContains(*os, "PD_TTL_MARKER_KEEPER"));

  // Idempotent: a second full sweep finds nothing left to erase.
  auto again = os->retention().SweepOnce();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->wrapped);
  EXPECT_EQ(again->expired, 0u);
  EXPECT_EQ(again->erased, 0u);

  // Each expiry left an audit record and a processing-log entry.
  const auto audited = os->audit().Query([](const sentinel::AuditEntry& e) {
    return e.rule == "retention-ttl";
  });
  ASSERT_EQ(audited.size(), 1u);
  EXPECT_TRUE(audited[0].allowed);
  EXPECT_NE(audited[0].request.detail.find(
                "record=" + std::to_string(doomed)),
            std::string::npos);
  bool logged = false;
  for (const auto& entry : os->processing_log().entries()) {
    logged |= entry.processing == "sentinel.retention" &&
              entry.outcome == core::LogOutcome::kErased &&
              entry.record_id == doomed;
  }
  EXPECT_TRUE(logged);
}

// Art. 18 outranks expiry: a restricted record stays put (deferred) and
// is reaped only once the restriction lifts.
TEST_F(RetentionTest, RestrictedExpiredRecordIsDeferredUntilLifted) {
  std::unique_ptr<core::RgpdOs> os = BootWorld();
  const dbfs::RecordId id =
      PutNote(*os, 1, "PD_TTL_MARKER_HELD", /*ttl=*/500);
  {
    auto m = os->dbfs().GetMembrane(kDed, id);
    ASSERT_TRUE(m.ok());
    m->Restrict("legal claim pending");
    ASSERT_TRUE(os->dbfs().UpdateMembrane(kDed, id, *m).ok());
  }
  os->sim_clock()->Advance(1000);

  auto report = os->retention().SweepOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->expired, 1u);
  EXPECT_EQ(report->deferred, 1u);
  EXPECT_EQ(report->erased, 0u);
  EXPECT_TRUE(os->dbfs().Get(kDed, id).ok());  // bytes preserved
  EXPECT_TRUE(*PdMediumContains(*os, "PD_TTL_MARKER_HELD"));
  const auto held = os->audit().Query([](const sentinel::AuditEntry& e) {
    return e.rule == "retention-hold-restricted";
  });
  ASSERT_EQ(held.size(), 1u);
  EXPECT_FALSE(held[0].allowed);

  {
    auto m = os->dbfs().GetMembrane(kDed, id);
    ASSERT_TRUE(m.ok());
    m->LiftRestriction();
    ASSERT_TRUE(os->dbfs().UpdateMembrane(kDed, id, *m).ok());
  }
  auto second = os->retention().SweepOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->erased, 1u);
  EXPECT_EQ(os->dbfs().Get(kDed, id).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(*PdMediumContains(*os, "PD_TTL_MARKER_HELD"));
}

// Lazy and proactive enforcement agree: the moment the TTL elapses the
// membrane rejects Evaluate with kExpired (read path), and the sweeper
// then removes the bytes (storage path).
TEST_F(RetentionTest, ExpiredIsRejectedByEvaluateThenReapedBySweeper) {
  std::unique_ptr<core::RgpdOs> os = BootWorld();
  const dbfs::RecordId id =
      PutNote(*os, 1, "PD_TTL_MARKER_LAZY", /*ttl=*/500);
  os->sim_clock()->Advance(500);  // exact boundary: already expired

  auto m = os->dbfs().GetMembrane(kDed, id);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->Evaluate("reading", os->clock().Now()).status().code(),
            StatusCode::kExpired);
  EXPECT_TRUE(os->dbfs().Get(kDed, id).ok());  // lazily expired, still stored

  ASSERT_TRUE(os->retention().SweepOnce().ok());
  EXPECT_EQ(os->dbfs().Get(kDed, id).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(*PdMediumContains(*os, "PD_TTL_MARKER_LAZY"));
}

// Crypto mode: expiry seals the payload to the supervisory authority
// instead of scrubbing — the record survives as an erased envelope, but
// no plaintext remains on the medium.
TEST_F(RetentionTest, CryptoEraseModeSealsExpiredPayload) {
  core::BootConfig config;
  config.retention_crypto_erase = true;
  std::unique_ptr<core::RgpdOs> os = BootWorld(config);
  const dbfs::RecordId id =
      PutNote(*os, 1, "PD_TTL_MARKER_SEALME", /*ttl=*/500);
  os->sim_clock()->Advance(1000);

  auto report = os->retention().SweepOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->erased, 1u);
  auto record = os->dbfs().Get(kDed, id);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->erased);
  EXPECT_FALSE(*PdMediumContains(*os, "PD_TTL_MARKER_SEALME"));
}

// Token bucket: a sweep visits at most pages_per_sweep subjects and the
// cursor resumes where it left off, so repeated sweeps cover everyone.
TEST_F(RetentionTest, TokenBucketPagesSweepsAndCursorResumes) {
  core::BootConfig config;
  config.retention_pages_per_sweep = 2;
  config.retention_burst_pages = 2;  // no carry-over: exactly 2 per sweep
  std::unique_ptr<core::RgpdOs> os = BootWorld(config);
  constexpr int kSubjects = 7;
  for (int s = 1; s <= kSubjects; ++s) {
    PutNote(*os, s, "PD_TTL_MARKER_S" + std::to_string(s), /*ttl=*/500);
  }
  os->sim_clock()->Advance(1000);

  int sweeps = 0;
  while (os->retention().total_erased() < kSubjects) {
    auto report = os->retention().SweepOnce();
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report->pages, 2u);
    ASSERT_LT(++sweeps, 32) << "sweeper failed to make progress";
  }
  // 2 pages a sweep over 7 subjects: at least 4 sweeps to cover a cycle.
  EXPECT_GE(sweeps, 4);
  for (int s = 1; s <= kSubjects; ++s) {
    EXPECT_FALSE(*PdMediumContains(*os, "PD_TTL_MARKER_S" + std::to_string(s)));
  }
}

// Backpressure: while foreground invokes are in flight the sweep yields
// without scanning; once the foreground goes quiet it proceeds.
TEST_F(RetentionTest, SweepYieldsToForegroundTraffic) {
  std::unique_ptr<core::RgpdOs> os = BootWorld();
  PutNote(*os, 1, "PD_TTL_MARKER_BUSY", /*ttl=*/500);
  os->sim_clock()->Advance(1000);

  bool busy = true;
  core::RetentionSweeper::Deps deps;
  deps.dbfs = &os->dbfs();
  deps.clock = &os->clock();
  deps.foreground_busy = [&busy] { return busy; };
  core::RetentionSweeper sweeper(std::move(deps), core::RetentionOptions{});

  auto yielded = sweeper.SweepOnce();
  ASSERT_TRUE(yielded.ok());
  EXPECT_TRUE(yielded->yielded);
  EXPECT_EQ(yielded->scanned, 0u);
  EXPECT_EQ(yielded->erased, 0u);

  busy = false;
  auto report = sweeper.SweepOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->yielded);
  EXPECT_EQ(report->erased, 1u);
}

// The booted daemon reaps in the background, and the in-flight counter
// it keys off is visible on the PS.
TEST_F(RetentionTest, BootedDaemonReapsInBackground) {
  core::BootConfig config;
  config.retention_enabled = true;
  config.retention_interval_ms = 1;
  std::unique_ptr<core::RgpdOs> os = BootWorld(config);
  ASSERT_TRUE(os->retention().running());
  EXPECT_EQ(os->ps().invokes_in_flight(), 0u);

  PutNote(*os, 1, "PD_TTL_MARKER_DAEMON", /*ttl=*/500);
  os->sim_clock()->Advance(1000);
  // The daemon ticks on wall time (1ms) but judges expiry on the sim
  // clock we just advanced; poll until it has reaped.
  for (int i = 0; i < 2000 && os->retention().total_erased() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(os->retention().total_erased(), 1u);
  EXPECT_FALSE(*PdMediumContains(*os, "PD_TTL_MARKER_DAEMON"));
  os->retention().Stop();
  EXPECT_FALSE(os->retention().running());
}

// ttl == 0 means "no retention bound": the sweeper never touches it no
// matter how far time advances.
TEST_F(RetentionTest, ZeroTtlIsNeverReaped) {
  std::unique_ptr<core::RgpdOs> os = BootWorld();
  const dbfs::RecordId id =
      PutNote(*os, 1, "PD_TTL_MARKER_FOREVER", /*ttl=*/0);
  os->sim_clock()->Advance(std::numeric_limits<TimeMicros>::max() / 2);
  auto report = os->retention().SweepOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->expired, 0u);
  EXPECT_EQ(report->erased, 0u);
  EXPECT_TRUE(os->dbfs().Get(kDed, id).ok());
}

// SetTtl mid-life moves the deadline in both directions, and the sweeper
// honours the current value.
TEST_F(RetentionTest, SetTtlMidLifeMovesTheSweepDeadline) {
  std::unique_ptr<core::RgpdOs> os = BootWorld();
  const dbfs::RecordId id =
      PutNote(*os, 1, "PD_TTL_MARKER_MOVING", /*ttl=*/500);

  // Lengthen before expiry: the old deadline passes harmlessly.
  {
    auto m = os->dbfs().GetMembrane(kDed, id);
    ASSERT_TRUE(m.ok());
    m->SetTtl(10'000);
    ASSERT_TRUE(os->dbfs().UpdateMembrane(kDed, id, *m).ok());
  }
  os->sim_clock()->Advance(1000);  // past the ORIGINAL deadline
  ASSERT_TRUE(os->retention().SweepOnce().ok());
  EXPECT_TRUE(os->dbfs().Get(kDed, id).ok());

  // Shorten: the record is instantly overdue and the next sweep reaps it.
  {
    auto m = os->dbfs().GetMembrane(kDed, id);
    ASSERT_TRUE(m.ok());
    m->SetTtl(100);
    ASSERT_TRUE(os->dbfs().UpdateMembrane(kDed, id, *m).ok());
  }
  ASSERT_TRUE(os->retention().SweepOnce().ok());
  EXPECT_EQ(os->dbfs().Get(kDed, id).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(*PdMediumContains(*os, "PD_TTL_MARKER_MOVING"));
}

// With worker threads the sweep fans each page batch over the DED pool
// (ParallelFor); a multi-subject expired population must still be erased
// exactly once each, with the per-shard reports summing correctly. Runs
// under TSan in CI.
TEST_F(RetentionTest, ParallelSweepOverExecutorErasesEverySubject) {
  core::BootConfig config;
  config.worker_threads = 4;
  std::unique_ptr<core::RgpdOs> os = BootWorld(config);
  constexpr dbfs::SubjectId kSubjects = 12;
  std::vector<dbfs::RecordId> doomed;
  for (dbfs::SubjectId s = 1; s <= kSubjects; ++s) {
    doomed.push_back(PutNote(*os, s, "PD_TTL_PAR_" + std::to_string(s),
                             /*ttl=*/500));
    PutNote(*os, s, "PD_TTL_PAR_KEEP_" + std::to_string(s), /*ttl=*/0);
  }
  os->sim_clock()->Advance(1000);

  auto report = os->retention().SweepOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->expired, kSubjects);
  EXPECT_EQ(report->erased, kSubjects);
  EXPECT_EQ(report->scanned, 2u * kSubjects);
  EXPECT_EQ(report->deferred, 0u);

  for (dbfs::SubjectId s = 1; s <= kSubjects; ++s) {
    EXPECT_EQ(os->dbfs().Get(kDed, doomed[s - 1]).status().code(),
              StatusCode::kNotFound);
    EXPECT_FALSE(
        *PdMediumContains(*os, "PD_TTL_PAR_" + std::to_string(s)));
    EXPECT_TRUE(*PdMediumContains(*os, "PD_TTL_PAR_KEEP_" + std::to_string(s)));
  }
  EXPECT_EQ(os->retention().total_erased(), kSubjects);
}

}  // namespace
}  // namespace rgpdos

// Crash-recovery suite: sweeps the fault-injecting device's
// crash-at-write-N over EVERY write index of the mixed PD workload (in
// clean-crash, torn-write and volatile-write-back modes), exercises the
// transient-IO retry path, replays seeded CI fault plans, and drives the
// RgpdOs boot-time recovery entry point (attach_dbfs_devices).
//
// On failure the offending FaultPlan is written to
// $RGPD_FAULT_ARTIFACT_DIR (or /tmp) so CI can upload it; re-running the
// plan through CrashRecoveryHarness::RunWithPlan reproduces the red run
// exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rgpdos.hpp"
#include "dsl/parser.hpp"
#include "tests/recovery_harness.hpp"

namespace rgpdos {
namespace {

using testing::CrashRecoveryHarness;

/// Persist a failing plan for the CI artifact uploader; returns the path.
std::string WriteFaultArtifact(const std::string& test_name,
                               const blockdev::FaultPlan& plan,
                               const std::string& detail) {
  const char* dir = std::getenv("RGPD_FAULT_ARTIFACT_DIR");
  const std::string path = std::string(dir != nullptr ? dir : "/tmp") +
                           "/fault_plan_" + test_name + ".txt";
  std::ofstream out(path, std::ios::trunc);
  out << plan.ToString() << "\n" << detail << "\n";
  return path;
}

/// Run the crash sweep: every write index from 1 to the workload's total
/// write count, with `base` supplying the non-crash knobs.
void SweepEveryWriteIndex(const std::string& test_name,
                          blockdev::FaultPlan base,
                          CrashRecoveryHarness::Options options = {}) {
  CrashRecoveryHarness harness(options);
  auto total = harness.CountWorkloadWrites();
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  ASSERT_GT(*total, 0u);
  std::size_t failures = 0;
  for (std::uint64_t n = 1; n <= *total; ++n) {
    blockdev::FaultPlan plan = base;
    plan.crash_at_write = n;
    const Status s = harness.RunWithPlan(plan);
    if (!s.ok()) {
      const std::string path =
          WriteFaultArtifact(test_name, plan, s.ToString());
      ADD_FAILURE() << s.ToString() << "\n(plan saved to " << path << ")";
      if (++failures >= 3) {
        FAIL() << "aborting sweep after 3 failing crash points (of "
               << *total << ")";
      }
    }
  }
}

TEST(CrashRecovery, EveryWriteIndexCleanCrash) {
  SweepEveryWriteIndex("clean", blockdev::FaultPlan{});
}

TEST(CrashRecovery, EveryWriteIndexTornCrash) {
  // The crashing write persists a 97-byte prefix: the journal record
  // header (and part of the payload) lands, the CRC tail does not.
  blockdev::FaultPlan base;
  base.torn_bytes = 97;
  SweepEveryWriteIndex("torn", base);
}

TEST(CrashRecovery, EveryWriteIndexWriteBackCrash) {
  // Volatile disk cache: everything unflushed at the crash is lost, so
  // any acknowledgement that didn't reach a durability barrier shows up
  // as a violated invariant.
  blockdev::FaultPlan base;
  base.volatile_write_back = true;
  SweepEveryWriteIndex("writeback", base);
}

// Sharded spine (DESIGN.md §12): the same every-write-index sweep on a
// 2-shard boot, with the fault plan installed on ONE shard's medium at a
// time. Subjects 1/3 land on shard 1 and subject 2 on shard 0, so the
// shard-1 sweep crashes inside the hard-delete and envelope erasures
// while the shard-0 sweep crashes inside the consent withdrawal — and in
// every case the OTHER shard's acknowledged state must come through
// untouched and the facade must remount (I1-I5 across the union of
// media).
TEST(ShardedCrashRecovery, EveryWriteIndexCleanCrashFaultOnShardZero) {
  CrashRecoveryHarness::Options options;
  options.shards = 2;
  options.faulted_shard = 0;
  SweepEveryWriteIndex("sharded_shard0_clean", blockdev::FaultPlan{},
                       options);
}

TEST(ShardedCrashRecovery, EveryWriteIndexCleanCrashFaultOnShardOne) {
  CrashRecoveryHarness::Options options;
  options.shards = 2;
  options.faulted_shard = 1;
  SweepEveryWriteIndex("sharded_shard1_clean", blockdev::FaultPlan{},
                       options);
}

TEST(ShardedCrashRecovery, EveryWriteIndexTornCrashFaultOnShardOne) {
  CrashRecoveryHarness::Options options;
  options.shards = 2;
  options.faulted_shard = 1;
  blockdev::FaultPlan base;
  base.torn_bytes = 97;
  SweepEveryWriteIndex("sharded_shard1_torn", base, options);
}

TEST(ShardedCrashRecovery, EveryWriteIndexCleanCrashDuringShardedSweep) {
  // Retention phase: the TTL record belongs to subject 2 = shard 0, so
  // faulting shard 0 lands crashes inside the sweeper's journaled
  // expiry while the subject walk fans out across both shards.
  CrashRecoveryHarness::Options options;
  options.shards = 2;
  options.faulted_shard = 0;
  options.retention_sweep = true;
  SweepEveryWriteIndex("sharded_retention_clean", blockdev::FaultPlan{},
                       options);
}

// The retention sweeper's proactive expiry is an ordinary journaled
// hard delete, so a crash at ANY write inside the sweep must leave the
// expiry all-or-nothing and never resurrect the reaped plaintext. Same
// sweep as above with the workload's retention phase switched on, which
// extends the write range into the sweeper's transaction.
TEST(RetentionRecovery, EveryWriteIndexCleanCrashDuringSweep) {
  CrashRecoveryHarness::Options options;
  options.retention_sweep = true;
  SweepEveryWriteIndex("retention_clean", blockdev::FaultPlan{}, options);
}

TEST(RetentionRecovery, EveryWriteIndexTornCrashDuringSweep) {
  CrashRecoveryHarness::Options options;
  options.retention_sweep = true;
  blockdev::FaultPlan base;
  base.torn_bytes = 97;
  SweepEveryWriteIndex("retention_torn", base, options);
}

TEST(RetentionRecovery, SweepSurvivesTransientIoErrors) {
  // The sweeper inherits the inodefs retry policy: every 5th IO failing
  // once must not turn an expiry into a deferral loop.
  CrashRecoveryHarness::Options options;
  options.retention_sweep = true;
  CrashRecoveryHarness harness(options);
  blockdev::FaultPlan plan;
  plan.transient_error_every = 5;
  EXPECT_TRUE(harness.RunWithPlan(plan).ok());
}

TEST(CrashRecovery, TransientIoErrorsAreRetriedToCompletion) {
  // No crash — every 5th IO fails once with kIoError. The inodefs retry
  // policy must absorb all of them and the workload must finish with a
  // fully consistent image.
  CrashRecoveryHarness harness;
  blockdev::FaultPlan plan;
  plan.transient_error_every = 5;
  EXPECT_TRUE(harness.RunWithPlan(plan).ok());
}

TEST(CrashRecovery, SeededPlanFromEnv) {
  // CI matrix entry point: RGPDOS_FAULT_SEED picks the plan. Defaults to
  // a fixed seed so local runs are deterministic too.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("RGPDOS_FAULT_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
    if (seed == 0) seed = 1;
  }
  CrashRecoveryHarness harness;
  auto total = harness.CountWorkloadWrites();
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    const blockdev::FaultPlan plan =
        blockdev::FaultPlan::FromSeed(seed + stream, *total);
    const Status s = harness.RunWithPlan(plan);
    if (!s.ok()) {
      const std::string path = WriteFaultArtifact("seeded", plan,
                                                  s.ToString());
      ADD_FAILURE() << s.ToString() << "\n(plan saved to " << path << ")";
    }
  }
}

// ---- boot-time recovery (RgpdOs::Boot + attach_dbfs_devices) ----------------

constexpr std::string_view kBootType = R"(
type note {
  fields { author: string, text: string };
  consent { reading: all };
  origin: subject;
  sensitivity: medium;
}
)";

/// Format a DBFS image across `media` (one shard each) and return the
/// declared type.
Result<dsl::TypeDecl> FormatBootImage(
    const std::vector<blockdev::BlockDevice*>& media, const Clock& clock,
    sentinel::Sentinel& sentinel) {
  inodefs::InodeStore::Options options;
  options.inode_count = 96;
  options.journal_blocks = 64;
  std::vector<std::unique_ptr<inodefs::InodeStore>> owned;
  std::vector<inodefs::InodeStore*> stores;
  for (blockdev::BlockDevice* medium : media) {
    RGPD_ASSIGN_OR_RETURN(
        auto store, inodefs::InodeStore::Format(medium, options, &clock));
    stores.push_back(store.get());
    owned.push_back(std::move(store));
  }
  RGPD_ASSIGN_OR_RETURN(auto fs,
                        dbfs::ShardedDbfs::Format(stores, &sentinel, &clock));
  RGPD_ASSIGN_OR_RETURN(dsl::TypeDecl decl, dsl::ParseType(kBootType));
  RGPD_RETURN_IF_ERROR(fs->CreateType(sentinel::Domain::kSysadmin, decl));
  for (const auto& store : owned) RGPD_RETURN_IF_ERROR(store->Sync());
  return decl;
}

/// Unsets RGPDOS_FAULT_SEED for its lifetime and restores it afterwards.
/// Boot derives a fault plan from that variable, so a test that plans
/// its own crash points (or none) holds one of these around its boots to
/// keep a seeded plan from replacing them.
class ScopedFaultEnvCleared {
 public:
  ScopedFaultEnvCleared() {
    if (const char* value = std::getenv(kName); value != nullptr) {
      saved_ = value;
    }
    unsetenv(kName);
  }
  ~ScopedFaultEnvCleared() {
    if (saved_.has_value()) setenv(kName, saved_->c_str(), /*overwrite=*/1);
  }
  ScopedFaultEnvCleared(const ScopedFaultEnvCleared&) = delete;
  ScopedFaultEnvCleared& operator=(const ScopedFaultEnvCleared&) = delete;

 private:
  static constexpr const char* kName = "RGPDOS_FAULT_SEED";
  std::optional<std::string> saved_;
};

TEST(BootRecovery, AttachedDeviceCrashesAndRebootRecovers) {
  // Both phases below choose their own faults (a crash point, then
  // none); the recovery CI job's RGPDOS_FAULT_SEED must not replace them.
  const ScopedFaultEnvCleared own_fault_plan;
  SimClock clock(1000);
  sentinel::AuditSink audit;
  sentinel::Sentinel sentinel(sentinel::SecurityPolicy::RgpdDefault(),
                              &clock, &audit);
  blockdev::MemBlockDevice medium(4096, 2048);
  auto decl = FormatBootImage({&medium}, clock, sentinel);
  ASSERT_TRUE(decl.ok()) << decl.status().ToString();

  // Phase 1: boot attached to the image with a crash planned, write
  // until the power goes out.
  for (const std::uint64_t crash_at : {3u, 17u, 41u}) {
    core::BootConfig config;
    config.use_sim_clock = true;
    config.authority_key_bits = 512;
    config.attach_dbfs_devices = {&medium};
    config.fault_inject = true;
    config.fault_plan.crash_at_write = crash_at;
    auto os = core::RgpdOs::Boot(config);
    if (os.ok()) {
      bool crashed = false;
      for (int i = 0; i < 64 && !crashed; ++i) {
        auto put = (*os)->dbfs().Put(
            sentinel::Domain::kDed, 1, "note",
            db::Row{db::Value(std::string("amy")),
                    db::Value(std::string("boot note " +
                                          std::to_string(i)))},
            decl->DefaultMembrane(1, (*os)->clock().Now()));
        if (!put.ok()) {
          EXPECT_EQ(put.status().code(), StatusCode::kCrashed)
              << put.status().ToString();
          crashed = true;
        }
      }
      EXPECT_TRUE(crashed) << "crash_at=" << crash_at
                           << " never fired in 64 puts";
      ASSERT_NE((*os)->dbfs_fault(), nullptr);
      EXPECT_GE((*os)->dbfs_fault()->fault_stats().crashes, 1u);
    } else {
      // The crash landed during Boot's own mount/replay writes — that
      // must surface as kCrashed, not corruption.
      EXPECT_EQ(os.status().code(), StatusCode::kCrashed)
          << os.status().ToString();
    }

    // Phase 2: reboot on the surviving image with no faults. Boot's
    // attach path must replay the journal and come up consistent.
    core::BootConfig reboot;
    reboot.use_sim_clock = true;
    reboot.authority_key_bits = 512;
    reboot.attach_dbfs_devices = {&medium};
    auto rebooted = core::RgpdOs::Boot(reboot);
    ASSERT_TRUE(rebooted.ok()) << "crash_at=" << crash_at << ": "
                               << rebooted.status().ToString();
    // Every surviving record is complete, and the store takes new work.
    auto ids = (*rebooted)->dbfs().RecordsOfSubject(sentinel::Domain::kDed, 1);
    if (ids.ok()) {
      for (const dbfs::RecordId id : *ids) {
        auto rec = (*rebooted)->dbfs().Get(sentinel::Domain::kDed, id);
        ASSERT_TRUE(rec.ok()) << rec.status().ToString();
        EXPECT_EQ(rec->row.size(), 2u);
      }
    }
    auto post = (*rebooted)->dbfs().Put(
        sentinel::Domain::kDed, 2, "note",
        db::Row{db::Value(std::string("bea")),
                db::Value(std::string("post-reboot"))},
        decl->DefaultMembrane(2, (*rebooted)->clock().Now()));
    ASSERT_TRUE(post.ok()) << post.status().ToString();
  }
}

TEST(BootRecovery, AttachRejectsSplitSensitive) {
  blockdev::MemBlockDevice medium(4096, 256);
  core::BootConfig config;
  config.attach_dbfs_devices = {&medium};
  config.split_sensitive = true;
  auto os = core::RgpdOs::Boot(config);
  EXPECT_EQ(os.status().code(), StatusCode::kInvalidArgument);
}

TEST(BootRecovery, ShardedImageRebootsThroughBoot) {
  // Both boots run fault-free; the recovery CI job's RGPDOS_FAULT_SEED
  // must not plant a crash in them.
  const ScopedFaultEnvCleared no_fault_plan;
  SimClock clock(1000);
  sentinel::AuditSink audit;
  sentinel::Sentinel sentinel(sentinel::SecurityPolicy::RgpdDefault(),
                              &clock, &audit);
  std::vector<std::unique_ptr<blockdev::MemBlockDevice>> media;
  std::vector<blockdev::BlockDevice*> devices;
  for (int i = 0; i < 4; ++i) {
    media.push_back(std::make_unique<blockdev::MemBlockDevice>(4096, 2048));
    devices.push_back(media.back().get());
  }
  auto decl = FormatBootImage(devices, clock, sentinel);
  ASSERT_TRUE(decl.ok()) << decl.status().ToString();

  core::BootConfig config;
  config.use_sim_clock = true;
  config.authority_key_bits = 512;
  config.attach_dbfs_devices = devices;
  config.shards = 4;
  const auto note = [&](core::RgpdOs& os, dbfs::SubjectId subject,
                        const std::string& text) {
    return os.dbfs().Put(
        sentinel::Domain::kDed, subject, "note",
        db::Row{db::Value(std::string("ann")), db::Value(text)},
        decl->DefaultMembrane(subject, os.clock().Now()));
  };

  // First boot: one record for each of subjects 1-8 (two per shard) and
  // one acknowledged consent withdrawal, then an orderly teardown.
  std::map<dbfs::RecordId, std::string> acked;
  dbfs::RecordId revoked = 0;
  {
    auto os = core::RgpdOs::Boot(config);
    ASSERT_TRUE(os.ok()) << os.status().ToString();
    ASSERT_EQ((*os)->shard_count(), 4u);
    for (dbfs::SubjectId subject = 1; subject <= 8; ++subject) {
      const std::string text = "note of " + std::to_string(subject);
      auto id = note(**os, subject, text);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      acked[*id] = text;
    }
    revoked = acked.begin()->first;
    ASSERT_TRUE((*os)->builtins()
                    .RevokeConsent(core::PdRef{revoked, "note"}, "reading")
                    .ok());
  }

  // Reboot attached to the same four media: every acknowledged record
  // and consent state reads back, and each shard takes new writes.
  auto rebooted = core::RgpdOs::Boot(config);
  ASSERT_TRUE(rebooted.ok()) << rebooted.status().ToString();
  dbfs::ShardedDbfs& fs = (*rebooted)->dbfs();
  EXPECT_EQ(fs.record_count(), acked.size());
  for (const auto& [id, text] : acked) {
    auto rec = fs.Get(sentinel::Domain::kDed, id);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->row.size(), 2u);
    EXPECT_EQ(*rec->row[1].AsString(), text);
    const auto consent = rec->membrane.consents.find("reading");
    const bool withdrawn = consent == rec->membrane.consents.end() ||
                           consent->second.kind == membrane::ConsentKind::kNone;
    EXPECT_EQ(withdrawn, id == revoked) << "record " << id;
  }
  std::set<std::size_t> shards_written;
  for (dbfs::SubjectId subject = 9; subject <= 12; ++subject) {
    auto id = note(**rebooted, subject, "post-reboot");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(fs.Get(sentinel::Domain::kDed, *id).ok());
    shards_written.insert(fs.ShardIndexOfRecord(*id));
  }
  EXPECT_EQ(shards_written.size(), 4u);
}

TEST(BootRecovery, MountReportsRecoveryStats) {
  // A crash between journal commit and checkpoint leaves work for
  // Mount; last_recovery() must report it.
  SimClock clock(1000);
  blockdev::MemBlockDevice medium(512, 2048);
  inodefs::InodeStore::Options options;
  options.inode_count = 32;
  options.journal_blocks = 64;
  inodefs::InodeId inode = inodefs::kInvalidInode;
  {
    auto store = inodefs::InodeStore::Format(&medium, options, &clock);
    ASSERT_TRUE(store.ok());
    auto id = (*store)->AllocInode(inodefs::InodeKind::kFile);
    ASSERT_TRUE(id.ok());
    inode = *id;
    (*store)->SetCrashBeforeCheckpoint(true);
    const std::string data(300, 'r');
    ASSERT_TRUE(
        (*store)
            ->WriteAll(inode, ByteSpan(reinterpret_cast<const std::uint8_t*>(
                                           data.data()),
                                       data.size()))
            .ok());
  }
  auto store = inodefs::InodeStore::Mount(&medium, &clock);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto& recovery = (*store)->last_recovery();
  EXPECT_GE(recovery.replay.committed_txns, 1u);
  EXPECT_GT(recovery.replay.replayed_writes, 0u);
  EXPECT_EQ(recovery.replay.replayed_writes, recovery.checkpointed_blocks);
  auto back = (*store)->ReadAll(inode);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 300u);
}

}  // namespace
}  // namespace rgpdos

// Reusable crash-recovery harness (see DESIGN.md "Crash consistency &
// recovery").
//
// Drives a deterministic mixed PD workload — inserts, a consent
// withdrawal, a GDPR hard-delete and a crypto-erasure — against a DBFS
// stack whose raw medium sits under a FaultInjectingBlockDevice, then
// "reboots": remounts whatever survived on the medium through a FRESH
// device stack (cold caches) and checks the crash-consistency
// invariants:
//
//   I1  the surviving image mounts (InodeStore replay + Dbfs walk);
//   I2  every acknowledged Put that was not later erased is fully
//       readable with the exact row and consent state it was acked with
//       — and an acknowledged consent withdrawal stays withdrawn;
//   I3  an acknowledged erasure stays erased AND none of its plaintext
//       marker bytes appear anywhere on the medium (data region or
//       journal);
//   I4  the operation in flight at the crash is all-or-nothing: any
//       record beyond the acknowledged set must be complete and
//       readable, never half-present;
//   I5  the remounted stack accepts new writes (recovery didn't wedge
//       the store).
//
// The harness is parameterised by a FaultPlan, so the same workload
// sweeps crash-at-write-N over every write index, replays seeded CI
// plans, and exercises the transient-error retry path. Failures embed
// FaultPlan::ToString() so a red run is reproducible from the message.
//
// The image is N >= 1 independent media behind the dbfs::ShardedDbfs
// facade, exactly as RgpdOs::Boot assembles it. With N > 1 the fault
// plan is installed on ONE shard's medium (Options::faulted_shard) — the
// crash sweep then proves that a crash on shard A never leaves shard B
// stale-visible or the facade wedged: every shard's journal replays
// independently at remount and the invariants hold across the union of
// media.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "blockdev/block_cache.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/fault_injection.hpp"
#include "common/clock.hpp"
#include "core/retention.hpp"
#include "dbfs/sharded_dbfs.hpp"
#include "dsl/parser.hpp"
#include "sentinel/policy.hpp"

namespace rgpdos::testing {

class CrashRecoveryHarness {
 public:
  struct Options {
    std::uint32_t block_size = 512;
    std::uint64_t block_count = 4096;
    std::uint32_t inode_count = 96;
    std::uint64_t journal_blocks = 64;
    /// Block cache put in front of the remounted medium, proving
    /// recovery correctness does not depend on warm caches.
    std::uint64_t remount_cache_blocks = 64;
    /// Append a retention phase to the workload: a short-TTL record is
    /// inserted, the clock jumps past its deadline, and a bare
    /// RetentionSweeper reaps it — so the crash sweep also lands inside
    /// the sweeper's journaled hard-delete (RetentionRecovery.*).
    bool retention_sweep = false;
    /// Number of independent store shards, one medium each.
    std::size_t shards = 1;
    /// Which shard's medium carries the fault plan in sharded mode.
    std::size_t faulted_shard = 0;
  };

  CrashRecoveryHarness() = default;
  explicit CrashRecoveryHarness(Options options) : options_(options) {}

  /// Fault-free run of the whole workload; returns the number of writes
  /// the fault device (on the faulted shard) saw — the sweep range for
  /// crash-at-write-N.
  Result<std::uint64_t> CountWorkloadWrites() {
    std::vector<std::unique_ptr<blockdev::MemBlockDevice>> media =
        MakeMedia();
    RGPD_RETURN_IF_ERROR(FormatMedium(RawDevices(media)));
    blockdev::FaultInjectingBlockDevice fault(
        media[options_.faulted_shard].get(), blockdev::FaultPlan{});
    Model model;
    RGPD_RETURN_IF_ERROR(RunWorkload(FaultedDevices(media, fault), model));
    return fault.fault_stats().writes_seen;
  }

  /// One full crash/recover cycle under `plan`: fresh image, workload
  /// until completion or injected crash, remount of the surviving
  /// medium, invariant checks. Any violation comes back as a non-OK
  /// status whose message starts with the plan.
  Status RunWithPlan(const blockdev::FaultPlan& plan) {
    std::vector<std::unique_ptr<blockdev::MemBlockDevice>> media =
        MakeMedia();
    if (Status s = FormatMedium(RawDevices(media)); !s.ok()) {
      return Fail(plan, "format: " + s.ToString());
    }

    Model model;
    bool crashed = false;
    {
      blockdev::FaultInjectingBlockDevice fault(
          media[options_.faulted_shard].get(), plan);
      const Status s = RunWorkload(FaultedDevices(media, fault), model);
      if (!s.ok()) {
        if (s.code() != StatusCode::kCrashed) {
          return Fail(plan, "workload failed non-crashed: " + s.ToString());
        }
        crashed = true;
      }
      if (plan.crash_at_write != 0 && !crashed) {
        return Fail(plan, "plan demanded a crash but the workload finished");
      }
    }  // the crashed stack is torn down: "power off"

    return VerifyMedium(media, model, plan);
  }

 private:
  /// Expected durable state, updated only when an operation ACKS (the
  /// call returned OK, i.e. its effects were flushed).
  struct Model {
    struct LiveRecord {
      dbfs::SubjectId subject = 0;
      std::string author;
      std::string text;
      std::string marker;
      bool reading_revoked = false;
    };
    std::map<dbfs::RecordId, LiveRecord> live;
    std::set<dbfs::RecordId> hard_deleted;
    std::set<dbfs::RecordId> enveloped;
    /// Plaintext markers that must be absent from the medium (I3).
    std::vector<std::string> erased_markers;
    /// Erasure in flight at the crash (0 = none). Its journal record may
    /// have committed just before the power cut, so EITHER outcome is
    /// legal — fully applied or fully absent — but nothing in between.
    dbfs::RecordId pending_delete = 0;
    dbfs::RecordId pending_envelope = 0;
  };

  /// A mounted DBFS over borrowed devices: the stores (one per shard)
  /// plus the facade over them (each shard's journal replays in its own
  /// Mount).
  struct MountedFs {
    std::vector<std::unique_ptr<inodefs::InodeStore>> stores;
    std::unique_ptr<dbfs::ShardedDbfs> fs;
  };

  static constexpr std::string_view kTypeSource = R"(
type note {
  fields { author: string, text: string };
  consent { reading: all };
  origin: subject;
  sensitivity: medium;
}
)";

  static Status Fail(const blockdev::FaultPlan& plan, const std::string& why) {
    return Internal(plan.ToString() + " :: " + why);
  }

  std::vector<std::unique_ptr<blockdev::MemBlockDevice>> MakeMedia() const {
    std::vector<std::unique_ptr<blockdev::MemBlockDevice>> media;
    media.reserve(options_.shards);
    for (std::size_t i = 0; i < options_.shards; ++i) {
      media.push_back(std::make_unique<blockdev::MemBlockDevice>(
          options_.block_size, options_.block_count));
    }
    return media;
  }

  static std::vector<blockdev::BlockDevice*> RawDevices(
      const std::vector<std::unique_ptr<blockdev::MemBlockDevice>>& media) {
    std::vector<blockdev::BlockDevice*> devices;
    devices.reserve(media.size());
    for (const auto& m : media) devices.push_back(m.get());
    return devices;
  }

  /// The workload's device view: the faulted shard goes through the
  /// injector, every other shard talks to its raw medium.
  std::vector<blockdev::BlockDevice*> FaultedDevices(
      const std::vector<std::unique_ptr<blockdev::MemBlockDevice>>& media,
      blockdev::FaultInjectingBlockDevice& fault) const {
    std::vector<blockdev::BlockDevice*> devices = RawDevices(media);
    devices[options_.faulted_shard] = &fault;
    return devices;
  }

  /// Mount (or format) one inode store per device and assemble the facade.
  Result<MountedFs> OpenFs(const std::vector<blockdev::BlockDevice*>& devices,
                           bool format) {
    MountedFs out;
    out.stores.reserve(devices.size());
    for (blockdev::BlockDevice* dev : devices) {
      if (format) {
        inodefs::InodeStore::Options store_options;
        store_options.inode_count = options_.inode_count;
        store_options.journal_blocks = options_.journal_blocks;
        RGPD_ASSIGN_OR_RETURN(
            auto store,
            inodefs::InodeStore::Format(dev, store_options, &clock_));
        out.stores.push_back(std::move(store));
      } else {
        RGPD_ASSIGN_OR_RETURN(auto store,
                              inodefs::InodeStore::Mount(dev, &clock_));
        out.stores.push_back(std::move(store));
      }
    }
    std::vector<inodefs::InodeStore*> stores;
    stores.reserve(out.stores.size());
    for (const auto& s : out.stores) stores.push_back(s.get());
    if (format) {
      RGPD_ASSIGN_OR_RETURN(
          out.fs, dbfs::ShardedDbfs::Format(stores, &sentinel_, &clock_));
    } else {
      RGPD_ASSIGN_OR_RETURN(
          out.fs, dbfs::ShardedDbfs::Mount(stores, &sentinel_, &clock_));
    }
    return out;
  }

  /// Format a pristine DBFS image directly on the media (no faults:
  /// the sweep models crashes during operation, not during mkfs).
  Status FormatMedium(const std::vector<blockdev::BlockDevice*>& devices) {
    RGPD_ASSIGN_OR_RETURN(MountedFs mounted, OpenFs(devices, /*format=*/true));
    RGPD_ASSIGN_OR_RETURN(dsl::TypeDecl decl, dsl::ParseType(kTypeSource));
    RGPD_RETURN_IF_ERROR(
        mounted.fs->CreateType(sentinel::Domain::kSysadmin, decl));
    for (const auto& store : mounted.stores) {
      RGPD_RETURN_IF_ERROR(store->Sync());
    }
    return Status::Ok();
  }

  /// The deterministic mixed workload. Mounts the image through
  /// `devices`, applies the op sequence, acks each op into `model` as it
  /// completes. Returns the first failure (kCrashed when the plan fired).
  Status RunWorkload(const std::vector<blockdev::BlockDevice*>& devices,
                     Model& model) {
    const bool debug = std::getenv("RGPD_HARNESS_DEBUG") != nullptr;
    blockdev::BlockDevice* faulted = devices[options_.faulted_shard];
    const auto trace = [&](const char* op) {
      if (debug) {
        const auto* fault =
            dynamic_cast<blockdev::FaultInjectingBlockDevice*>(faulted);
        std::fprintf(stderr, "[harness] after %-12s writes_seen=%llu\n", op,
                     static_cast<unsigned long long>(
                         fault != nullptr ? fault->fault_stats().writes_seen
                                          : 0));
      }
    };
    RGPD_ASSIGN_OR_RETURN(MountedFs mounted,
                          OpenFs(devices, /*format=*/false));
    dbfs::ShardedDbfs* fs = mounted.fs.get();
    RGPD_ASSIGN_OR_RETURN(dsl::TypeDecl decl, dsl::ParseType(kTypeSource));

    const auto put = [&](dbfs::SubjectId subject, const std::string& author,
                         const std::string& marker) -> Status {
      const std::string text = "pd payload " + marker + " of " + author;
      RGPD_ASSIGN_OR_RETURN(
          dbfs::RecordId id,
          fs->Put(sentinel::Domain::kDed, subject, "note",
                  db::Row{db::Value(author), db::Value(text)},
                  decl.DefaultMembrane(subject, clock_.Now())));
      model.live[id] = Model::LiveRecord{subject, author, text, marker, false};
      return Status::Ok();
    };
    const auto record_with_marker =
        [&](const std::string& marker) -> dbfs::RecordId {
      for (const auto& [id, rec] : model.live) {
        if (rec.text.find(marker) != std::string::npos) return id;
      }
      return 0;
    };

    // 1-3: inserts for three subjects.
    trace("mount");
    RGPD_RETURN_IF_ERROR(put(1, "alice", "PD_MARKER_A1"));
    trace("put A1");
    RGPD_RETURN_IF_ERROR(put(2, "bob", "PD_MARKER_B1"));
    trace("put B1");
    RGPD_RETURN_IF_ERROR(put(3, "carol", "PD_MARKER_C1"));
    trace("put C1");

    // 4: consent withdrawal on bob's record (GDPR Art. 7(3)).
    {
      const dbfs::RecordId id = record_with_marker("PD_MARKER_B1");
      RGPD_ASSIGN_OR_RETURN(
          membrane::Membrane m,
          fs->GetMembrane(sentinel::Domain::kDed, id));
      m.RevokeConsent("reading");
      RGPD_RETURN_IF_ERROR(
          fs->UpdateMembrane(sentinel::Domain::kDed, id, m));
      model.live[id].reading_revoked = true;
    }
    trace("revoke B1");

    // 5: another insert.
    RGPD_RETURN_IF_ERROR(put(1, "alice", "PD_MARKER_A2"));
    trace("put A2");

    // 6: hard-delete alice's first record (physical destruction).
    {
      const dbfs::RecordId id = record_with_marker("PD_MARKER_A1");
      model.pending_delete = id;
      RGPD_RETURN_IF_ERROR(fs->HardDelete(sentinel::Domain::kDed, id));
      model.pending_delete = 0;
      model.live.erase(id);
      model.hard_deleted.insert(id);
      model.erased_markers.emplace_back("PD_MARKER_A1");
    }
    trace("harddel A1");

    // 7: insert after an erasure.
    RGPD_RETURN_IF_ERROR(put(2, "bob", "PD_MARKER_B2"));
    trace("put B2");

    // 8: crypto-erase carol's record (envelope replacement).
    {
      const dbfs::RecordId id = record_with_marker("PD_MARKER_C1");
      const std::string envelope = "SEALED_ENVELOPE_FOR_CAROL";
      model.pending_envelope = id;
      RGPD_RETURN_IF_ERROR(fs->ReplaceWithEnvelope(
          sentinel::Domain::kDed, id,
          ByteSpan(reinterpret_cast<const std::uint8_t*>(envelope.data()),
                   envelope.size())));
      model.pending_envelope = 0;
      model.live.erase(id);
      model.enveloped.insert(id);
      model.erased_markers.emplace_back("PD_MARKER_C1");
    }
    trace("envelope C1");

    // 9: final insert.
    RGPD_RETURN_IF_ERROR(put(3, "carol", "PD_MARKER_C2"));
    trace("put C2");

    if (options_.retention_sweep) {
      // 10: a record whose TTL elapses before the sweep below. The
      // sweeper's hard delete is the operation the crash sweep lands in.
      const std::string text = "pd payload PD_MARKER_TTL of dave";
      membrane::Membrane m = decl.DefaultMembrane(2, clock_.Now());
      m.ttl = 500;
      RGPD_ASSIGN_OR_RETURN(
          const dbfs::RecordId ttl_id,
          fs->Put(sentinel::Domain::kDed, 2, "note",
                  db::Row{db::Value(std::string("dave")), db::Value(text)},
                  std::move(m)));
      model.live[ttl_id] =
          Model::LiveRecord{2, "dave", text, "PD_MARKER_TTL", false};
      trace("put TTL");

      // 11: time passes, the retention sweeper runs one full cycle. Like
      // a manual erasure, the expiry in flight is all-or-nothing (I4).
      clock_.Advance(1000);
      core::RetentionSweeper::Deps deps;
      deps.dbfs = fs;
      deps.clock = &clock_;
      core::RetentionOptions sweep_options;
      sweep_options.pages_per_sweep = 0;  // whole store in one sweep
      core::RetentionSweeper sweeper(std::move(deps), sweep_options);
      model.pending_delete = ttl_id;
      RGPD_ASSIGN_OR_RETURN(const core::SweepReport report,
                            sweeper.SweepOnce());
      if (report.erased != 1) {
        return Internal("retention sweep erased " +
                        std::to_string(report.erased) + " records, wanted 1");
      }
      model.pending_delete = 0;
      model.live.erase(ttl_id);
      model.hard_deleted.insert(ttl_id);
      model.erased_markers.emplace_back("PD_MARKER_TTL");
      trace("sweep TTL");
    }
    return Status::Ok();
  }

  /// Remount the surviving media through a fresh (cold) stack and check
  /// invariants I1-I5 against the acked model.
  Status VerifyMedium(
      const std::vector<std::unique_ptr<blockdev::MemBlockDevice>>& media,
      const Model& model, const blockdev::FaultPlan& plan) {
    // Fresh decorators: nothing cached from before the "power loss".
    std::vector<std::unique_ptr<blockdev::BlockCacheDevice>> caches;
    std::vector<blockdev::BlockDevice*> devices = RawDevices(media);
    if (options_.remount_cache_blocks != 0) {
      for (std::size_t i = 0; i < devices.size(); ++i) {
        caches.push_back(std::make_unique<blockdev::BlockCacheDevice>(
            devices[i], options_.remount_cache_blocks));
        if (caches.back()->CachedBlockCount() != 0) {
          return Fail(plan, "remount cache did not come up cold");
        }
        devices[i] = caches.back().get();
      }
    }

    // I1: the image mounts — every shard's journal replays in its own
    // InodeStore::Mount, then each shard's Dbfs walk rebuilds its index.
    auto mounted = OpenFs(devices, /*format=*/false);
    if (!mounted.ok()) {
      return Fail(plan, "remount: " + mounted.status().ToString());
    }
    dbfs::ShardedDbfs* fs = mounted->fs.get();

    // I2: acked live records are intact, byte for byte. An erasure in
    // flight at the crash is checked separately below: its commit may
    // have made it to the journal before the power cut.
    for (const auto& [id, expect] : model.live) {
      if (id == model.pending_delete || id == model.pending_envelope) {
        continue;
      }
      auto rec = fs->Get(sentinel::Domain::kDed, id);
      if (!rec.ok()) {
        return Fail(plan, "acked record " + std::to_string(id) +
                              " unreadable: " + rec.status().ToString());
      }
      if (rec->erased || rec->row.size() != 2 ||
          !rec->row[0].AsString().ok() || !rec->row[1].AsString().ok() ||
          *rec->row[0].AsString() != expect.author ||
          *rec->row[1].AsString() != expect.text) {
        return Fail(plan,
                    "acked record " + std::to_string(id) + " corrupted");
      }
      if (expect.reading_revoked) {
        const auto consent = rec->membrane.consents.find("reading");
        if (consent != rec->membrane.consents.end() &&
            consent->second.kind != membrane::ConsentKind::kNone) {
          return Fail(plan, "acked consent withdrawal on record " +
                                std::to_string(id) + " resurrected");
        }
      }
    }

    // I3: acked erasures stay erased...
    for (const dbfs::RecordId id : model.hard_deleted) {
      if (auto rec = fs->Get(sentinel::Domain::kDed, id); rec.ok()) {
        return Fail(plan, "hard-deleted record " + std::to_string(id) +
                              " readable after remount");
      }
    }
    for (const dbfs::RecordId id : model.enveloped) {
      auto rec = fs->Get(sentinel::Domain::kDed, id);
      if (rec.ok() && !rec->erased) {
        return Fail(plan, "enveloped record " + std::to_string(id) +
                              " resurrected as plaintext");
      }
    }
    // ... and no erased plaintext byte survives anywhere on ANY medium
    // (data region or journal). Scanned on the RAW devices, below every
    // cache.
    for (const std::string& marker : model.erased_markers) {
      for (const auto& medium : media) {
        RGPD_ASSIGN_OR_RETURN(bool found, MediumContains(*medium, marker));
        if (found) {
          return Fail(plan, "erased marker '" + marker +
                                "' still present on the medium");
        }
      }
    }

    // I4a: an erasure in flight at the crash is all-or-nothing. Either
    // the record survives byte-exact, or the erasure fully applied — in
    // which case its plaintext must already be unrecoverable (the scrub
    // is part of the same atomic group as the unlink).
    const auto check_pending_erasure =
        [&](dbfs::RecordId id, bool envelope) -> Status {
      if (id == 0) return Status::Ok();
      const Model::LiveRecord& expect = model.live.at(id);
      auto rec = fs->Get(sentinel::Domain::kDed, id);
      const bool survived = rec.ok() && !rec->erased;
      if (survived) {
        if (rec->row.size() != 2 || !rec->row[0].AsString().ok() ||
            !rec->row[1].AsString().ok() ||
            *rec->row[0].AsString() != expect.author ||
            *rec->row[1].AsString() != expect.text) {
          return Fail(plan, "in-flight erasure target " + std::to_string(id) +
                                " survived but corrupted");
        }
        return Status::Ok();
      }
      if (!envelope && rec.status().code() != StatusCode::kNotFound) {
        return Fail(plan, "in-flight hard-delete target " +
                              std::to_string(id) + " half-present: " +
                              rec.status().ToString());
      }
      if (envelope && !rec.ok()) {
        // Envelope replacement keeps the record (erased + sealed bytes);
        // losing it entirely would be a partial application.
        return Fail(plan, "in-flight envelope target " + std::to_string(id) +
                              " vanished: " + rec.status().ToString());
      }
      // Fully erased: the plaintext must be gone from every medium.
      for (const auto& medium : media) {
        RGPD_ASSIGN_OR_RETURN(bool found,
                              MediumContains(*medium, expect.marker));
        if (found) {
          return Fail(plan, "in-flight erasure of record " +
                                std::to_string(id) + " applied but marker '" +
                                expect.marker + "' still on the medium");
        }
      }
      if (!envelope) {
        // And the subject tree must not keep a dangling link to it.
        auto ids = fs->RecordsOfSubject(sentinel::Domain::kDed,
                                        expect.subject);
        if (ids.ok() &&
            std::find(ids->begin(), ids->end(), id) != ids->end()) {
          return Fail(plan, "in-flight hard-delete of record " +
                                std::to_string(id) +
                                " applied but still linked");
        }
      }
      return Status::Ok();
    };
    RGPD_RETURN_IF_ERROR(
        check_pending_erasure(model.pending_delete, /*envelope=*/false));
    RGPD_RETURN_IF_ERROR(
        check_pending_erasure(model.pending_envelope, /*envelope=*/true));

    // I4b: anything beyond the acked set (the op in flight at the crash)
    // is all-or-nothing: if a record id is visible it must be complete.
    for (dbfs::SubjectId subject = 1; subject <= 3; ++subject) {
      auto ids = fs->RecordsOfSubject(sentinel::Domain::kDed, subject);
      if (!ids.ok()) {
        // A subject the workload never reached is legitimately absent.
        if (ids.status().code() == StatusCode::kNotFound) continue;
        return Fail(plan, "RecordsOfSubject: " + ids.status().ToString());
      }
      for (const dbfs::RecordId id : *ids) {
        if (model.live.count(id) != 0 || model.enveloped.count(id) != 0) {
          continue;
        }
        if (model.hard_deleted.count(id) != 0) {
          return Fail(plan, "hard-deleted record " + std::to_string(id) +
                                " still linked in the subject tree");
        }
        auto rec = fs->Get(sentinel::Domain::kDed, id);
        if (!rec.ok()) {
          return Fail(plan, "in-flight record " + std::to_string(id) +
                                " partially applied (unreadable): " +
                                rec.status().ToString());
        }
        if (!rec->erased &&
            (rec->row.size() != 2 || !rec->row[0].AsString().ok() ||
             !rec->row[1].AsString().ok())) {
          return Fail(plan, "in-flight record " + std::to_string(id) +
                                " partially applied (truncated row)");
        }
      }
    }

    // I5: the recovered store accepts new work — on EVERY shard (a
    // distinct subject per shard routes one Put to each).
    RGPD_ASSIGN_OR_RETURN(dsl::TypeDecl decl, dsl::ParseType(kTypeSource));
    for (std::size_t i = 0; i < media.size(); ++i) {
      const auto subject = static_cast<dbfs::SubjectId>(media.size() + i);
      auto post = fs->Put(sentinel::Domain::kDed, subject, "note",
                          db::Row{db::Value(std::string("post")),
                                  db::Value(std::string("post-recovery"))},
                          decl.DefaultMembrane(subject, clock_.Now()));
      if (!post.ok()) {
        return Fail(plan,
                    "post-recovery Put failed: " + post.status().ToString());
      }
      auto readback = fs->Get(sentinel::Domain::kDed, *post);
      if (!readback.ok()) {
        return Fail(plan, "post-recovery readback failed: " +
                              readback.status().ToString());
      }
    }
    return Status::Ok();
  }

  /// Whole-medium substring scan (handles markers spanning block
  /// boundaries by searching one contiguous image).
  static Result<bool> MediumContains(blockdev::BlockDevice& device,
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

  Options options_;
  SimClock clock_{1000};
  sentinel::AuditSink audit_;
  sentinel::Sentinel sentinel_{sentinel::SecurityPolicy::RgpdDefault(),
                               &clock_, &audit_};
};

}  // namespace rgpdos::testing

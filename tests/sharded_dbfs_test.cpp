// ShardedDbfs tests: routing arithmetic, id striding, schema-tree
// replication and mount-time reconciliation, merged subject cursors,
// facade-level audit discipline — and the headline shard-count
// invariance property: the same workload at 1 shard and at 4 shards
// must produce identical visible state, identical audit tallies and
// identical rights-export contents (only physical placement and raw
// record ids may differ).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "core/rgpdos.hpp"
#include "dbfs/sharded_dbfs.hpp"
#include "dsl/parser.hpp"

namespace rgpdos::dbfs {
namespace {

constexpr sentinel::Domain kDed = sentinel::Domain::kDed;
constexpr sentinel::Domain kSysadmin = sentinel::Domain::kSysadmin;

constexpr std::string_view kNoteType = R"(
type note {
  fields { author: string, text: string };
  consent { reading: all };
  origin: subject;
  sensitivity: medium;
}
)";

constexpr std::string_view kExtraType = R"(
type extra {
  fields { payload: string };
  consent { reading: all };
  origin: subject;
  sensitivity: low;
}
)";

/// Fixture owning N raw stores and a ShardedDbfs over them. Stores and
/// devices are kept in vectors so individual shards can be inspected
/// (and remounted) directly.
class ShardedDbfsTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 4;

  /// Shards the fixture formats; kShards unless a subclass says otherwise.
  virtual std::size_t ShardCount() const { return kShards; }

  void SetUp() override {
    sentinel_ = std::make_unique<sentinel::Sentinel>(
        sentinel::SecurityPolicy::RgpdDefault(), &clock_, &audit_);
    for (std::size_t i = 0; i < ShardCount(); ++i) {
      devices_.push_back(
          std::make_unique<blockdev::MemBlockDevice>(512, 4096));
      inodefs::InodeStore::Options options;
      options.inode_count = 256;
      options.journal_blocks = 64;
      auto store =
          inodefs::InodeStore::Format(devices_.back().get(), options, &clock_);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      stores_.push_back(std::move(store).value());
    }
    auto fs = ShardedDbfs::Format(StorePtrs(), sentinel_.get(), &clock_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
    auto decl = dsl::ParseType(kNoteType);
    ASSERT_TRUE(decl.ok());
    note_decl_ = *decl;
    ASSERT_TRUE(fs_->CreateType(kSysadmin, note_decl_).ok());
  }

  std::vector<inodefs::InodeStore*> StorePtrs() {
    std::vector<inodefs::InodeStore*> out;
    for (const auto& s : stores_) out.push_back(s.get());
    return out;
  }

  Result<RecordId> PutNote(SubjectId subject, const std::string& author,
                           const std::string& text) {
    membrane::Membrane m = note_decl_.DefaultMembrane(subject, clock_.Now());
    return fs_->Put(kDed, subject, "note",
                    db::Row{db::Value(author), db::Value(text)},
                    std::move(m));
  }

  /// One note each for subjects 1..12, read back as a batch that mixes
  /// shards, duplicates, a missing id and id 0, in shuffled order.
  std::vector<RecordId> MixedBatch() {
    std::map<SubjectId, RecordId> by_subject;
    for (SubjectId s = 1; s <= 12; ++s) {
      auto id = PutNote(s, "author" + std::to_string(s),
                        "text" + std::to_string(s));
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      by_subject[s] = id.ok() ? *id : 0;
    }
    return {by_subject[7], by_subject[2], 99999,        by_subject[7],
            by_subject[4], 0,             by_subject[1], by_subject[12]};
  }

  /// GetMany and GetMembraneMany answer slot for slot what the per-id
  /// reads answer.
  void ExpectBatchReadsMatchPerIdReads(const std::vector<RecordId>& ids) {
    const auto batched = fs_->GetMany(kDed, ids);
    ASSERT_EQ(batched.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto one = fs_->Get(kDed, ids[i]);
      ASSERT_EQ(batched[i].ok(), one.ok()) << "slot " << i;
      if (!one.ok()) {
        EXPECT_EQ(batched[i].status().code(), one.status().code());
        continue;
      }
      EXPECT_EQ(batched[i]->subject_id, one->subject_id) << "slot " << i;
      ASSERT_EQ(batched[i]->row.size(), one->row.size());
      for (std::size_t f = 0; f < one->row.size(); ++f) {
        EXPECT_TRUE(batched[i]->row[f] == one->row[f]) << "slot " << i;
      }
    }
    const auto membranes = fs_->GetMembraneMany(kDed, ids);
    ASSERT_EQ(membranes.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto one = fs_->GetMembrane(kDed, ids[i]);
      ASSERT_EQ(membranes[i].ok(), one.ok()) << "slot " << i;
      if (one.ok()) {
        EXPECT_EQ(membranes[i]->Serialize(), one->Serialize())
            << "slot " << i;
      }
    }
  }

  SimClock clock_{1000};
  sentinel::AuditSink audit_;
  std::unique_ptr<sentinel::Sentinel> sentinel_;
  std::vector<std::unique_ptr<blockdev::MemBlockDevice>> devices_;
  std::vector<std::unique_ptr<inodefs::InodeStore>> stores_;
  std::unique_ptr<ShardedDbfs> fs_;
  dsl::TypeDecl note_decl_;
};

TEST_F(ShardedDbfsTest, RoutesSubjectsAndStridesRecordIds) {
  // Subjects 1..12 land on shard subject % 4; the record id minted for a
  // subject must decode (via (id-1) % N) back to the same shard.
  std::map<SubjectId, RecordId> ids;
  for (SubjectId s = 1; s <= 12; ++s) {
    auto id = PutNote(s, "author" + std::to_string(s), "row");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids[s] = *id;
  }
  std::set<RecordId> distinct;
  for (const auto& [subject, id] : ids) {
    EXPECT_EQ(fs_->ShardIndexOfRecord(id), fs_->ShardIndexOfSubject(subject))
        << "record " << id << " of subject " << subject;
    distinct.insert(id);
  }
  EXPECT_EQ(distinct.size(), ids.size()) << "strided ids must not collide";
  // Visible state is the union; every record readable through the facade.
  EXPECT_EQ(fs_->record_count(), 12u);
  EXPECT_EQ(fs_->subject_count(), 12u);
  for (const auto& [subject, id] : ids) {
    auto rec = fs_->Get(kDed, id);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->subject_id, subject);
  }
  // Subjects 1..12 at N=4: three subjects per shard, one record each.
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(fs_->shard(i).record_count(), 3u) << "shard " << i;
    EXPECT_EQ(fs_->shard(i).subject_count(), 3u) << "shard " << i;
  }
}

TEST_F(ShardedDbfsTest, CreateTypeReplicatesToEveryShard) {
  auto decl = dsl::ParseType(kExtraType);
  ASSERT_TRUE(decl.ok());
  ASSERT_TRUE(fs_->CreateType(kSysadmin, *decl).ok());
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::vector<std::string> names = fs_->shard(i).TypeNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "extra"), names.end())
        << "shard " << i << " missing replicated type";
  }
  // Any shard can validate a row locally: a put routed to shard 3.
  membrane::Membrane m = decl->DefaultMembrane(3, clock_.Now());
  auto id = fs_->Put(kDed, 3, "extra", db::Row{db::Value(std::string("p"))},
                     std::move(m));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
}

TEST_F(ShardedDbfsTest, SubjectsAfterMergesPerShardCursors) {
  // 20 subjects spread over all four shards.
  for (SubjectId s = 1; s <= 20; ++s) {
    ASSERT_TRUE(PutNote(s, "a", "t").ok());
  }
  // Page through the merged cursor exactly as the retention sweeper
  // does: each page must be globally sorted, gap-free, and the walk must
  // enumerate every subject exactly once.
  std::vector<SubjectId> walked;
  SubjectId after = 0;
  for (;;) {
    auto page = fs_->SubjectsAfter(kDed, after, 3);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    if (page->empty()) break;
    EXPECT_LE(page->size(), 3u);
    EXPECT_TRUE(std::is_sorted(page->begin(), page->end()));
    EXPECT_GT(page->front(), after);
    walked.insert(walked.end(), page->begin(), page->end());
    after = page->back();
  }
  std::vector<SubjectId> expect;
  for (SubjectId s = 1; s <= 20; ++s) expect.push_back(s);
  EXPECT_EQ(walked, expect);
  // limit 0 is an empty page, not an error (sweeper's zero-token path).
  auto none = fs_->SubjectsAfter(kDed, 0, 0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(ShardedDbfsTest, FanOutOpsGateExactlyOnce) {
  ASSERT_TRUE(PutNote(1, "a", "t").ok());
  ASSERT_TRUE(PutNote(2, "b", "t").ok());
  const auto count_with_detail = [&](const std::string& detail) {
    return audit_
        .Query([&](const sentinel::AuditEntry& e) {
          return e.request.detail == detail;
        })
        .size();
  };
  // A fan-out read touches all four shards but must audit exactly once,
  // with the same detail string a single-store Dbfs would log.
  ASSERT_TRUE(fs_->RecordsOfType(kDed, "note").ok());
  EXPECT_EQ(count_with_detail("scan type=note"), 1u);
  ASSERT_TRUE(fs_->SubjectsAfter(kDed, 0, 10).ok());
  EXPECT_EQ(count_with_detail("subject scan after=0"), 1u);
  ASSERT_TRUE(fs_->ReportSensitivity(kSysadmin).ok());
  EXPECT_EQ(count_with_detail("sensitivity report"), 1u);
  ASSERT_TRUE(fs_->CopyGroupMembers(kDed, 12345).ok());
  EXPECT_EQ(count_with_detail("copy_group=12345"), 1u);
}

TEST_F(ShardedDbfsTest, GetManyFansOutAndScattersBackInRequestOrder) {
  // 12 subjects over 4 shards: the batch spans every shard.
  ASSERT_NO_FATAL_FAILURE(ExpectBatchReadsMatchPerIdReads(MixedBatch()));
}

/// The same facade over a single store, where shard 0 owns every id of
/// a batch.
class OneShardDbfsTest : public ShardedDbfsTest {
 protected:
  std::size_t ShardCount() const override { return 1; }
};

TEST_F(OneShardDbfsTest, GetManyKeepsRequestOrderAtOneShard) {
  ASSERT_NO_FATAL_FAILURE(ExpectBatchReadsMatchPerIdReads(MixedBatch()));
}

TEST_F(ShardedDbfsTest, MountReconcilesTypeCatalogAfterPartialCreate) {
  // Simulate a crash mid-CreateType: apply a type to shard 0 only (the
  // replication order), tear everything down, remount the same media.
  auto decl = dsl::ParseType(kExtraType);
  ASSERT_TRUE(decl.ok());
  ASSERT_TRUE(fs_->shard(0).CreateType(kSysadmin, *decl).ok());
  for (const auto& store : stores_) ASSERT_TRUE(store->Sync().ok());
  fs_.reset();
  stores_.clear();
  for (const auto& device : devices_) {
    auto store = inodefs::InodeStore::Mount(device.get(), &clock_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    stores_.push_back(std::move(store).value());
  }
  auto fs = ShardedDbfs::Mount(StorePtrs(), sentinel_.get(), &clock_);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  fs_ = std::move(fs).value();
  // Every shard now has the union catalog, durably.
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::vector<std::string> names = fs_->shard(i).TypeNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "extra"), names.end())
        << "shard " << i << " not reconciled";
    EXPECT_NE(std::find(names.begin(), names.end(), "note"), names.end());
  }
}

TEST_F(ShardedDbfsTest, RecordsSurviveRemountPerShardReplay) {
  std::map<SubjectId, RecordId> ids;
  for (SubjectId s = 1; s <= 8; ++s) {
    auto id = PutNote(s, "author" + std::to_string(s),
                      "text of " + std::to_string(s));
    ASSERT_TRUE(id.ok());
    ids[s] = *id;
  }
  for (const auto& store : stores_) ASSERT_TRUE(store->Sync().ok());
  fs_.reset();
  stores_.clear();
  for (const auto& device : devices_) {
    auto store = inodefs::InodeStore::Mount(device.get(), &clock_);
    ASSERT_TRUE(store.ok());
    stores_.push_back(std::move(store).value());
  }
  auto fs = ShardedDbfs::Mount(StorePtrs(), sentinel_.get(), &clock_);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  fs_ = std::move(fs).value();
  for (const auto& [subject, id] : ids) {
    auto rec = fs_->Get(kDed, id);
    ASSERT_TRUE(rec.ok()) << "subject " << subject << ": "
                          << rec.status().ToString();
    EXPECT_EQ(rec->subject_id, subject);
  }
  // Id high-water marks realigned per shard: new ids keep striding
  // without colliding with pre-remount ones.
  auto fresh = PutNote(5, "late", "after remount");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fs_->ShardIndexOfRecord(*fresh), fs_->ShardIndexOfSubject(5));
  for (const auto& [subject, id] : ids) EXPECT_NE(*fresh, id);
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the same mixed workload at shards=1 and
// shards=4 produces identical visible state, audit tallies and
// rights-export contents. Raw record ids legitimately differ (striding),
// so comparisons normalise ids away.
// ---------------------------------------------------------------------------

/// One record's logical content, stripped of physical identifiers.
struct LogicalRecord {
  std::string type;
  std::vector<std::string> fields;
  bool erased = false;
  bool restricted = false;
  std::vector<std::string> consents;  // "purpose:kind"

  bool operator<(const LogicalRecord& other) const {
    return std::tie(type, fields, erased, restricted, consents) <
           std::tie(other.type, other.fields, other.erased, other.restricted,
                    other.consents);
  }
  bool operator==(const LogicalRecord& other) const {
    return type == other.type && fields == other.fields &&
           erased == other.erased && restricted == other.restricted &&
           consents == other.consents;
  }
};

std::vector<LogicalRecord> NormalizeExport(const SubjectExport& ex) {
  std::vector<LogicalRecord> out;
  for (const PdRecord& rec : ex.records) {
    LogicalRecord lr;
    lr.type = rec.type_name;
    lr.erased = rec.erased;
    lr.restricted = rec.membrane.restricted;
    if (!rec.erased) {
      for (const db::Value& v : rec.row) {
        if (auto s = v.AsString(); s.ok()) {
          lr.fields.push_back(*s);
        } else if (auto i = v.AsInt(); i.ok()) {
          lr.fields.push_back(std::to_string(*i));
        }
      }
    }
    for (const auto& [purpose, consent] : rec.membrane.consents) {
      lr.consents.push_back(
          purpose + ":" + std::to_string(static_cast<int>(consent.kind)));
    }
    out.push_back(std::move(lr));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Audit tally key: who asked what of whom and the verdict, with the
/// detail string's digit runs collapsed (record ids differ across shard
/// counts; everything else must match byte for byte).
std::string NormalizeDetail(const std::string& detail) {
  std::string out;
  bool in_digits = false;
  for (const char c : detail) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      if (!in_digits) out.push_back('#');
      in_digits = true;
    } else {
      in_digits = false;
      out.push_back(c);
    }
  }
  return out;
}

std::map<std::string, std::size_t> AuditTallies(
    const sentinel::AuditSink& audit) {
  std::map<std::string, std::size_t> tallies;
  for (const sentinel::AuditEntry& e : audit.Query([](const auto&) {
         return true;
       })) {
    const std::string key =
        std::to_string(static_cast<int>(e.request.subject)) + "->" +
        std::to_string(static_cast<int>(e.request.object)) + " op=" +
        std::to_string(static_cast<int>(e.request.op)) + " allowed=" +
        (e.allowed ? "1" : "0") + " " + NormalizeDetail(e.request.detail);
    ++tallies[key];
  }
  return tallies;
}

/// Everything the workload's outcome is judged by, at one shard count.
struct WorldState {
  std::map<SubjectId, std::vector<LogicalRecord>> exports;
  std::size_t record_count = 0;
  std::size_t subject_count = 0;
  std::vector<SubjectId> subjects;  // full SubjectsAfter walk
  std::map<std::string, std::size_t> audit;
};

/// The mixed workload from the invariance criterion: puts across many
/// subjects, a consent withdrawal, a targeted hard delete, a full
/// right-to-be-forgotten erasure, and a retention expiry — then a
/// normalized snapshot of everything a subject or regulator can see.
Result<WorldState> RunInvarianceWorkload(std::size_t shards) {
  core::BootConfig config;
  config.use_sim_clock = true;
  config.authority_key_bits = 1024;
  config.shards = shards;
  config.dbfs_blocks = 4096;
  config.block_size = 512;
  config.inode_count = 512;
  config.journal_blocks = 64;
  RGPD_ASSIGN_OR_RETURN(std::unique_ptr<core::RgpdOs> os,
                        core::RgpdOs::Boot(config));
  RGPD_ASSIGN_OR_RETURN(std::size_t declared, os->DeclareTypes(kNoteType));
  if (declared != 1) return Internal("expected one type");
  RGPD_ASSIGN_OR_RETURN(const dsl::TypeDecl* decl,
                        os->dbfs().GetType(kSysadmin, "note"));

  const auto put = [&](SubjectId subject, const std::string& author,
                       const std::string& text,
                       TimeMicros ttl) -> Result<RecordId> {
    membrane::Membrane m = decl->DefaultMembrane(subject, os->clock().Now());
    m.ttl = ttl;
    return os->dbfs().Put(kDed, subject, "note",
                          db::Row{db::Value(author), db::Value(text)},
                          std::move(m));
  };

  // Two records for each of subjects 1..9 (covers every shard at N=4,
  // including shard 0 via subjects 4 and 8).
  for (SubjectId s = 1; s <= 9; ++s) {
    RGPD_RETURN_IF_ERROR(
        put(s, "author" + std::to_string(s), "first of " + std::to_string(s),
            0)
            .status());
    RGPD_RETURN_IF_ERROR(
        put(s, "author" + std::to_string(s), "second of " + std::to_string(s),
            0)
            .status());
  }

  // Consent withdrawal on subject 3's first record.
  {
    RGPD_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                          os->dbfs().RecordsOfSubject(kDed, 3));
    if (ids.empty()) return Internal("subject 3 has no records");
    std::sort(ids.begin(), ids.end());
    RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                          os->dbfs().GetMembrane(kDed, ids.front()));
    m.RevokeConsent("reading");
    RGPD_RETURN_IF_ERROR(os->dbfs().UpdateMembrane(kDed, ids.front(), m));
  }

  // Targeted hard delete: subject 5's first (lowest-id) record.
  {
    RGPD_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                          os->dbfs().RecordsOfSubject(kDed, 5));
    std::sort(ids.begin(), ids.end());
    RGPD_RETURN_IF_ERROR(os->dbfs().HardDelete(kDed, ids.front()));
  }

  // Full Art. 17 erasure of subject 7 (crypto-erasure to envelopes).
  RGPD_ASSIGN_OR_RETURN(std::size_t forgotten, os->RightToBeForgotten(7));
  if (forgotten != 2) return Internal("expected 2 records forgotten");

  // Retention expiry: a short-TTL record for subject 2, clock past the
  // deadline, one sweep.
  RGPD_RETURN_IF_ERROR(put(2, "author2", "ephemeral of 2", 500).status());
  os->sim_clock()->Advance(1000);
  RGPD_ASSIGN_OR_RETURN(const core::SweepReport report,
                        os->retention().SweepOnce());
  if (report.erased != 1) {
    return Internal("sweep erased " + std::to_string(report.erased));
  }

  // Snapshot. Exports normalise ids away; the subject walk and counts
  // are physical-placement-independent by construction.
  WorldState state;
  for (SubjectId s = 1; s <= 9; ++s) {
    RGPD_ASSIGN_OR_RETURN(SubjectExport ex, os->dbfs().ExportSubject(kDed, s));
    state.exports[s] = NormalizeExport(ex);
  }
  state.record_count = os->dbfs().record_count();
  state.subject_count = os->dbfs().subject_count();
  SubjectId after = 0;
  for (;;) {
    RGPD_ASSIGN_OR_RETURN(std::vector<SubjectId> page,
                          os->dbfs().SubjectsAfter(kDed, after, 4));
    if (page.empty()) break;
    state.subjects.insert(state.subjects.end(), page.begin(), page.end());
    after = page.back();
  }
  state.audit = AuditTallies(os->audit());
  return state;
}

TEST(ShardInvarianceTest, SameWorkloadSameWorldAtOneAndFourShards) {
  auto one = RunInvarianceWorkload(1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  auto four = RunInvarianceWorkload(4);
  ASSERT_TRUE(four.ok()) << four.status().ToString();

  EXPECT_EQ(one->record_count, four->record_count);
  EXPECT_EQ(one->subject_count, four->subject_count);
  EXPECT_EQ(one->subjects, four->subjects) << "subject walks diverge";
  ASSERT_EQ(one->exports.size(), four->exports.size());
  for (const auto& [subject, records] : one->exports) {
    ASSERT_TRUE(four->exports.count(subject) != 0) << "subject " << subject;
    EXPECT_EQ(records, four->exports.at(subject))
        << "export of subject " << subject << " diverges";
  }
  // Audit trail: same decisions, same ops, same verdicts, same counts.
  EXPECT_EQ(one->audit, four->audit) << "audit tallies diverge";
}

TEST(ShardInvarianceTest, AttachRejectsShardDeviceCountMismatch) {
  // Attach mode boots one shard per medium: a shard count that differs
  // from the device count must be a loud boot error, not a silent
  // re-partition of someone's media. The check fires before any device
  // is touched, so unformatted media suffice.
  blockdev::MemBlockDevice a(512, 4096);
  blockdev::MemBlockDevice b(512, 4096);
  core::BootConfig config;
  config.use_sim_clock = true;
  config.authority_key_bits = 1024;
  config.block_size = 512;
  config.inode_count = 256;
  config.journal_blocks = 64;
  for (const std::size_t shards : {1u, 3u}) {
    config.attach_dbfs_devices = {&a, &b};
    config.shards = shards;
    auto os = core::RgpdOs::Boot(config);
    ASSERT_FALSE(os.ok()) << "shards=" << shards;
    EXPECT_EQ(os.status().code(), StatusCode::kInvalidArgument)
        << os.status().ToString();
  }
  config.attach_dbfs_devices = {&a};
  config.shards = 2;
  auto os = core::RgpdOs::Boot(config);
  ASSERT_FALSE(os.ok());
  EXPECT_EQ(os.status().code(), StatusCode::kInvalidArgument)
      << os.status().ToString();
}

}  // namespace
}  // namespace rgpdos::dbfs

// DBFS tests: schema tree, subject tree, membrane-attachment invariant,
// gated access, mount-time index rebuild, erasure paths, and copy groups.
#include <gtest/gtest.h>

#include "blockdev/block_device.hpp"
#include "dbfs/dbfs.hpp"
#include "dsl/parser.hpp"

namespace rgpdos::dbfs {
namespace {

constexpr sentinel::Domain kDed = sentinel::Domain::kDed;
constexpr sentinel::Domain kSysadmin = sentinel::Domain::kSysadmin;
constexpr sentinel::Domain kApp = sentinel::Domain::kApplication;

constexpr std::string_view kUserType = R"(
type user {
  fields { name: string, pwd: string, year_of_birthdate: int };
  view v_ano { year_of_birthdate };
  consent { purpose1: all, purpose3: v_ano };
  origin: subject;
  sensitivity: high;
}
)";

class DbfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<blockdev::MemBlockDevice>(512, 8192);
    inodefs::InodeStore::Options options;
    options.inode_count = 512;
    options.journal_blocks = 128;
    auto store = inodefs::InodeStore::Format(device_.get(), options, &clock_);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    sentinel_ = std::make_unique<sentinel::Sentinel>(
        sentinel::SecurityPolicy::RgpdDefault(), &clock_, &audit_);
    auto fs = Dbfs::Format(store_.get(), sentinel_.get(), &clock_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
    auto decl = dsl::ParseType(kUserType);
    ASSERT_TRUE(decl.ok());
    user_decl_ = *decl;
    ASSERT_TRUE(fs_->CreateType(kSysadmin, user_decl_).ok());
  }

  Result<RecordId> PutUser(SubjectId subject, const std::string& name,
                           std::int64_t year) {
    membrane::Membrane m = user_decl_.DefaultMembrane(subject, clock_.Now());
    db::Row row{db::Value(name), db::Value(std::string("pw")),
                db::Value(year)};
    return fs_->Put(kDed, subject, "user", row, std::move(m));
  }

  SimClock clock_{1000};
  sentinel::AuditSink audit_;
  std::unique_ptr<blockdev::MemBlockDevice> device_;
  std::unique_ptr<inodefs::InodeStore> store_;
  std::unique_ptr<sentinel::Sentinel> sentinel_;
  std::unique_ptr<Dbfs> fs_;
  dsl::TypeDecl user_decl_;
};

TEST_F(DbfsTest, TypeAdministration) {
  EXPECT_EQ(fs_->TypeNames(), std::vector<std::string>{"user"});
  // Duplicate type rejected.
  EXPECT_EQ(fs_->CreateType(kSysadmin, user_decl_).code(),
            StatusCode::kAlreadyExists);
  // Applications cannot create types.
  EXPECT_EQ(fs_->CreateType(kApp, user_decl_).code(),
            StatusCode::kAccessBlocked);
  auto type = fs_->GetType(kDed, "user");
  ASSERT_TRUE(type.ok());
  EXPECT_EQ((*type)->name, "user");
  EXPECT_FALSE(fs_->GetType(kDed, "nope").ok());
}

TEST_F(DbfsTest, PutGetRoundTrip) {
  auto id = PutUser(1, "alice", 1990);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto record = fs_->Get(kDed, *id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->subject_id, 1u);
  EXPECT_EQ(record->type_name, "user");
  EXPECT_EQ(*record->row[0].AsString(), "alice");
  EXPECT_EQ(*record->row[2].AsInt(), 1990);
  EXPECT_EQ(record->membrane.subject_id, 1u);
  EXPECT_FALSE(record->erased);
  EXPECT_EQ(fs_->record_count(), 1u);
  EXPECT_EQ(fs_->subject_count(), 1u);
}

TEST_F(DbfsTest, MembraneAttachmentInvariant) {
  // Rule (3): a membrane naming the wrong type or subject is rejected —
  // and there is no membrane-less Put at all.
  membrane::Membrane wrong_type = user_decl_.DefaultMembrane(1, 0);
  wrong_type.type_name = "other";
  db::Row row{db::Value(std::string("x")), db::Value(std::string("y")),
              db::Value(std::int64_t{1990})};
  EXPECT_EQ(fs_->Put(kDed, 1, "user", row, wrong_type).status().code(),
            StatusCode::kFailedPrecondition);
  membrane::Membrane wrong_subject = user_decl_.DefaultMembrane(2, 0);
  EXPECT_EQ(fs_->Put(kDed, 1, "user", row, wrong_subject).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DbfsTest, PutValidatesRowAgainstSchema) {
  membrane::Membrane m = user_decl_.DefaultMembrane(1, 0);
  EXPECT_FALSE(
      fs_->Put(kDed, 1, "user", db::Row{db::Value(std::int64_t{1})}, m)
          .ok());
  EXPECT_FALSE(fs_->Put(kDed, 1, "nosuch", db::Row{}, m).ok());
}

TEST_F(DbfsTest, AccessControlOnEveryEntryPoint) {
  auto id = PutUser(1, "alice", 1990);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(fs_->Get(kApp, *id).status().code(), StatusCode::kAccessBlocked);
  EXPECT_EQ(fs_->GetMembrane(kApp, *id).status().code(),
            StatusCode::kAccessBlocked);
  EXPECT_EQ(fs_->HardDelete(kApp, *id).code(), StatusCode::kAccessBlocked);
  EXPECT_EQ(fs_->RecordsOfSubject(kApp, 1).status().code(),
            StatusCode::kAccessBlocked);
  EXPECT_EQ(fs_->ExportSubject(kApp, 1).status().code(),
            StatusCode::kAccessBlocked);
  EXPECT_EQ(
      fs_->Put(kApp, 1, "user", db::Row{}, membrane::Membrane{}).status()
          .code(),
      StatusCode::kAccessBlocked);
  // The sysadmin can read schemas but not records.
  EXPECT_TRUE(fs_->GetType(kSysadmin, "user").ok());
  EXPECT_EQ(fs_->Get(kSysadmin, *id).status().code(),
            StatusCode::kAccessBlocked);
}

TEST_F(DbfsTest, UpdateRowScrubsOldVersion) {
  auto id = PutUser(1, "old_secret_value", 1990);
  ASSERT_TRUE(id.ok());
  db::Row new_row{db::Value(std::string("new")), db::Value(std::string("pw")),
                  db::Value(std::int64_t{1991})};
  ASSERT_TRUE(fs_->UpdateRow(kDed, *id, new_row).ok());
  EXPECT_EQ(*fs_->Get(kDed, *id)->row[0].AsString(), "new");
  // The superseded version is gone from the data region; after a journal
  // scrub it is gone everywhere.
  ASSERT_TRUE(store_->ScrubJournal().ok());
  EXPECT_EQ(blockdev::CountBlocksContaining(*device_,
                                            ToBytes("old_secret_value")),
            0u);
}

TEST_F(DbfsTest, QueriesByTypeAndSubject) {
  ASSERT_TRUE(PutUser(1, "a", 1990).ok());
  ASSERT_TRUE(PutUser(1, "b", 1991).ok());
  ASSERT_TRUE(PutUser(2, "c", 1992).ok());
  auto by_type = fs_->RecordsOfType(kDed, "user");
  ASSERT_TRUE(by_type.ok());
  EXPECT_EQ(by_type->size(), 3u);
  auto by_subject = fs_->RecordsOfSubject(kDed, 1);
  ASSERT_TRUE(by_subject.ok());
  EXPECT_EQ(by_subject->size(), 2u);
  EXPECT_TRUE(fs_->RecordsOfSubject(kDed, 99)->empty());
}

TEST_F(DbfsTest, HardDeleteRemovesEveryTrace) {
  auto id = PutUser(1, "vanishing_plaintext", 1990);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs_->HardDelete(kDed, *id).ok());
  EXPECT_FALSE(fs_->Get(kDed, *id).ok());
  EXPECT_EQ(fs_->record_count(), 0u);
  EXPECT_EQ(blockdev::CountBlocksContaining(*device_,
                                            ToBytes("vanishing_plaintext")),
            0u);
  // The type index may hold a stale link, but queries filter it.
  EXPECT_TRUE(fs_->RecordsOfType(kDed, "user")->empty());
}

TEST_F(DbfsTest, EnvelopeErasure) {
  auto id = PutUser(1, "sealed_plaintext", 1990);
  ASSERT_TRUE(id.ok());
  const Bytes envelope = ToBytes("ENVELOPE_CIPHERTEXT_BLOB");
  ASSERT_TRUE(fs_->ReplaceWithEnvelope(kDed, *id, envelope).ok());

  auto record = fs_->Get(kDed, *id);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->erased);
  EXPECT_TRUE(record->row.empty());
  // All consents were revoked.
  for (const auto& [purpose, consent] : record->membrane.consents) {
    EXPECT_EQ(consent.kind, membrane::ConsentKind::kNone) << purpose;
  }
  // Envelope retrievable; plaintext fully destroyed.
  EXPECT_EQ(*fs_->GetEnvelope(kDed, *id), envelope);
  EXPECT_EQ(blockdev::CountBlocksContaining(*device_,
                                            ToBytes("sealed_plaintext")),
            0u);
  // Double erasure and update-after-erasure fail cleanly.
  EXPECT_EQ(fs_->ReplaceWithEnvelope(kDed, *id, envelope).code(),
            StatusCode::kErased);
  db::Row row{db::Value(std::string("x")), db::Value(std::string("y")),
              db::Value(std::int64_t{1})};
  EXPECT_EQ(fs_->UpdateRow(kDed, *id, row).code(), StatusCode::kErased);
  // Envelope of a live record is unavailable.
  auto id2 = PutUser(2, "live", 1990);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(fs_->GetEnvelope(kDed, *id2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DbfsTest, CopyGroups) {
  auto a = PutUser(1, "alice", 1990);
  ASSERT_TRUE(a.ok());
  auto m = fs_->GetMembrane(kDed, *a);
  ASSERT_TRUE(m.ok());
  EXPECT_NE(m->copy_group, 0u);
  // A second Put with the same membrane (same copy group) models copy.
  auto record = fs_->Get(kDed, *a);
  auto b = fs_->Put(kDed, 1, "user", record->row, record->membrane);
  ASSERT_TRUE(b.ok());
  auto group = fs_->CopyGroupMembers(kDed, m->copy_group);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->size(), 2u);
  // Records with fresh membranes land in distinct groups.
  auto c = PutUser(2, "carol", 1991);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(fs_->CopyGroupMembers(kDed, m->copy_group)->size(), 2u);
}

TEST_F(DbfsTest, UpdateMembraneChecksIdentity) {
  auto id = PutUser(1, "alice", 1990);
  ASSERT_TRUE(id.ok());
  auto m = fs_->GetMembrane(kDed, *id);
  ASSERT_TRUE(m.ok());
  m->RevokeConsent("purpose1");
  ASSERT_TRUE(fs_->UpdateMembrane(kDed, *id, *m).ok());
  EXPECT_EQ(fs_->GetMembrane(kDed, *id)->consents.at("purpose1").kind,
            membrane::ConsentKind::kNone);
  // Mismatched identity is rejected.
  m->subject_id = 999;
  EXPECT_EQ(fs_->UpdateMembrane(kDed, *id, *m).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DbfsTest, ExportSubjectIsComplete) {
  ASSERT_TRUE(PutUser(1, "a", 1990).ok());
  ASSERT_TRUE(PutUser(1, "b", 1991).ok());
  ASSERT_TRUE(PutUser(2, "c", 1992).ok());
  auto exported = fs_->ExportSubject(kDed, 1);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->subject_id, 1u);
  EXPECT_EQ(exported->records.size(), 2u);
  EXPECT_EQ(exported->records[0].type_name, "user");
}

TEST_F(DbfsTest, MountRebuildsIndexes) {
  auto a = PutUser(1, "alice", 1990);
  auto b = PutUser(2, "bob", 1985);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(fs_->HardDelete(kDed, *b).ok());
  ASSERT_TRUE(store_->Sync().ok());
  fs_.reset();
  store_.reset();

  auto store = inodefs::InodeStore::Mount(device_.get(), &clock_);
  ASSERT_TRUE(store.ok());
  store_ = std::move(store).value();
  auto fs = Dbfs::Mount(store_.get(), sentinel_.get(), &clock_);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  fs_ = std::move(fs).value();

  EXPECT_EQ(fs_->record_count(), 1u);
  EXPECT_EQ(fs_->TypeNames(), std::vector<std::string>{"user"});
  auto record = fs_->Get(kDed, *a);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(*record->row[0].AsString(), "alice");
  // New Puts continue after the highest historical record id.
  auto c = PutUser(3, "carol", 1970);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(*c, *b);
}

TEST_F(DbfsTest, MountOnUnformattedStoreFails) {
  blockdev::MemBlockDevice device(512, 2048);
  inodefs::InodeStore::Options options;
  options.inode_count = 64;
  options.journal_blocks = 32;
  auto store = inodefs::InodeStore::Format(&device, options, &clock_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(Dbfs::Mount(store->get(), sentinel_.get(), &clock_)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DbfsTest, MountRejectsFourFieldMasterRecord) {
  // The master record names exactly five inodes; one cut back to the
  // four fields that predate the audit manifest must not mount.
  const inodefs::InodeId master = store_->superblock().root_dir;
  auto record = store_->ReadAll(master);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->size(), 5 * sizeof(std::uint32_t));
  ASSERT_TRUE(store_
                  ->WriteAll(master, ByteSpan(record->data(),
                                              4 * sizeof(std::uint32_t)))
                  .ok());
  EXPECT_EQ(Dbfs::Mount(store_.get(), sentinel_.get(), &clock_)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(DbfsTest, EveryDenialIsAudited) {
  const std::uint64_t denied_before = audit_.denied_count();
  (void)fs_->Get(kApp, 1);
  (void)fs_->CreateType(sentinel::Domain::kOutside, user_decl_);
  EXPECT_EQ(audit_.denied_count(), denied_before + 2);
}

// ---- batched reads (GetMany / GetMembraneMany) ------------------------------

TEST_F(DbfsTest, GetManyMatchesPerIdGetExactly) {
  std::vector<RecordId> live;
  for (int i = 0; i < 8; ++i) {
    auto id = PutUser(static_cast<SubjectId>(1 + i % 3),
                      "user" + std::to_string(i), 1980 + i);
    ASSERT_TRUE(id.ok());
    live.push_back(*id);
  }
  // Mix in the interesting shapes: a missing id, an enveloped (erased)
  // record, duplicates, and out-of-order slots.
  const std::string sealed = "SEALED";
  ASSERT_TRUE(fs_->ReplaceWithEnvelope(
                     kDed, live[2],
                     ByteSpan(reinterpret_cast<const std::uint8_t*>(
                                  sealed.data()),
                              sealed.size()))
                  .ok());
  const std::vector<RecordId> ids = {live[5], 9999, live[2], live[0],
                                     live[5], 0,    live[7]};

  const auto batched = fs_->GetMany(kDed, ids);
  ASSERT_EQ(batched.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto one = fs_->Get(kDed, ids[i]);
    ASSERT_EQ(batched[i].ok(), one.ok()) << "slot " << i;
    if (!one.ok()) {
      EXPECT_EQ(batched[i].status().code(), one.status().code());
      continue;
    }
    EXPECT_EQ(batched[i]->erased, one->erased) << "slot " << i;
    EXPECT_EQ(batched[i]->membrane.subject_id, one->membrane.subject_id);
    EXPECT_EQ(batched[i]->membrane.version, one->membrane.version);
    ASSERT_EQ(batched[i]->row.size(), one->row.size());
    for (std::size_t f = 0; f < one->row.size(); ++f) {
      EXPECT_TRUE(batched[i]->row[f] == one->row[f]) << "slot " << i;
    }
  }
}

TEST_F(DbfsTest, GetManySeesAcknowledgedMutationsImmediately) {
  auto id = PutUser(1, "alice", 1990);
  ASSERT_TRUE(id.ok());
  auto m = fs_->GetMembrane(kDed, *id);
  ASSERT_TRUE(m.ok());
  m->RevokeConsent("purpose1");
  ASSERT_TRUE(fs_->UpdateMembrane(kDed, *id, *m).ok());

  const auto membranes = fs_->GetMembraneMany(kDed, {*id});
  ASSERT_EQ(membranes.size(), 1u);
  ASSERT_TRUE(membranes[0].ok()) << membranes[0].status().ToString();
  const auto consent = membranes[0]->consents.find("purpose1");
  ASSERT_NE(consent, membranes[0]->consents.end());
  EXPECT_EQ(consent->second.kind, membrane::ConsentKind::kNone);
  const auto fresh = fs_->GetMembrane(kDed, *id);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(membranes[0]->version, fresh->version);
}

TEST_F(DbfsTest, GetManyIsGatedPerRecord) {
  auto id = PutUser(1, "alice", 1990);
  ASSERT_TRUE(id.ok());
  // Applications are blocked from raw Get — the batch must deny each
  // slot exactly like the per-id path and audit every denial.
  const std::uint64_t denied_before = audit_.denied_count();
  const auto batched = fs_->GetMany(kApp, {*id, *id});
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0].status().code(), StatusCode::kAccessBlocked);
  EXPECT_EQ(batched[1].status().code(), StatusCode::kAccessBlocked);
  EXPECT_EQ(audit_.denied_count(), denied_before + 2);
}

TEST_F(DbfsTest, GetMembraneManyMatchesPerIdGetMembrane) {
  std::vector<RecordId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = PutUser(static_cast<SubjectId>(1 + i), "u" + std::to_string(i),
                      1990 + i);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ids.push_back(4242);  // missing
  const auto batched = fs_->GetMembraneMany(kDed, ids);
  ASSERT_EQ(batched.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto one = fs_->GetMembrane(kDed, ids[i]);
    ASSERT_EQ(batched[i].ok(), one.ok()) << "slot " << i;
    if (!one.ok()) {
      EXPECT_EQ(batched[i].status().code(), one.status().code());
      continue;
    }
    EXPECT_EQ(batched[i]->subject_id, one->subject_id);
    EXPECT_EQ(batched[i]->version, one->version);
    EXPECT_EQ(batched[i]->Serialize(), one->Serialize());
  }
}

}  // namespace
}  // namespace rgpdos::dbfs

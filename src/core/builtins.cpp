#include "core/builtins.hpp"

#include "crypto/envelope.hpp"

namespace rgpdos::core {

namespace {
constexpr sentinel::Domain kDed = sentinel::Domain::kDed;
}

Status Builtins::Update(const PdRef& ref, const db::Row& row) {
  RGPD_RETURN_IF_ERROR(dbfs_->UpdateRow(kDed, ref.record_id, row));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  log_->Append("builtin.update", "rectification", m.subject_id,
               ref.record_id, LogOutcome::kUpdated);
  return Status::Ok();
}

Result<PdRef> Builtins::Copy(const PdRef& ref) {
  RGPD_ASSIGN_OR_RETURN(dbfs::PdRecord record,
                        dbfs_->Get(kDed, ref.record_id));
  if (record.erased) {
    return Erased("cannot copy an erased record");
  }
  // The copy keeps the source membrane verbatim — same copy group, so
  // future consent changes reach both.
  RGPD_ASSIGN_OR_RETURN(
      dbfs::RecordId copy_id,
      dbfs_->Put(kDed, record.subject_id, record.type_name, record.row,
                 record.membrane));
  log_->Append("builtin.copy", "copy", record.subject_id, copy_id,
               LogOutcome::kCopied,
               "source=" + std::to_string(ref.record_id));
  return PdRef{copy_id, record.type_name};
}

Status Builtins::EraseWithHold(const PdRef& ref,
                               const crypto::RsaPublicKey& authority_key) {
  RGPD_ASSIGN_OR_RETURN(dbfs::PdRecord record,
                        dbfs_->Get(kDed, ref.record_id));
  if (record.erased) {
    return Erased("record already erased");
  }
  // Seal the encoded row to the authority.
  RGPD_ASSIGN_OR_RETURN(const dsl::TypeDecl* type,
                        dbfs_->GetType(kDed, record.type_name));
  const Bytes plaintext = type->ToSchema().EncodeRow(record.row);
  RGPD_ASSIGN_OR_RETURN(crypto::Envelope envelope,
                        crypto::Seal(authority_key, plaintext, *rng_));
  RGPD_RETURN_IF_ERROR(dbfs_->ReplaceWithEnvelope(kDed, ref.record_id,
                                                  envelope.Serialize()));
  log_->Append("builtin.delete", "right_to_be_forgotten",
               record.subject_id, ref.record_id, LogOutcome::kErased,
               "crypto-hold");
  return Status::Ok();
}

Status Builtins::HardDelete(const PdRef& ref) {
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  RGPD_RETURN_IF_ERROR(dbfs_->HardDelete(kDed, ref.record_id));
  log_->Append("builtin.delete", "right_to_be_forgotten", m.subject_id,
               ref.record_id, LogOutcome::kErased, "hard-delete");
  return Status::Ok();
}

Status Builtins::PropagateConsent(
    const PdRef& ref,
    const std::function<void(membrane::Membrane&)>& mutate) {
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane source,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  RGPD_ASSIGN_OR_RETURN(std::vector<dbfs::RecordId> group,
                        dbfs_->CopyGroupMembers(kDed, source.copy_group));
  for (dbfs::RecordId id : group) {
    RGPD_ASSIGN_OR_RETURN(membrane::Membrane m, dbfs_->GetMembrane(kDed, id));
    mutate(m);
    RGPD_RETURN_IF_ERROR(dbfs_->UpdateMembrane(kDed, id, m));
  }
  return Status::Ok();
}

Status Builtins::GrantConsent(const PdRef& ref, const std::string& purpose,
                              membrane::Consent consent) {
  return PropagateConsent(ref, [&](membrane::Membrane& m) {
    m.GrantConsent(purpose, consent);
  });
}

Status Builtins::RevokeConsent(const PdRef& ref,
                               const std::string& purpose) {
  return PropagateConsent(ref, [&](membrane::Membrane& m) {
    m.RevokeConsent(purpose);
  });
}

Status Builtins::Restrict(const PdRef& ref, const std::string& reason) {
  RGPD_RETURN_IF_ERROR(PropagateConsent(
      ref, [&](membrane::Membrane& m) { m.Restrict(reason); }));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  log_->Append("builtin.restrict", "restriction_of_processing",
               m.subject_id, ref.record_id, LogOutcome::kRestricted,
               reason);
  return Status::Ok();
}

Status Builtins::LiftRestriction(const PdRef& ref) {
  RGPD_RETURN_IF_ERROR(PropagateConsent(
      ref, [&](membrane::Membrane& m) { m.LiftRestriction(); }));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  log_->Append("builtin.restrict", "restriction_of_processing",
               m.subject_id, ref.record_id, LogOutcome::kRestricted,
               "lifted");
  return Status::Ok();
}

Status Builtins::Object(const PdRef& ref, const std::string& purpose) {
  RGPD_RETURN_IF_ERROR(PropagateConsent(
      ref, [&](membrane::Membrane& m) { m.Object(purpose); }));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  log_->Append("builtin.object", purpose, m.subject_id, ref.record_id,
               LogOutcome::kObjected, "objection");
  return Status::Ok();
}

Status Builtins::WithdrawObjection(const PdRef& ref,
                                   const std::string& purpose) {
  RGPD_RETURN_IF_ERROR(PropagateConsent(
      ref, [&](membrane::Membrane& m) { m.WithdrawObjection(purpose); }));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  log_->Append("builtin.object", purpose, m.subject_id, ref.record_id,
               LogOutcome::kObjected, "objection withdrawn");
  return Status::Ok();
}

Status Builtins::SetAutomatedDecisionOptOut(const PdRef& ref, bool opt_out) {
  RGPD_RETURN_IF_ERROR(PropagateConsent(
      ref,
      [&](membrane::Membrane& m) { m.SetNoAutomatedDecision(opt_out); }));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(kDed, ref.record_id));
  log_->Append("builtin.object", "automated_decision", m.subject_id,
               ref.record_id, LogOutcome::kObjected,
               opt_out ? "opt-out" : "opt-in");
  return Status::Ok();
}

}  // namespace rgpdos::core

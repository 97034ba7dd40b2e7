// rgpdOS built-in functions — the F_pd^w category. "F_pd^w functions are
// natively provided by rgpdOS … Among built-in functions, we can list
// update, delete, copy and acquisition" (paper §2). Acquisition lives in
// ProcessingStore (collection); this module provides update, copy, the
// two deletion flavours, and membrane-consistency propagation for copies
// and consent changes.
#pragma once

#include "core/pdref.hpp"
#include "core/processing_log.hpp"
#include "crypto/rsa.hpp"
#include "dbfs/sharded_dbfs.hpp"

namespace rgpdos::core {

class Builtins {
 public:
  Builtins(dbfs::ShardedDbfs* dbfs, ProcessingLog* log,
           crypto::SecureRandom* rng)
      : dbfs_(dbfs), log_(log), rng_(rng) {}

  /// update: replace a record's row (schema-checked, scrubbed rewrite).
  Status Update(const PdRef& ref, const db::Row& row);

  /// copy: duplicate a record. The copy shares the source's copy group so
  /// "rgpdOS must ensure membrane consistency across all copies of the
  /// same PD" — consent changes propagate group-wide.
  Result<PdRef> Copy(const PdRef& ref);

  /// delete (crypto-hold flavour, paper §4): seal the record to the
  /// authority's public key, destroy plaintext + journal history. The
  /// operator can no longer read it; the authority can.
  Status EraseWithHold(const PdRef& ref,
                       const crypto::RsaPublicKey& authority_key);

  /// delete (unconditional flavour): physical scrubbed destruction.
  Status HardDelete(const PdRef& ref);

  /// Consent management with copy-group propagation: updating consent on
  /// any copy updates every membrane in the group.
  Status GrantConsent(const PdRef& ref, const std::string& purpose,
                      membrane::Consent consent);
  Status RevokeConsent(const PdRef& ref, const std::string& purpose);

  /// Art. 18 restriction of processing: keep the PD, freeze every
  /// purpose. Propagates across the copy group, like consent changes.
  Status Restrict(const PdRef& ref, const std::string& reason);
  Status LiftRestriction(const PdRef& ref);

  /// Art. 21 objection: block one purpose on this PD (and every copy in
  /// its group) until the objection is withdrawn. Unlike RevokeConsent,
  /// a later GrantConsent does not override it.
  Status Object(const PdRef& ref, const std::string& purpose);
  Status WithdrawObjection(const PdRef& ref, const std::string& purpose);

  /// Art. 22: set / clear the subject's opt-out from solely-automated
  /// decisions on this PD's copy group.
  Status SetAutomatedDecisionOptOut(const PdRef& ref, bool opt_out);

 private:
  Status PropagateConsent(const PdRef& ref,
                          const std::function<void(membrane::Membrane&)>&
                              mutate);

  dbfs::ShardedDbfs* dbfs_;    // borrowed
  ProcessingLog* log_;         // borrowed
  crypto::SecureRandom* rng_;  // borrowed
};

}  // namespace rgpdos::core

// GDPR subject rights (paper §4): right of access, right to be
// forgotten, plus rectification (Art. 16) and portability (Art. 20),
// which fall out of the same machinery.
//
// Exports are produced exactly "as stored in DBFS": typed rows with
// meaningful field names — the paper's point about structured AND
// exploitable data ("Chiraz"/"Benamor" keyed by first_name/last_name,
// not by each other).
#pragma once

#include <functional>
#include <set>
#include <string>

#include "core/builtins.hpp"
#include "core/processing_log.hpp"
#include "crypto/rsa.hpp"
#include "dbfs/sharded_dbfs.hpp"

namespace rgpdos::core {

class Rights {
 public:
  Rights(dbfs::ShardedDbfs* dbfs, ProcessingLog* log, Builtins* builtins)
      : dbfs_(dbfs), log_(log), builtins_(builtins) {}

  /// Right of access: a structured, machine-readable JSON document with
  /// every record of the subject (field names included, membranes
  /// summarised) and the full processing history of their PD.
  Result<std::string> Access(dbfs::SubjectId subject) const;

  /// Right to data portability: the records alone, machine-readable,
  /// without the audit history (what another operator would import).
  Result<std::string> Portability(dbfs::SubjectId subject) const;

  /// Right to be forgotten: crypto-erase every record of the subject
  /// under the authority's key. Returns how many records were erased.
  Result<std::size_t> Forget(dbfs::SubjectId subject,
                             const crypto::RsaPublicKey& authority_key);

  /// Right to rectification: replace one record's row.
  Status Rectify(const PdRef& ref, const db::Row& row);

  /// Right to object (Art. 21): block `purpose` on every record of the
  /// subject. The objection sticks until withdrawn — a later consent
  /// grant does not override it. Returns how many copy groups changed.
  Result<std::size_t> Object(dbfs::SubjectId subject,
                             const std::string& purpose);
  Result<std::size_t> WithdrawObjection(dbfs::SubjectId subject,
                                        const std::string& purpose);

  /// Art. 22: opt the subject out of (or back into) solely-automated
  /// decisions across all their PD. Returns how many copy groups changed.
  Result<std::size_t> OptOutAutomatedDecisions(dbfs::SubjectId subject,
                                               bool opt_out);

  /// Receiving side of data portability (Art. 20: "transmit those data
  /// to another controller"): import a subject export produced by
  /// another rgpdOS instance. Types must already be declared here;
  /// erased records are skipped; membranes travel with the data (consents
  /// and TTLs survive the move), but copy groups are reassigned — copies
  /// do not span operators. Returns the number of records imported.
  Result<std::size_t> ImportSubject(const dbfs::SubjectExport& data);

 private:
  /// Apply `apply` once per copy group of the subject's records (the
  /// builtins propagate group-wide, so one member each suffices).
  /// Returns the number of groups visited.
  Result<std::size_t> ForEachCopyGroup(
      dbfs::SubjectId subject,
      const std::function<Status(const PdRef&)>& apply);

  dbfs::ShardedDbfs* dbfs_;  // borrowed
  ProcessingLog* log_;       // borrowed
  Builtins* builtins_;       // borrowed
};

/// JSON string escaping (exposed for tests).
std::string JsonEscape(std::string_view text);

}  // namespace rgpdos::core

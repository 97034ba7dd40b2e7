// Anonymization built-in — the one processing that may move data OUT of
// DBFS: GDPR Recital 26 places truly anonymised data outside the
// regulation, so its output is non-personal data and lands on the NPD
// filesystem.
//
// "Truly" is carried by two mechanisms:
//   * generalisation rules per field (ints are bucketed, strings reduced
//     to a prefix or dropped); fields without a rule are dropped;
//   * k-anonymity suppression: a generalised row is only released if at
//     least k source records share it — small groups, which could
//     re-identify a subject, are suppressed entirely.
//
// Expired records are skipped (they are already beyond their lawful
// retention) and every contributing record is entered in the processing
// log, so the right of access shows subjects that their PD fed an
// anonymised release.
#pragma once

#include <map>
#include <string>

#include "core/processing_log.hpp"
#include "dbfs/sharded_dbfs.hpp"
#include "inodefs/filesystem.hpp"

namespace rgpdos::core {

/// Per-field generalisation rule.
struct FieldRule {
  enum class Kind : std::uint8_t {
    kBucket,  ///< int: round down to a multiple of `bucket`
    kPrefix,  ///< string: keep the first `prefix_len` characters
    kKeep,    ///< copy verbatim (categorical fields with few values)
  };
  Kind kind = Kind::kKeep;
  std::int64_t bucket = 10;
  std::size_t prefix_len = 1;

  static FieldRule Bucket(std::int64_t size) {
    return {Kind::kBucket, size, 0};
  }
  static FieldRule Prefix(std::size_t len) {
    return {Kind::kPrefix, 0, len};
  }
  static FieldRule Keep() { return {Kind::kKeep, 0, 0}; }
};

struct AnonymizationSpec {
  /// Fields to release, with their generalisation. Unlisted fields are
  /// dropped (data minimisation by default).
  std::map<std::string, FieldRule> rules;
  /// Minimum group size for release (k-anonymity).
  std::size_t k = 2;
};

struct AnonymizationResult {
  std::size_t source_records = 0;
  std::size_t released_groups = 0;
  std::size_t suppressed_groups = 0;
  std::size_t suppressed_records = 0;
};

class Anonymizer {
 public:
  Anonymizer(dbfs::ShardedDbfs* dbfs, ProcessingLog* log, const Clock* clock)
      : dbfs_(dbfs), log_(log), clock_(clock) {}

  /// Generalise every live, unexpired record of `type_name` per `spec`
  /// and write the k-anonymous groups as a CSV file at `npd_path` on the
  /// NPD filesystem ("value1,value2,...,count" rows).
  Result<AnonymizationResult> Release(std::string_view type_name,
                                      const AnonymizationSpec& spec,
                                      inodefs::FileSystem* npd_fs,
                                      std::string_view npd_path);

 private:
  dbfs::ShardedDbfs* dbfs_;  // borrowed
  ProcessingLog* log_;       // borrowed
  const Clock* clock_;       // borrowed
};

}  // namespace rgpdos::core

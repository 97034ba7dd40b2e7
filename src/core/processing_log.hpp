// Processing log — the DED "logs every executed processing. This log is
// organized so that it can give information about executed processings
// for each piece of PD" (paper §4, right of access).
//
// Entries form a SHA-256 hash chain so an auditor can detect tampering
// or truncation: each entry's digest covers its content and the previous
// digest.
//
// Durability: AttachSegmentedStore / LoadFromStore back the log with an
// auditlog::SegmentedLog — compressed, CRC'd, chain-bound sealed
// segments behind a manifest. In memory the log keeps only a bounded
// HOT WINDOW (SetHotWindow) of recent entries; older history lives in
// the sealed segments and is consulted on demand (ForRecord / ForSubject
// / ForEach fall back to a durable scan when the window has trimmed).
// A log with no store attached is memory-only.
//
// Thread-safety: the entry window, hash chain and durable append
// serialise on one lock at rank kCoreLog (just below the
// ProcessingStore lock, so the store may log while holding its own
// lock). Batching is per-thread: a BatchScope stages entries in
// thread-local storage WITHOUT touching the shared chain, and EndBatch
// assigns their sequence numbers and chain digests contiguously under
// the lock, then makes them durable in one store append. Entries for
// one record therefore carry sequence numbers in happens-before order:
// within a batch by staging order, and across batches/threads by flush
// order under the lock.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "auditlog/segmented_log.hpp"
#include "common/clock.hpp"
#include "crypto/sha256.hpp"
#include "dbfs/dbfs.hpp"
#include "metrics/lock.hpp"

namespace rgpdos::core {

enum class LogOutcome : std::uint8_t {
  kProcessed = 0,   ///< PD was read/derived under a valid consent
  kFiltered,        ///< the membrane denied the purpose (or TTL expired)
  kErased,          ///< right-to-be-forgotten executed
  kCollected,       ///< PD entered the system (acquisition built-in)
  kUpdated,
  kCopied,
  kExported,        ///< right of access / portability
  kAborted,         ///< processing killed (syscall filter)
  kRestricted,      ///< Art. 18 restriction set or lifted
  kObjected,        ///< Art. 21 objection / Art. 22 automated-decision
                    ///< opt-out recorded or withdrawn
};

std::string_view LogOutcomeName(LogOutcome outcome);

struct LogEntry {
  std::uint64_t seq = 0;
  TimeMicros at = 0;
  std::string processing;   ///< processing (function) name
  std::string purpose;      ///< declared purpose
  dbfs::SubjectId subject_id = 0;
  dbfs::RecordId record_id = 0;
  LogOutcome outcome = LogOutcome::kProcessed;
  std::string detail;
  crypto::Sha256Digest chain{};  ///< hash over entry content + prev chain
};

class ProcessingLog {
 public:
  explicit ProcessingLog(const Clock* clock) : clock_(clock) {}

  /// Make the log durable: `manifest_inode` (caller-allocated, empty, on
  /// the DBFS store — the log names subjects and purposes, so it must NOT
  /// live on the generally-readable NPD filesystem) becomes the manifest
  /// of a fresh auditlog::SegmentedLog. Use LoadFromStore instead when
  /// the inode already holds data.
  Status AttachSegmentedStore(inodefs::InodeStore* store,
                              inodefs::InodeId manifest_inode,
                              const auditlog::SegmentedLogOptions& options = {});

  /// Reload a persisted log: mount the segmented manifest in `inode`
  /// (sealed segments CRC- and chain-verified), then verify the hash
  /// chain entry by entry; later appends continue it. Fails with
  /// kCorruption on any tampering or truncation-in-the-middle, and when
  /// `inode` holds anything but a valid manifest.
  Status LoadFromStore(inodefs::InodeStore* store, inodefs::InodeId inode,
                       const auditlog::SegmentedLogOptions& options = {});

  void Append(std::string processing, std::string purpose,
              dbfs::SubjectId subject, dbfs::RecordId record,
              LogOutcome outcome, std::string detail = {});

  /// Group commit: between BeginBatch and EndBatch, this thread's
  /// appends are staged thread-locally (no shared state touched) and
  /// committed to the chain + written to the store in ONE durable append
  /// (the DED batches one pipeline run's entries; per-record durability
  /// would multiply the journal traffic by the record count). Batches on
  /// different threads stage independently and serialise at EndBatch.
  /// RAII wrapper below.
  void BeginBatch();
  void EndBatch();

  class BatchScope {
   public:
    explicit BatchScope(ProcessingLog& log) : log_(log) {
      log_.BeginBatch();
    }
    ~BatchScope() { log_.EndBatch(); }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    ProcessingLog& log_;
  };

  /// Bound the in-memory window to the newest `n` entries (0 =
  /// unbounded). Trimmed entries remain durable and reachable through
  /// the queries below when a store is attached.
  void SetHotWindow(std::size_t n);
  [[nodiscard]] std::size_t hot_window() const { return hot_window_; }

  /// Quiescent-time view of the in-memory window (the full log when
  /// nothing has been trimmed), oldest first. Not safe while other
  /// threads Append; concurrent readers use the copying queries below.
  [[nodiscard]] const std::deque<LogEntry>& entries() const {
    return entries_;
  }
  /// Entries currently in the in-memory window.
  [[nodiscard]] std::size_t entry_count() const;
  /// Entries ever appended (window + trimmed-but-durable history).
  [[nodiscard]] std::uint64_t total_entries() const;
  /// Every processing that touched one PD record. Scans the durable
  /// history when the window has trimmed; copied under the lock.
  [[nodiscard]] std::vector<LogEntry> ForRecord(dbfs::RecordId record) const;
  /// Every processing that touched one subject's PD.
  [[nodiscard]] std::vector<LogEntry> ForSubject(
      dbfs::SubjectId subject) const;
  /// Visit every entry in sequence order — durable history first when a
  /// store is attached (regulator export path). The visitor
  /// runs under the log lock; it must not re-enter the log.
  Status ForEach(const std::function<void(const LogEntry&)>& fn) const;

  /// Recompute the hash chain over the in-memory window (anchored at
  /// the digest of the last trimmed entry); false if altered.
  [[nodiscard]] bool VerifyChain() const;
  /// Decode + chain-verify the ENTIRE durable log (sealed segments +
  /// active tail). Ok when no store is attached.
  [[nodiscard]] Status VerifyDurableChain() const;

  /// Force-seal the active segment (tests, clean shutdown).
  Status SealSegments();

  static crypto::Sha256Digest HashEntry(const LogEntry& entry,
                                        const crypto::Sha256Digest& prev);
  static Bytes EncodeEntry(const LogEntry& entry);
  static Result<LogEntry> DecodeEntry(ByteReader& reader);

 private:
  /// Finalise one entry (seq + chain continuation), append its encoding
  /// to `encoded` and move it into entries_. Caller holds mu_.
  void CommitEntryLocked(LogEntry entry, Bytes& encoded);
  void DurableAppendLocked(const Bytes& encoded, std::uint32_t entry_count);
  /// Evict oldest window entries past the bound. Caller holds mu_.
  void TrimWindowLocked();
  /// Decode + verify one raw stream chunk continuing from *prev /
  /// *next_seq; appends to `out` when non-null.
  static Status DecodeVerifiedStream(ByteSpan raw, std::uint64_t* next_seq,
                                     crypto::Sha256Digest* prev,
                                     std::vector<LogEntry>* out);

  const Clock* clock_;  // borrowed
  mutable metrics::OrderedMutex mu_{metrics::LockRank::kCoreLog,
                                    "core.processing_log"};
  std::deque<LogEntry> entries_;
  /// Newest-N bound on entries_; 0 = unbounded.
  std::size_t hot_window_ = 0;
  /// Entries ever committed; the next sequence number.
  std::uint64_t total_ = 0;
  /// Chain digest of the last TRIMMED entry — the anchor the window's
  /// first entry chains from (zero while nothing has been trimmed).
  crypto::Sha256Digest window_prev_{};
  /// Chain digest of the newest committed entry.
  crypto::Sha256Digest tail_{};

  /// Durable backing; null = memory-only.
  std::unique_ptr<auditlog::SegmentedLog> segments_;
};

}  // namespace rgpdos::core

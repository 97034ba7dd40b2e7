#include "core/processing_log.hpp"

#include <algorithm>
#include <string>

#include "common/log.hpp"
#include "crypto/hmac.hpp"
#include "metrics/metrics.hpp"

namespace rgpdos::core {

namespace {
// Per-thread batch staging. Entries appended inside a BatchScope are
// parked here — seq 0, chain unset — and only meet the shared chain at
// EndBatch. Keyed by owning log so a batch on one ProcessingLog never
// swallows appends to another (depth handles re-entrant scopes on the
// same log).
struct ThreadBatch {
  const void* log = nullptr;
  int depth = 0;
  std::vector<LogEntry> staged;
};
thread_local ThreadBatch t_batch;
}  // namespace

std::string_view LogOutcomeName(LogOutcome outcome) {
  switch (outcome) {
    case LogOutcome::kProcessed: return "processed";
    case LogOutcome::kFiltered: return "filtered";
    case LogOutcome::kErased: return "erased";
    case LogOutcome::kCollected: return "collected";
    case LogOutcome::kUpdated: return "updated";
    case LogOutcome::kCopied: return "copied";
    case LogOutcome::kExported: return "exported";
    case LogOutcome::kAborted: return "aborted";
    case LogOutcome::kRestricted: return "restricted";
    case LogOutcome::kObjected: return "objected";
  }
  return "?";
}

crypto::Sha256Digest ProcessingLog::HashEntry(
    const LogEntry& entry, const crypto::Sha256Digest& prev) {
  ByteWriter w;
  w.PutU64(entry.seq);
  w.PutI64(entry.at);
  w.PutString(entry.processing);
  w.PutString(entry.purpose);
  w.PutU64(entry.subject_id);
  w.PutU64(entry.record_id);
  w.PutU8(static_cast<std::uint8_t>(entry.outcome));
  w.PutString(entry.detail);
  w.PutRaw(ByteSpan(prev.data(), prev.size()));
  return crypto::Sha256Hash(w.buffer());
}

Bytes ProcessingLog::EncodeEntry(const LogEntry& entry) {
  ByteWriter w;
  w.PutU64(entry.seq);
  w.PutI64(entry.at);
  w.PutString(entry.processing);
  w.PutString(entry.purpose);
  w.PutU64(entry.subject_id);
  w.PutU64(entry.record_id);
  w.PutU8(static_cast<std::uint8_t>(entry.outcome));
  w.PutString(entry.detail);
  w.PutRaw(ByteSpan(entry.chain.data(), entry.chain.size()));
  return w.Take();
}

Result<LogEntry> ProcessingLog::DecodeEntry(ByteReader& reader) {
  LogEntry entry;
  RGPD_ASSIGN_OR_RETURN(entry.seq, reader.GetU64());
  RGPD_ASSIGN_OR_RETURN(entry.at, reader.GetI64());
  RGPD_ASSIGN_OR_RETURN(entry.processing, reader.GetString());
  RGPD_ASSIGN_OR_RETURN(entry.purpose, reader.GetString());
  RGPD_ASSIGN_OR_RETURN(entry.subject_id, reader.GetU64());
  RGPD_ASSIGN_OR_RETURN(entry.record_id, reader.GetU64());
  RGPD_ASSIGN_OR_RETURN(std::uint8_t outcome, reader.GetU8());
  if (outcome > static_cast<std::uint8_t>(LogOutcome::kObjected)) {
    return Corruption("processing log: unknown outcome");
  }
  entry.outcome = static_cast<LogOutcome>(outcome);
  RGPD_ASSIGN_OR_RETURN(entry.detail, reader.GetString());
  RGPD_ASSIGN_OR_RETURN(Bytes chain,
                        reader.GetRaw(crypto::kSha256DigestSize));
  std::copy(chain.begin(), chain.end(), entry.chain.begin());
  return entry;
}

Status ProcessingLog::DecodeVerifiedStream(ByteSpan raw,
                                           std::uint64_t* next_seq,
                                           crypto::Sha256Digest* prev,
                                           std::vector<LogEntry>* out) {
  ByteReader reader(raw);
  while (!reader.exhausted()) {
    RGPD_ASSIGN_OR_RETURN(LogEntry entry, DecodeEntry(reader));
    if (entry.seq != *next_seq) {
      return Corruption("processing log: sequence gap at " +
                        std::to_string(entry.seq) + " (expected " +
                        std::to_string(*next_seq) + ")");
    }
    if (!crypto::DigestEqual(HashEntry(entry, *prev), entry.chain)) {
      return Corruption("processing log: hash chain broken at seq " +
                        std::to_string(entry.seq));
    }
    *prev = entry.chain;
    ++*next_seq;
    if (out != nullptr) out->push_back(std::move(entry));
  }
  return Status::Ok();
}

Status ProcessingLog::AttachSegmentedStore(
    inodefs::InodeStore* store, inodefs::InodeId manifest_inode,
    const auditlog::SegmentedLogOptions& options) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  RGPD_ASSIGN_OR_RETURN(
      segments_, auditlog::SegmentedLog::Create(store, manifest_inode,
                                                options));
  return Status::Ok();
}

Status ProcessingLog::LoadFromStore(
    inodefs::InodeStore* store, inodefs::InodeId inode,
    const auditlog::SegmentedLogOptions& options) {
  RGPD_ASSIGN_OR_RETURN(std::unique_ptr<auditlog::SegmentedLog> segments,
                        auditlog::SegmentedLog::Mount(store, inode, options));
  // Entry-level pass: decode every segment payload and the active tail,
  // verifying the chain and cross-checking each sealed segment's
  // recorded tail against what its entries actually hash to.
  std::vector<LogEntry> loaded;
  std::uint64_t next_seq = 0;
  crypto::Sha256Digest prev{};
  std::size_t chunk = 0;
  std::uint64_t entries_before_active = 0;
  RGPD_RETURN_IF_ERROR(segments->ScanRaw([&](ByteSpan chunk_raw) {
    RGPD_RETURN_IF_ERROR(
        DecodeVerifiedStream(chunk_raw, &next_seq, &prev, &loaded));
    if (chunk < segments->sealed().size()) {
      const auditlog::SealedSegment& seg = segments->sealed()[chunk];
      if (!crypto::DigestEqual(prev, seg.chain_tail)) {
        return Corruption(
            "processing log: sealed segment tail does not match its "
            "entries");
      }
      entries_before_active = next_seq;
    }
    ++chunk;
    return Status::Ok();
  }));
  segments->AdoptActiveState(
      static_cast<std::uint32_t>(next_seq - entries_before_active), prev);

  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  segments_ = std::move(segments);
  entries_.assign(std::make_move_iterator(loaded.begin()),
                  std::make_move_iterator(loaded.end()));
  total_ = next_seq;
  tail_ = prev;
  window_prev_ = crypto::Sha256Digest{};
  TrimWindowLocked();
  return Status::Ok();
}

void ProcessingLog::CommitEntryLocked(LogEntry entry, Bytes& encoded) {
  entry.seq = total_++;
  entry.chain = HashEntry(entry, tail_);
  tail_ = entry.chain;
  const Bytes bytes = EncodeEntry(entry);
  encoded.insert(encoded.end(), bytes.begin(), bytes.end());
  entries_.push_back(std::move(entry));
}

void ProcessingLog::DurableAppendLocked(const Bytes& encoded,
                                        std::uint32_t entry_count) {
  if (encoded.empty() || segments_ == nullptr) return;
  const Status appended = segments_->AppendBatch(encoded, entry_count, tail_);
  // An IO failure here is deliberately loud: silently losing audit
  // history would defeat the log.
  if (!appended.ok()) {
    RGPD_METRIC_COUNT_N("core.processing_log.write_errors", entry_count);
    RGPD_LOG(kError, "processing_log")
        << "append failed: " << appended.ToString();
  }
}

void ProcessingLog::TrimWindowLocked() {
  if (hot_window_ == 0) return;
  while (entries_.size() > hot_window_) {
    window_prev_ = entries_.front().chain;
    entries_.pop_front();
    RGPD_METRIC_COUNT("core.processing_log.window_evictions");
  }
}

void ProcessingLog::SetHotWindow(std::size_t n) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  hot_window_ = n;
  TrimWindowLocked();
}

void ProcessingLog::Append(std::string processing, std::string purpose,
                           dbfs::SubjectId subject, dbfs::RecordId record,
                           LogOutcome outcome, std::string detail) {
  LogEntry entry;
  entry.at = clock_->Now();
  entry.processing = std::move(processing);
  entry.purpose = std::move(purpose);
  entry.subject_id = subject;
  entry.record_id = record;
  entry.outcome = outcome;
  entry.detail = std::move(detail);
  if (t_batch.depth > 0 && t_batch.log == this) {
    // Inside this thread's batch: park the entry; seq and chain are
    // assigned contiguously at EndBatch.
    t_batch.staged.push_back(std::move(entry));
    return;
  }
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  Bytes encoded;
  CommitEntryLocked(std::move(entry), encoded);
  DurableAppendLocked(encoded, 1);
  TrimWindowLocked();
}

std::size_t ProcessingLog::entry_count() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  return entries_.size();
}

std::uint64_t ProcessingLog::total_entries() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  return total_;
}

std::vector<LogEntry> ProcessingLog::ForRecord(dbfs::RecordId record) const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  std::vector<LogEntry> out;
  if (segments_ != nullptr && total_ > entries_.size()) {
    // The window has trimmed: the full history lives durably.
    std::uint64_t next_seq = 0;
    crypto::Sha256Digest prev{};
    std::vector<LogEntry> all;
    const Status scanned = segments_->ScanRaw([&](ByteSpan raw) {
      return DecodeVerifiedStream(raw, &next_seq, &prev, &all);
    });
    if (scanned.ok()) {
      for (LogEntry& e : all) {
        if (e.record_id == record) out.push_back(std::move(e));
      }
      return out;
    }
    RGPD_LOG(kError, "processing_log")
        << "durable scan failed, serving hot window only: "
        << scanned.ToString();
  }
  for (const LogEntry& e : entries_) {
    if (e.record_id == record) out.push_back(e);
  }
  return out;
}

std::vector<LogEntry> ProcessingLog::ForSubject(
    dbfs::SubjectId subject) const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  std::vector<LogEntry> out;
  if (segments_ != nullptr && total_ > entries_.size()) {
    std::uint64_t next_seq = 0;
    crypto::Sha256Digest prev{};
    std::vector<LogEntry> all;
    const Status scanned = segments_->ScanRaw([&](ByteSpan raw) {
      return DecodeVerifiedStream(raw, &next_seq, &prev, &all);
    });
    if (scanned.ok()) {
      for (LogEntry& e : all) {
        if (e.subject_id == subject) out.push_back(std::move(e));
      }
      return out;
    }
    RGPD_LOG(kError, "processing_log")
        << "durable scan failed, serving hot window only: "
        << scanned.ToString();
  }
  for (const LogEntry& e : entries_) {
    if (e.subject_id == subject) out.push_back(e);
  }
  return out;
}

Status ProcessingLog::ForEach(
    const std::function<void(const LogEntry&)>& fn) const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  if (segments_ != nullptr && total_ > entries_.size()) {
    std::uint64_t next_seq = 0;
    crypto::Sha256Digest prev{};
    return segments_->ScanRaw([&](ByteSpan raw) {
      std::vector<LogEntry> chunk;
      RGPD_RETURN_IF_ERROR(
          DecodeVerifiedStream(raw, &next_seq, &prev, &chunk));
      for (const LogEntry& e : chunk) fn(e);
      return Status::Ok();
    });
  }
  for (const LogEntry& e : entries_) fn(e);
  return Status::Ok();
}

void ProcessingLog::BeginBatch() {
  if (t_batch.depth > 0 && t_batch.log != this) {
    // A batch for another log is active on this thread; appends to THIS
    // log stay unbatched (Append checks the owner). Don't disturb it.
    return;
  }
  t_batch.log = this;
  ++t_batch.depth;
}

void ProcessingLog::EndBatch() {
  if (t_batch.log != this || t_batch.depth == 0) return;
  if (--t_batch.depth > 0) return;
  std::vector<LogEntry> staged = std::move(t_batch.staged);
  t_batch.staged.clear();
  t_batch.log = nullptr;
  if (staged.empty()) return;
  // One lock hold finalises the whole batch: contiguous sequence
  // numbers, one chain continuation, one durable append.
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  Bytes encoded;
  for (LogEntry& entry : staged) {
    CommitEntryLocked(std::move(entry), encoded);
  }
  DurableAppendLocked(encoded, static_cast<std::uint32_t>(staged.size()));
  TrimWindowLocked();
}

bool ProcessingLog::VerifyChain() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  crypto::Sha256Digest prev = window_prev_;
  for (const LogEntry& e : entries_) {
    if (!crypto::DigestEqual(HashEntry(e, prev), e.chain)) return false;
    prev = e.chain;
  }
  return true;
}

Status ProcessingLog::VerifyDurableChain() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  if (segments_ == nullptr) return Status::Ok();
  std::uint64_t next_seq = 0;
  crypto::Sha256Digest prev{};
  return segments_->ScanRaw([&](ByteSpan raw) {
    return DecodeVerifiedStream(raw, &next_seq, &prev, nullptr);
  });
}

Status ProcessingLog::SealSegments() {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  if (segments_ == nullptr) return Status::Ok();
  return segments_->Seal();
}

}  // namespace rgpdos::core

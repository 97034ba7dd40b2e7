#include "auditlog/segmented_log.hpp"

#include <algorithm>
#include <string>

#include "common/crc32.hpp"
#include "crypto/hmac.hpp"
#include "metrics/metrics.hpp"

namespace rgpdos::auditlog {

namespace {
constexpr std::uint32_t kManifestMagic = 0x4D534752;  // "RGSM"
constexpr std::uint32_t kManifestVersion = 1;
}  // namespace

Bytes SegmentedLog::EncodeManifest() const {
  ByteWriter w(64 + sealed_.size() * 56);
  w.PutU32(kManifestMagic);
  w.PutU32(kManifestVersion);
  w.PutU32(active_inode_);
  w.PutU64(sealed_.size());
  for (const SealedSegment& seg : sealed_) {
    w.PutU32(seg.inode);
    w.PutU64(seg.first_seq);
    w.PutU32(seg.entry_count);
    w.PutU64(seg.raw_size);
    w.PutRaw(ByteSpan(seg.chain_tail.data(), seg.chain_tail.size()));
  }
  w.PutU32(Crc32(w.buffer()));
  return w.Take();
}

Result<std::unique_ptr<SegmentedLog>> SegmentedLog::Create(
    inodefs::InodeStore* store, inodefs::InodeId manifest_inode,
    const SegmentedLogOptions& options) {
  std::unique_ptr<SegmentedLog> log(
      new SegmentedLog(store, manifest_inode, options));
  RGPD_ASSIGN_OR_RETURN(log->active_inode_,
                        store->AllocInode(inodefs::InodeKind::kFile));
  RGPD_RETURN_IF_ERROR(
      store->WriteAll(manifest_inode, log->EncodeManifest()));
  return log;
}

Result<std::unique_ptr<SegmentedLog>> SegmentedLog::Mount(
    inodefs::InodeStore* store, inodefs::InodeId manifest_inode,
    const SegmentedLogOptions& options) {
  std::unique_ptr<SegmentedLog> log(
      new SegmentedLog(store, manifest_inode, options));
  RGPD_ASSIGN_OR_RETURN(Bytes raw, store->ReadAll(manifest_inode));
  if (raw.size() < 2 * sizeof(std::uint32_t)) {
    return Corruption("segmented log: manifest too short");
  }
  const ByteSpan body(raw.data(), raw.size() - sizeof(std::uint32_t));
  ByteReader crc_reader(
      ByteSpan(raw.data() + body.size(), sizeof(std::uint32_t)));
  RGPD_ASSIGN_OR_RETURN(std::uint32_t stored_crc, crc_reader.GetU32());
  if (Crc32(body) != stored_crc) {
    return Corruption("segmented log: manifest CRC mismatch");
  }
  ByteReader r(body);
  RGPD_ASSIGN_OR_RETURN(std::uint32_t magic, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(std::uint32_t version, r.GetU32());
  if (magic != kManifestMagic || version != kManifestVersion) {
    return Corruption("segmented log: bad manifest magic/version");
  }
  RGPD_ASSIGN_OR_RETURN(log->active_inode_, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(std::uint64_t sealed_count, r.GetU64());
  std::uint64_t next_seq = 0;
  crypto::Sha256Digest prev_tail{};
  for (std::uint64_t i = 0; i < sealed_count; ++i) {
    SealedSegment seg;
    RGPD_ASSIGN_OR_RETURN(seg.inode, r.GetU32());
    RGPD_ASSIGN_OR_RETURN(seg.first_seq, r.GetU64());
    RGPD_ASSIGN_OR_RETURN(seg.entry_count, r.GetU32());
    RGPD_ASSIGN_OR_RETURN(seg.raw_size, r.GetU64());
    RGPD_ASSIGN_OR_RETURN(Bytes tail, r.GetRaw(crypto::kSha256DigestSize));
    std::copy(tail.begin(), tail.end(), seg.chain_tail.begin());

    // Verify the sealed segment itself: CRCs, ordering, chain linkage.
    RGPD_ASSIGN_OR_RETURN(Bytes stored, store->ReadAll(seg.inode));
    SegmentInfo info;
    Bytes payload;
    RGPD_RETURN_IF_ERROR(DecodeSealedSegment(stored, &info, &payload));
    if (info.segment_seq != i) {
      return Corruption("segmented log: segment " + std::to_string(i) +
                        " out of order (header says " +
                        std::to_string(info.segment_seq) + ")");
    }
    if (info.first_seq != next_seq || info.first_seq != seg.first_seq ||
        info.entry_count != seg.entry_count) {
      return Corruption("segmented log: segment " + std::to_string(i) +
                        " sequence discontinuity");
    }
    if (!crypto::DigestEqual(info.chain_prev, prev_tail) ||
        !crypto::DigestEqual(info.chain_tail, seg.chain_tail)) {
      return Corruption("segmented log: segment " + std::to_string(i) +
                        " breaks the hash chain linkage");
    }
    if (info.raw_size != seg.raw_size) {
      return Corruption("segmented log: segment " + std::to_string(i) +
                        " size mismatch vs manifest");
    }
    next_seq += info.entry_count;
    prev_tail = info.chain_tail;
    log->sealed_.push_back(std::move(seg));
  }
  if (!r.exhausted()) {
    return Corruption("segmented log: trailing bytes in manifest");
  }
  RGPD_ASSIGN_OR_RETURN(log->active_buf_, store->ReadAll(log->active_inode_));
  log->active_chain_prev_ = prev_tail;
  // Until the owner decodes the active tail and calls AdoptActiveState,
  // assume an empty tail.
  log->chain_tail_ = prev_tail;
  log->active_entries_ = 0;
  return log;
}

void SegmentedLog::AdoptActiveState(std::uint32_t active_entries,
                                    const crypto::Sha256Digest& chain_tail) {
  active_entries_ = active_entries;
  chain_tail_ = chain_tail;
}

std::uint64_t SegmentedLog::sealed_entry_total() const {
  std::uint64_t total = 0;
  for (const SealedSegment& seg : sealed_) total += seg.entry_count;
  return total;
}

Status SegmentedLog::AppendBatch(ByteSpan encoded, std::uint32_t entry_count,
                                 const crypto::Sha256Digest& chain_tail) {
  if (entry_count == 0 || encoded.empty()) return Status::Ok();
  if (options_.segment_bytes != 0 &&
      active_buf_.size() >= options_.segment_bytes && active_entries_ > 0) {
    RGPD_RETURN_IF_ERROR(SealActive());
  }
  RGPD_RETURN_IF_ERROR(store_->Append(active_inode_, encoded));
  active_buf_.insert(active_buf_.end(), encoded.begin(), encoded.end());
  active_entries_ += entry_count;
  chain_tail_ = chain_tail;
  return Status::Ok();
}

Status SegmentedLog::Seal() {
  if (active_entries_ == 0) return Status::Ok();
  return SealActive();
}

Status SegmentedLog::SealActive() {
  SegmentInfo info;
  info.segment_seq = sealed_.size();
  info.first_seq = sealed_entry_total();
  info.entry_count = active_entries_;
  info.chain_prev = active_chain_prev_;
  info.chain_tail = chain_tail_;
  info.raw_size = active_buf_.size();
  const Bytes stored = EncodeSealedSegment(info, active_buf_);

  // Seal atomically: the sealed image, the manifest update and the
  // active-tail truncation commit as ONE journal transaction, so a crash
  // mid-rotation replays to either the old state (tail still active) or
  // the new one (segment sealed, tail empty) — never both or neither.
  inodefs::InodeStore::GroupCommitScope scope(*store_);
  RGPD_ASSIGN_OR_RETURN(const inodefs::InodeId sealed_inode,
                        store_->AllocInode(inodefs::InodeKind::kFile));
  RGPD_RETURN_IF_ERROR(store_->WriteAll(sealed_inode, stored));
  SealedSegment seg;
  seg.inode = sealed_inode;
  seg.first_seq = info.first_seq;
  seg.entry_count = info.entry_count;
  seg.raw_size = info.raw_size;
  seg.chain_tail = info.chain_tail;
  sealed_.push_back(seg);
  RGPD_RETURN_IF_ERROR(store_->WriteAll(manifest_inode_, EncodeManifest()));
  RGPD_RETURN_IF_ERROR(
      store_->Truncate(active_inode_, 0, /*scrub=*/false));
  const Status committed = scope.Finish();
  if (!committed.ok()) {
    sealed_.pop_back();
    return committed;
  }
  RGPD_METRIC_COUNT("auditlog.segments.sealed");
  RGPD_METRIC_COUNT_N("auditlog.segments.raw_bytes", info.raw_size);
  RGPD_METRIC_COUNT_N("auditlog.segments.stored_bytes", stored.size());
  active_buf_.clear();
  active_entries_ = 0;
  active_chain_prev_ = info.chain_tail;
  return Status::Ok();
}

Result<Bytes> SegmentedLog::RawStream() const {
  Bytes out;
  RGPD_RETURN_IF_ERROR(ScanRaw([&out](ByteSpan raw) {
    out.insert(out.end(), raw.begin(), raw.end());
    return Status::Ok();
  }));
  return out;
}

Status SegmentedLog::ScanRaw(
    const std::function<Status(ByteSpan raw)>& fn) const {
  for (const SealedSegment& seg : sealed_) {
    RGPD_ASSIGN_OR_RETURN(Bytes stored, store_->ReadAll(seg.inode));
    SegmentInfo info;
    Bytes payload;
    RGPD_RETURN_IF_ERROR(DecodeSealedSegment(stored, &info, &payload));
    RGPD_RETURN_IF_ERROR(fn(payload));
  }
  return fn(active_buf_);
}

}  // namespace rgpdos::auditlog

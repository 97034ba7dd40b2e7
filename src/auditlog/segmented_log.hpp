// SegmentedLog — durable substrate of the audit/processing-log pipeline
// (DESIGN.md §14).
//
// An append-only log stored on an inodefs::InodeStore as:
//
//   manifest inode   CRC'd index: active inode id + one row per sealed
//                    segment (inode, first_seq, entry_count, raw size,
//                    chain tail). Rewritten atomically on every seal.
//   active inode     raw (uncompressed) encoded entries, appended in
//                    batches; each batch append is one journaled
//                    transaction, so a crash leaves a clean batch prefix.
//   sealed inodes    one per sealed segment (segment.hpp format:
//                    compressed, CRC'd, chain-bound).
//
// When the active tail reaches `segment_bytes` it is sealed: compressed
// into a fresh inode, the manifest rewritten, and the active inode
// truncated — all inside one journal group commit, so a crash during
// rotation can never duplicate or lose entries.
//
// The payload is opaque here: callers append pre-encoded entry batches
// and tell the log the entry count and the SHA-256 chain tail after the
// batch; chain hashing/verification of individual entries stays with
// the owner (ProcessingLog, DurableAuditPipeline). Mount verifies
// everything below the entry codec: manifest CRC, per-segment header and
// payload CRCs, segment ordering, first_seq continuity and chain_prev /
// chain_tail linkage across segments.
//
// Thread-safety: externally synchronised. Both owners already serialise
// their durable appends (ProcessingLog under its kCoreLog mutex, the
// audit pipeline on its single writer thread), so the log adds no lock
// of its own.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "auditlog/segment.hpp"
#include "inodefs/inode_store.hpp"

namespace rgpdos::auditlog {

struct SegmentedLogOptions {
  /// Seal threshold on the raw (uncompressed) active tail, in bytes.
  std::uint64_t segment_bytes = 256 * 1024;
};

/// A sealed segment as indexed by the manifest.
struct SealedSegment {
  inodefs::InodeId inode = inodefs::kInvalidInode;
  std::uint64_t first_seq = 0;
  std::uint32_t entry_count = 0;
  std::uint64_t raw_size = 0;
  crypto::Sha256Digest chain_tail{};
};

class SegmentedLog {
 public:
  /// Initialise a fresh log: allocates the active inode and writes an
  /// empty manifest into `manifest_inode` (caller-allocated).
  static Result<std::unique_ptr<SegmentedLog>> Create(
      inodefs::InodeStore* store, inodefs::InodeId manifest_inode,
      const SegmentedLogOptions& options);

  /// Mount an existing log: decodes the manifest (CRC-checked), reads
  /// and verifies every sealed segment (header/payload CRCs, ordering,
  /// seq continuity, cross-segment chain linkage) and loads the active
  /// tail. Entry-level chain verification is the caller's job — decode
  /// RawStream() and call AdoptActiveState with what you found.
  static Result<std::unique_ptr<SegmentedLog>> Mount(
      inodefs::InodeStore* store, inodefs::InodeId manifest_inode,
      const SegmentedLogOptions& options);

  /// Append one batch of pre-encoded entries to the active tail (one
  /// journaled transaction), sealing + rotating first if the tail is
  /// full. `chain_tail` is the entry hash-chain digest AFTER the batch.
  Status AppendBatch(ByteSpan encoded, std::uint32_t entry_count,
                     const crypto::Sha256Digest& chain_tail);

  /// Force-seal the current active tail (tests, clean shutdown).
  Status Seal();

  /// After Mount: callers that decoded the active tail report how many
  /// entries it held and the resulting chain tail, so later appends and
  /// seals continue the chain correctly.
  void AdoptActiveState(std::uint32_t active_entries,
                        const crypto::Sha256Digest& chain_tail);

  /// The whole raw entry stream in order: every sealed segment's
  /// (decompressed, CRC-verified) payload, then the active tail.
  [[nodiscard]] Result<Bytes> RawStream() const;

  /// Stream per-chunk instead of concatenating: `fn` is called once per
  /// sealed segment payload and once for the (possibly empty) active
  /// tail. Returning an error stops the scan.
  Status ScanRaw(const std::function<Status(ByteSpan raw)>& fn) const;

  [[nodiscard]] const std::vector<SealedSegment>& sealed() const {
    return sealed_;
  }
  [[nodiscard]] std::uint64_t sealed_entry_total() const;
  [[nodiscard]] std::uint64_t total_entries() const {
    return sealed_entry_total() + active_entries_;
  }
  [[nodiscard]] const crypto::Sha256Digest& chain_tail() const {
    return chain_tail_;
  }
  [[nodiscard]] inodefs::InodeId active_inode() const { return active_inode_; }
  [[nodiscard]] std::uint64_t active_raw_bytes() const {
    return active_buf_.size();
  }
  /// Raw encoded content of the active tail (decode + chain-verify it
  /// after Mount, then AdoptActiveState).
  [[nodiscard]] const Bytes& active_raw() const { return active_buf_; }

 private:
  SegmentedLog(inodefs::InodeStore* store, inodefs::InodeId manifest_inode,
               const SegmentedLogOptions& options)
      : store_(store), manifest_inode_(manifest_inode), options_(options) {}

  /// Compress + seal the active tail into a fresh inode, rewrite the
  /// manifest, truncate the active inode — one journal group commit.
  Status SealActive();
  Bytes EncodeManifest() const;

  inodefs::InodeStore* store_;  // borrowed
  inodefs::InodeId manifest_inode_;
  SegmentedLogOptions options_;
  inodefs::InodeId active_inode_ = inodefs::kInvalidInode;
  std::vector<SealedSegment> sealed_;
  /// In-memory mirror of the active inode's content (bounded by
  /// segment_bytes), so sealing never re-reads the device.
  Bytes active_buf_;
  std::uint32_t active_entries_ = 0;
  /// Chain tail before the active tail's first entry (== last sealed
  /// segment's tail, or zero at the log head).
  crypto::Sha256Digest active_chain_prev_{};
  /// Chain tail after the newest appended entry.
  crypto::Sha256Digest chain_tail_{};
};

}  // namespace rgpdos::auditlog

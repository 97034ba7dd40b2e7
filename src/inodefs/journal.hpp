// Write-ahead data journal.
//
// Every mutation of the filesystem is logged here (the changed bytes,
// data and metadata alike — "data journaling" in ext4 terms) before being
// written in place, giving crash atomicity. The journal is a circular
// region of blocks; old records are NOT erased when a transaction
// checkpoints, only overwritten when the head wraps around.
//
// That retention is deliberate: it reproduces the violation the paper
// builds its case on (§1): "data deleted by the DB engine can still be
// present in the filesystem's logs". The Fig-2 bench counts plaintext PD
// bytes recoverable from this region after a DB-level delete. rgpdOS's
// DBFS erasure path calls Scrub() to destroy the history; the baseline
// never does.
//
// Record format (little-endian, CRC over header+payload):
//   magic u32 | seq u64 | kind u8 | target u64 | payload_len u32 |
//   payload | crc u32
// Every transaction is ONE self-committing extent record (kind 3) that
// logs only the modified byte ranges of every block the transaction
// touched (target = block count; a valid CRC IS the commit — a torn
// record fails the CRC and the whole transaction is discarded). Per-block
// payload layout:
//   block u64 | base u8 (0 = read-modify-write the device block,
//                        1 = reconstruct from a zero block)
//   | extent_count u16 | { offset u32 | len u32 } * extent_count
//   | extent data bytes (concatenated, in extent order)
// Replay reconstructs full images in sequence order, chaining same-block
// transactions through an image map. A CRC-valid record of any other
// kind is counted corrupt and never applied.
#pragma once

#include <utility>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "inodefs/format.hpp"
#include "inodefs/io_retry.hpp"

namespace rgpdos::inodefs {

/// One journaled block write, as recovered by Replay().
struct ReplayedWrite {
  std::uint64_t seq = 0;
  BlockIndex block = 0;
  Bytes data;
};

/// One block write handed to AppendTransaction. `data` is always the
/// full final image (the checkpoint source). The base tells the extent
/// encoder what the block looked like before the transaction:
///   kBaseDevice — `preimage` holds the on-device image; only the byte
///                 ranges that differ are journaled.
///   kBaseZero   — the block was freshly allocated and zero-filled;
///                 only the non-zero content is journaled.
///   kBaseNone   — no preimage known; the full image is journaled as a
///                 single extent.
struct JournalWrite {
  static constexpr std::uint8_t kBaseDevice = 0;
  static constexpr std::uint8_t kBaseZero = 1;
  static constexpr std::uint8_t kBaseNone = 2;

  BlockIndex block = 0;
  Bytes data;
  std::uint8_t base = kBaseNone;
  Bytes preimage;  ///< valid iff base == kBaseDevice
};

/// One dirty byte range of a journaled block.
struct Extent {
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
};

/// Two dirty runs at most this many equal bytes apart are merged into one
/// extent — eight bytes of extent header buy nothing on a gap this short.
inline constexpr std::size_t kExtentMergeGap = 16;

/// Dirty ranges of `data` against `base` (same length), nearby runs
/// merged. An identical block yields no extents.
std::vector<Extent> DiffExtents(ByteSpan base, ByteSpan data);

/// What the last Replay() saw while scanning the region — the
/// inodefs.recovery.* metrics and the crash harness read this.
struct ReplayStats {
  std::uint64_t committed_txns = 0;    ///< applied
  std::uint64_t stale_txns = 0;        ///< committed but already durably
                                       ///< checkpointed (seq below the
                                       ///< superblock watermark) — skipped
  std::uint64_t corrupt_records = 0;   ///< bad CRC, truncated record,
                                       ///< bad framing or unknown kind
  std::uint64_t replayed_writes = 0;
};

class Journal {
 public:
  /// `superblock` is borrowed and mutated (journal_head / journal_seq).
  ///
  /// Thread-safety: the journal has no lock of its own — every call is
  /// made by InodeStore under the per-store mutex (rank kInodefs), which
  /// also serialises the head/seq cursor in the shared superblock.
  /// bytes_logged() is a bench counter: read it only at quiescence.
  ///
  /// A new journal assumes every region block may hold history (a
  /// mounted region's tail is not provably zero, and Mount's replay scan
  /// may have left journal blocks in a block cache), so its first Scrub()
  /// covers the whole region. InodeStore::Format, which has just zeroed
  /// the region, calls MarkRegionZeroed() instead.
  Journal(blockdev::BlockDevice& device, Superblock& superblock)
      : device_(device),
        sb_(superblock),
        zero_block_(device.block_size(), 0),
        dirty_blocks_(superblock.journal_blocks) {}

  /// Transient-IO retry policy for every device access the journal makes.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// Log a whole transaction as one self-committing extent record and
  /// flush. The record's blocks go to the device as ONE batched
  /// submission, not N serialized writes.
  /// Fails with ResourceExhausted if the record cannot fit in the journal
  /// region even when empty — committing it anyway would wrap over its
  /// own head and guarantee a torn replay.
  Status AppendTransaction(const std::vector<JournalWrite>& writes);

  /// Scan the region for committed transactions; returns their block
  /// writes ordered by (seq, log position). Also repositions the head
  /// after the HIGHEST-SEQ record (not the highest block offset: after a
  /// wrap the newest record sits at a LOWER offset than older, already-
  /// checkpointed ones) so appends resume without overwriting the
  /// freshest records.
  Result<std::vector<ReplayedWrite>> Replay();

  /// What the last Replay() found. Valid after Replay() returns OK.
  [[nodiscard]] const ReplayStats& last_replay() const {
    return replay_stats_;
  }

  /// Destroy every byte of write history in the region (GDPR scrub).
  /// Only the blocks that may have been written since the last completed
  /// scrub are zeroed, as one batched device write; every other region
  /// block is already zero. With nothing written since, this touches no
  /// device at all. Head resets to 0; sequence numbers keep increasing so
  /// replay ordering stays sound.
  Status Scrub();

  /// Record that the whole region is zero on the medium (Format has just
  /// zeroed it), so the next Scrub() has nothing to destroy.
  void MarkRegionZeroed() { dirty_blocks_ = 0; }

  /// Lifetime bytes appended (bench counter).
  [[nodiscard]] std::uint64_t bytes_logged() const { return bytes_logged_; }

 private:
  /// Blocks one record with `payload_size` occupies (header + payload,
  /// rounded up to whole blocks).
  [[nodiscard]] std::uint64_t RecordBlocks(std::size_t payload_size) const;
  /// Build the padded on-medium image of one record.
  [[nodiscard]] Bytes BuildRecord(std::uint64_t seq, std::uint8_t kind,
                                  std::uint64_t target, ByteSpan payload) const;
  /// Write one pre-built record image at the head (wrapping to the
  /// region start first if it does not fit in the tail) as one batched
  /// device submission.
  Status WriteRecord(const Bytes& image);
  /// Write `batch` as one device submission, degrading to per-block
  /// bounded retry if the submission fails.
  Status WriteBlocks(const std::vector<blockdev::BatchWrite>& batch);
  /// Durably persist the superblock (checkpoint watermark included).
  /// Called before the head wraps and before a scrub: both destroy old
  /// records, which is only safe once the medium provably knows they are
  /// checkpointed — otherwise a later Replay would re-apply surviving
  /// STALE records and revert blocks whose newest images were destroyed.
  Status PersistSuperblock();

  blockdev::BlockDevice& device_;
  Superblock& sb_;
  const Bytes zero_block_;  ///< diff base of kBaseZero writes
  RetryPolicy retry_;
  std::uint64_t bytes_logged_ = 0;
  /// Upper bound on the region blocks that may hold history: blocks
  /// [0, dirty_blocks_) may, every block past it is zero on the medium
  /// (its last write was the durable zeroing of a scrub or of Format).
  std::uint64_t dirty_blocks_;
  ReplayStats replay_stats_;
};

}  // namespace rgpdos::inodefs

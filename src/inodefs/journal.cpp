#include "inodefs/journal.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/crc32.hpp"
#include "metrics/metrics.hpp"

namespace rgpdos::inodefs {

namespace {

constexpr std::uint32_t kRecordMagic = 0x4C4E524A;  // "JRNL"
/// Self-committing extent transaction: target = block count, payload =
/// per-block extent groups (see journal.hpp). A valid CRC is the commit.
/// Kinds 1 and 2 (the retired whole-block format) must not be reused:
/// old regions may still hold them, and replay counts them corrupt.
constexpr std::uint8_t kKindExtents = 3;

// magic u32 | seq u64 | kind u8 | target u64 | payload_len u32
constexpr std::size_t kHeaderSize = 4 + 8 + 1 + 8 + 4;
constexpr std::size_t kCrcSize = 4;

// Per-block extent-group framing: block u64 | base u8 | extent_count u16.
constexpr std::size_t kExtentGroupHeader = 8 + 1 + 2;
constexpr std::size_t kExtentHeader = 4 + 4;  // offset u32 | len u32

/// One recovered block write: an extent group to reconstruct over its
/// base.
struct RecoveredWrite {
  BlockIndex block = 0;
  std::uint8_t base = JournalWrite::kBaseZero;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> extents;
  Bytes data;  ///< the extents' bytes, concatenated
};

/// Parse the `groups` extent groups of one record's payload. Any framing
/// violation poisons the whole record (the CRC said the bytes are intact,
/// so a framing error means a format we do not understand — never guess).
bool DecodeExtentGroups(ByteSpan payload, std::uint64_t groups,
                        std::uint32_t block_size,
                        std::vector<RecoveredWrite>* out) {
  ByteReader reader(payload);
  for (std::uint64_t g = 0; g < groups; ++g) {
    RecoveredWrite write;
    auto block_index = reader.GetU64();
    auto base = reader.GetU8();
    auto extent_count = reader.GetU16();
    if (!block_index.ok() || !base.ok() || !extent_count.ok() ||
        *base > JournalWrite::kBaseZero) {
      return false;
    }
    write.block = *block_index;
    write.base = *base;
    std::size_t data_bytes = 0;
    for (std::uint16_t e = 0; e < *extent_count; ++e) {
      auto off = reader.GetU32();
      auto len = reader.GetU32();
      if (!off.ok() || !len.ok() || *len == 0 ||
          std::uint64_t(*off) + *len > block_size) {
        return false;
      }
      write.extents.emplace_back(*off, *len);
      data_bytes += *len;
    }
    auto data = reader.GetRaw(data_bytes);
    if (!data.ok()) return false;
    write.data = std::move(*data);
    out->push_back(std::move(write));
  }
  return true;
}

metrics::Histogram& BytesPerCommitHistogram() {
  static const std::vector<std::uint64_t> kBounds = {
      64,    128,   256,    512,    1024,   2048,    4096,
      8192,  16384, 32768,  65536,  131072, 262144,  524288,
      1048576};
  static metrics::Histogram& h = metrics::MetricsRegistry::Instance()
      .GetHistogram("inodefs.journal.bytes_per_commit", kBounds);
  return h;
}

}  // namespace

std::vector<Extent> DiffExtents(ByteSpan base, ByteSpan data) {
  const std::size_t n = data.size();
  // First differing byte at or after `i`, or n. Equal 8-byte words are
  // skipped whole; equality does not depend on the host byte order.
  const auto next_dirty = [&](std::size_t i) {
    for (; i + 8 <= n; i += 8) {
      std::uint64_t a;
      std::uint64_t b;
      std::memcpy(&a, base.data() + i, 8);
      std::memcpy(&b, data.data() + i, 8);
      if (a != b) break;
    }
    while (i < n && base[i] == data[i]) ++i;
    return i;
  };
  // An extent runs from a dirty byte to the last dirty byte before a gap
  // of more than kExtentMergeGap equal bytes (or the end of the block).
  std::vector<Extent> extents;
  std::size_t start = next_dirty(0);
  while (start < n) {
    std::size_t last = start;
    std::size_t next = next_dirty(last + 1);
    while (next < n && next - last - 1 <= kExtentMergeGap) {
      last = next;
      next = next_dirty(last + 1);
    }
    extents.push_back({static_cast<std::uint32_t>(start),
                       static_cast<std::uint32_t>(last + 1 - start)});
    start = next;
  }
  return extents;
}

std::uint64_t Journal::RecordBlocks(std::size_t payload_size) const {
  const std::size_t total = kHeaderSize + payload_size + kCrcSize;
  return (total + sb_.block_size - 1) / sb_.block_size;
}

Bytes Journal::BuildRecord(std::uint64_t seq, std::uint8_t kind,
                           std::uint64_t target, ByteSpan payload) const {
  ByteWriter w(kHeaderSize + payload.size() + kCrcSize);
  w.PutU32(kRecordMagic);
  w.PutU64(seq);
  w.PutU8(kind);
  w.PutU64(target);
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutRaw(payload);
  const std::uint32_t crc = Crc32(w.buffer());
  w.PutU32(crc);
  Bytes image = w.Take();
  image.resize(RecordBlocks(payload.size()) * sb_.block_size, 0);
  return image;
}

Status Journal::WriteRecord(const Bytes& image) {
  const std::uint64_t blocks_needed = image.size() / sb_.block_size;
  // Head is a block offset within the region; wrap if the record does not
  // fit in the tail (old records there are simply overwritten later).
  // Wrapping starts destroying old records, so the checkpoint watermark
  // covering them must reach the medium first.
  if (sb_.journal_head + blocks_needed > sb_.journal_blocks) {
    RGPD_RETURN_IF_ERROR(PersistSuperblock());
    sb_.journal_head = 0;
    dirty_blocks_ = sb_.journal_blocks;
  }
  std::vector<blockdev::BatchWrite> batch;
  batch.reserve(blocks_needed);
  for (std::uint64_t i = 0; i < blocks_needed; ++i) {
    batch.push_back(
        {sb_.journal_start + sb_.journal_head + i,
         ByteSpan(image.data() + i * sb_.block_size, sb_.block_size)});
  }
  sb_.journal_head += blocks_needed;
  // Raised before the write: a failed or torn write may still have left
  // bytes in these blocks.
  dirty_blocks_ = std::max(dirty_blocks_, sb_.journal_head);
  bytes_logged_ += image.size();
  // All the record's blocks go out as ONE batch, which the device cost
  // model charges at its queue depth.
  return WriteBlocks(batch);
}

Status Journal::WriteBlocks(const std::vector<blockdev::BatchWrite>& batch) {
  // Journal block writes are idempotent (full images), so if the batch
  // fails, degrade to per-block bounded retry — re-running the whole
  // batch on transient-heavy media would re-trip the fault on every
  // attempt once the batch is wider than the error period.
  if (device_.WriteBatch(batch).ok()) return Status::Ok();
  for (const blockdev::BatchWrite& w : batch) {
    RGPD_RETURN_IF_ERROR(
        RetryIo(retry_, [&] { return device_.WriteBlock(w.index, w.data); }));
  }
  return Status::Ok();
}

Status Journal::AppendTransaction(const std::vector<JournalWrite>& writes) {
  RGPD_METRIC_SCOPED_LATENCY("inodefs.journal.commit_latency_ns");
  const std::uint64_t before = bytes_logged_;

  // Build the whole payload first so the whole-region guard sees the
  // real record size.
  ByteWriter w(writes.size() * kExtentGroupHeader);
  for (const JournalWrite& write : writes) {
    // Dirty ranges against the declared base; full image when no
    // preimage is known or when extents would not actually save bytes.
    std::vector<Extent> extents;
    bool full = write.base == JournalWrite::kBaseNone;
    std::uint8_t base = write.base;
    if (!full) {
      ByteSpan base_span;
      if (write.base == JournalWrite::kBaseZero) {
        base_span = ByteSpan(zero_block_.data(),
                             std::min(zero_block_.size(), write.data.size()));
      } else {
        base_span = ByteSpan(write.preimage.data(), write.preimage.size());
      }
      if (base_span.size() != write.data.size()) {
        full = true;
      } else {
        extents = DiffExtents(base_span, write.data);
        std::size_t encoded = 0;
        for (const Extent& e : extents) encoded += kExtentHeader + e.len;
        if (encoded >= kExtentHeader + write.data.size()) full = true;
      }
    }
    if (full) {
      // One extent covering the whole block; a zero base means replay
      // never needs to read the device for it.
      base = JournalWrite::kBaseZero;
      extents.assign(1, {0, static_cast<std::uint32_t>(write.data.size())});
    }
    w.PutU64(write.block);
    w.PutU8(base);
    w.PutU16(static_cast<std::uint16_t>(extents.size()));
    for (const Extent& e : extents) {
      w.PutU32(e.offset);
      w.PutU32(e.len);
    }
    for (const Extent& e : extents) {
      w.PutRaw(ByteSpan(write.data.data() + e.offset, e.len));
    }
  }
  const Bytes payload = w.Take();
  if (RecordBlocks(payload.size()) > sb_.journal_blocks) {
    return ResourceExhausted("transaction larger than the journal region");
  }

  const std::uint64_t seq = sb_.journal_seq++;
  RGPD_RETURN_IF_ERROR(WriteRecord(
      BuildRecord(seq, kKindExtents, writes.size(), ByteSpan(payload))));
  RGPD_METRIC_COUNT("inodefs.journal.commits");
  RGPD_METRIC_COUNT_N("inodefs.journal.bytes", bytes_logged_ - before);
  BytesPerCommitHistogram().Observe(bytes_logged_ - before);
  return RetryIo(retry_, [&] { return device_.Flush(); });
}

Status Journal::PersistSuperblock() {
  Bytes block;
  RGPD_RETURN_IF_ERROR(
      RetryIo(retry_, [&] { return device_.ReadBlock(0, block); }));
  sb_.EncodeInto(block);
  RGPD_RETURN_IF_ERROR(RetryIo(
      retry_, [&] { return device_.WriteBlock(0, block); }));
  // The superblock must be durable BEFORE any old record is destroyed;
  // a write sitting in a volatile disk cache protects nothing.
  return RetryIo(retry_, [&] { return device_.Flush(); });
}

Result<std::vector<ReplayedWrite>> Journal::Replay() {
  struct RecoveredTxn {
    std::vector<RecoveredWrite> writes;
    std::uint64_t end_block = 0;  // region-relative block after the record
  };
  std::map<std::uint64_t, RecoveredTxn> txns;
  replay_stats_ = ReplayStats{};
  // Transactions below the persisted watermark are durably in place;
  // re-applying their (older) block images would revert newer in-place
  // state whose own journal records were wrapped over or scrubbed.
  const std::uint64_t checkpointed = sb_.journal_checkpointed_seq;

  Bytes block;
  std::uint64_t offset = 0;
  while (offset < sb_.journal_blocks) {
    RGPD_RETURN_IF_ERROR(RetryIo(retry_, [&] {
      return device_.ReadBlock(sb_.journal_start + offset, block);
    }));
    ByteReader header(block);
    auto magic = header.GetU32();
    if (!magic.ok() || *magic != kRecordMagic) {
      ++offset;
      continue;
    }
    auto seq = header.GetU64();
    auto kind = header.GetU8();
    auto target = header.GetU64();
    auto payload_len = header.GetU32();
    if (!seq.ok() || !kind.ok() || !target.ok() || !payload_len.ok()) {
      ++replay_stats_.corrupt_records;
      ++offset;
      continue;
    }
    const std::uint64_t blocks = RecordBlocks(*payload_len);
    if (offset + blocks > sb_.journal_blocks) {
      ++replay_stats_.corrupt_records;
      ++offset;
      continue;
    }
    // Assemble the full record image to verify its CRC.
    Bytes image;
    image.reserve(blocks * sb_.block_size);
    image.insert(image.end(), block.begin(), block.end());
    for (std::uint64_t i = 1; i < blocks; ++i) {
      Bytes next;
      RGPD_RETURN_IF_ERROR(RetryIo(retry_, [&] {
        return device_.ReadBlock(sb_.journal_start + offset + i, next);
      }));
      image.insert(image.end(), next.begin(), next.end());
    }
    const std::size_t record_size = kHeaderSize + *payload_len + kCrcSize;
    if (record_size > image.size()) {
      ++replay_stats_.corrupt_records;
      ++offset;
      continue;
    }
    ByteReader crc_reader(
        ByteSpan(image.data() + record_size - kCrcSize, kCrcSize));
    const std::uint32_t stored_crc = *crc_reader.GetU32();
    const std::uint32_t computed_crc =
        Crc32(ByteSpan(image.data(), record_size - kCrcSize));
    if (stored_crc != computed_crc) {
      // A torn record dies here: its CRC is its commit, so the whole
      // transaction vanishes rather than half-applying.
      ++replay_stats_.corrupt_records;
      ++offset;
      continue;
    }

    // Intact bytes of a kind we do not write (including the retired
    // whole-block data/commit records) or with broken framing: count it,
    // apply nothing.
    const ByteSpan payload(image.data() + kHeaderSize, *payload_len);
    RecoveredTxn txn;
    if (*kind != kKindExtents ||
        !DecodeExtentGroups(payload, *target, sb_.block_size, &txn.writes)) {
      ++replay_stats_.corrupt_records;
      offset += blocks;
      continue;
    }
    txn.end_block = offset + blocks;
    txns[*seq] = std::move(txn);
    offset += blocks;
  }

  std::vector<ReplayedWrite> out;
  /// Newest reconstructed image per block, so chained transactions on
  /// one block compose: a later extent record bases on its predecessor's
  /// image, not on the (older) on-device state.
  std::map<BlockIndex, Bytes> latest;
  for (auto& [seq, txn] : txns) {
    if (seq < checkpointed) {
      // Already durably checkpointed — deliberately retained history
      // (the Fig-2 leak experiment), never re-applied. Skipping is safe
      // for later device-based extents too: the device provably holds
      // this transaction's effects (or newer).
      ++replay_stats_.stale_txns;
      continue;
    }
    ++replay_stats_.committed_txns;
    for (RecoveredWrite& w : txn.writes) {
      Bytes reconstructed;
      const auto it = latest.find(w.block);
      if (it != latest.end()) {
        reconstructed = it->second;
      } else if (w.base == JournalWrite::kBaseZero) {
        reconstructed.assign(sb_.block_size, 0);
      } else {
        RGPD_RETURN_IF_ERROR(RetryIo(retry_, [&] {
          return device_.ReadBlock(w.block, reconstructed);
        }));
      }
      if (reconstructed.size() != sb_.block_size) {
        reconstructed.resize(sb_.block_size, 0);
      }
      std::size_t pos = 0;
      for (const auto& [off, len] : w.extents) {
        std::memcpy(reconstructed.data() + off, w.data.data() + pos, len);
        pos += len;
      }
      latest[w.block] = reconstructed;
      ReplayedWrite write;
      write.seq = seq;
      write.block = w.block;
      write.data = std::move(reconstructed);
      out.push_back(std::move(write));
    }
  }
  replay_stats_.replayed_writes = out.size();
  // Resume after the NEWEST record, stale or not. An older (already
  // checkpointed) transaction can sit at a higher block offset when the
  // newer one wrapped to the region start; resuming past the older one
  // would overwrite the newest records while leaving stale ones in the
  // region.
  sb_.journal_head = 0;
  if (!txns.empty()) {
    sb_.journal_head = txns.rbegin()->second.end_block;
    sb_.journal_seq = std::max(sb_.journal_seq, txns.rbegin()->first + 1);
  }
  return out;
}

Status Journal::Scrub() {
  // Nothing written since the last completed scrub (or Format): the
  // region holds no history, so no watermark needs to reach the medium.
  if (dirty_blocks_ == 0) return Status::Ok();
  RGPD_METRIC_COUNT("inodefs.journal.scrubs");
  RGPD_METRIC_SCOPED_LATENCY("inodefs.journal.scrub_latency_ns");
  // A scrub interrupted by a crash leaves a partially zeroed region: the
  // surviving tail records must never be replayed (they are the OLDEST
  // part of the history). Persist the watermark covering them first.
  RGPD_RETURN_IF_ERROR(PersistSuperblock());
  const Bytes zero(sb_.block_size, 0);
  std::vector<blockdev::BatchWrite> batch;
  batch.reserve(dirty_blocks_);
  for (std::uint64_t i = 0; i < dirty_blocks_; ++i) {
    batch.push_back(
        {sb_.journal_start + i, ByteSpan(zero.data(), zero.size())});
  }
  RGPD_RETURN_IF_ERROR(WriteBlocks(batch));
  // A cached journal block would keep the pre-scrub history readable;
  // drop it along with the on-medium bytes.
  for (const blockdev::BatchWrite& w : batch) device_.InvalidateCached(w.index);
  sb_.journal_head = 0;
  RGPD_RETURN_IF_ERROR(RetryIo(retry_, [&] { return device_.Flush(); }));
  // Only a durable zeroing shrinks the bound: after any failure above the
  // next scrub covers the same blocks again.
  dirty_blocks_ = 0;
  return Status::Ok();
}

}  // namespace rgpdos::inodefs

#include "inodefs/inode_store.hpp"

#include <algorithm>
#include <cstring>

#include "metrics/metrics.hpp"

namespace rgpdos::inodefs {

namespace {
/// Set or clear bit `bit` of a bitmap held as 64-bit words (bit b is bit
/// b % 64 of word b / 64): the block bitmap and the free-inode map.
void SetBit(std::vector<std::uint64_t>& words, std::uint64_t bit, bool set) {
  const std::uint64_t mask = std::uint64_t(1) << (bit % 64);
  if (set) {
    words[bit / 64] |= mask;
  } else {
    words[bit / 64] &= ~mask;
  }
}
}  // namespace

InodeStore::InodeStore(blockdev::BlockDevice* device, Superblock sb,
                       const Clock* clock, bool journal_enabled,
                       metrics::LockRank lock_rank,
                       const RetryPolicy& io_retry)
    : device_(device),
      sb_(sb),
      clock_(clock),
      journal_(*device, sb_),
      io_retry_(io_retry),
      journal_enabled_(journal_enabled),
      mu_(lock_rank, lock_rank == metrics::LockRank::kInodefsSensitive
                         ? "inodefs.store.sensitive"
                         : "inodefs.store") {
  journal_.set_retry_policy(io_retry_);
}

Status InodeStore::DevRead(BlockIndex index, Bytes& out) const {
  return RetryIo(io_retry_, [&] { return device_->ReadBlock(index, out); });
}

Status InodeStore::DevWrite(BlockIndex index, ByteSpan data) {
  return RetryIo(io_retry_, [&] { return device_->WriteBlock(index, data); });
}

Status InodeStore::DevFlush() {
  return RetryIo(io_retry_, [&] { return device_->Flush(); });
}

Status InodeStore::DevReadBatch(const std::vector<BlockIndex>& indexes,
                                std::vector<Bytes>& out) const {
  // Fast path: one amortised submission. On failure fall back to
  // per-block bounded retry — a whole-batch retry on transient-heavy
  // media re-runs EVERY block through the fault, so a batch wider than
  // the error period would fail all attempts.
  if (device_->ReadBatch(indexes, out).ok()) return Status::Ok();
  out.assign(indexes.size(), Bytes());
  for (std::size_t i = 0; i < indexes.size(); ++i) {
    RGPD_RETURN_IF_ERROR(DevRead(indexes[i], out[i]));
  }
  return Status::Ok();
}

Status InodeStore::DevWriteBatch(
    const std::vector<blockdev::BatchWrite>& writes) {
  // Every entry carries its full final image, so re-writing a torn
  // prefix is idempotent. Same degradation as DevReadBatch: batch once,
  // then per-block bounded retry if the submission failed.
  if (device_->WriteBatch(writes).ok()) return Status::Ok();
  for (const blockdev::BatchWrite& w : writes) {
    RGPD_RETURN_IF_ERROR(DevWrite(w.index, w.data));
  }
  return Status::Ok();
}

Status InodeStore::ReadBlockCoherent(BlockIndex index, Bytes& out) const {
  // group_depth_ > 0 implies the calling thread holds mu_ for the whole
  // scope, so the staging buffer is safe to read without further locking.
  if (group_depth_ > 0) {
    auto it = group_write_index_.find(index);
    if (it != group_write_index_.end()) {
      out = group_writes_[it->second].second;
      return Status::Ok();
    }
  }
  // Journal-committed but never checkpointed (crash_before_checkpoint_):
  // the logical image lives here, not on the medium, until Mount()
  // replays it. Serving it keeps extent preimages coherent with what
  // replay will reconstruct.
  if (!uncheckpointed_.empty()) {
    auto it = uncheckpointed_.find(index);
    if (it != uncheckpointed_.end()) {
      out = it->second;
      return Status::Ok();
    }
  }
  return DevRead(index, out);
}

Result<std::unique_ptr<InodeStore>> InodeStore::Format(
    blockdev::BlockDevice* device, const Options& options,
    const Clock* clock) {
  RGPD_ASSIGN_OR_RETURN(
      Superblock sb,
      Superblock::Plan(device->block_size(), device->block_count(),
                       options.inode_count, options.journal_blocks));

  std::unique_ptr<InodeStore> store(new InodeStore(
      device, sb, clock, options.journal_enabled, options.lock_rank,
      options.io_retry));

  // Zero metadata regions (bitmap + inode table + journal).
  const Bytes zero(sb.block_size, 0);
  for (BlockIndex b = sb.bitmap_start; b < sb.data_start; ++b) {
    RGPD_RETURN_IF_ERROR(store->DevWrite(b, zero));
  }
  store->journal_.MarkRegionZeroed();
  store->bitmap_.assign((sb.block_count + 63) / 64, 0);
  // Mark all metadata blocks (including block 0) as used.
  for (BlockIndex b = 0; b < sb.data_start; ++b) {
    SetBit(store->bitmap_, b, true);
  }
  store->alloc_hint_ = sb.data_start;
  store->inode_map_.assign((sb.inode_count + 63) / 64, 0);
  SetBit(store->inode_map_, kInvalidInode, true);

  RGPD_RETURN_IF_ERROR(store->Sync());
  return store;
}

Result<std::unique_ptr<InodeStore>> InodeStore::Mount(
    blockdev::BlockDevice* device, const Clock* clock,
    metrics::LockRank lock_rank, const RetryPolicy& io_retry) {
  RGPD_METRIC_COUNT("inodefs.recovery.mounts");
  RGPD_METRIC_SCOPED_LATENCY("inodefs.recovery.mount_latency_ns");
  Bytes sb_block;
  RGPD_RETURN_IF_ERROR(
      RetryIo(io_retry, [&] { return device->ReadBlock(0, sb_block); }));
  RGPD_ASSIGN_OR_RETURN(Superblock sb, Superblock::Decode(sb_block));
  if (sb.block_size != device->block_size() ||
      sb.block_count != device->block_count()) {
    return Corruption("superblock geometry does not match device");
  }

  std::unique_ptr<InodeStore> store(
      new InodeStore(device, sb, clock, /*journal_enabled=*/true, lock_rank,
                     io_retry));

  // Recover committed-but-uncheckpointed transactions. Torn or corrupt
  // records never leave the journal, so the in-place image only ever
  // moves between transaction boundaries.
  std::vector<ReplayedWrite> writes;
  {
    RGPD_METRIC_SCOPED_LATENCY("inodefs.recovery.replay_latency_ns");
    RGPD_ASSIGN_OR_RETURN(writes, store->journal_.Replay());
    if (!writes.empty()) {
      // One batched submission; writes stay in (seq, log position) order
      // so a later image of the same block lands last.
      std::vector<blockdev::BatchWrite> batch;
      batch.reserve(writes.size());
      for (const ReplayedWrite& w : writes) {
        batch.push_back({w.block, ByteSpan(w.data.data(), w.data.size())});
      }
      RGPD_RETURN_IF_ERROR(store->DevWriteBatch(batch));
      RGPD_RETURN_IF_ERROR(store->DevFlush());
    }
    // Every transaction the scan found is now either applied in place or
    // discarded for good (torn/corrupt/stale): advance the watermark
    // and persist it so a crash loop never re-applies or reverts.
    store->sb_.journal_checkpointed_seq = store->sb_.journal_seq;
    if (!writes.empty()) {
      Bytes sb_out;
      RGPD_RETURN_IF_ERROR(store->DevRead(0, sb_out));
      store->sb_.EncodeInto(sb_out);
      RGPD_RETURN_IF_ERROR(store->DevWrite(0, sb_out));
      RGPD_RETURN_IF_ERROR(store->DevFlush());
    }
  }
  store->recovery_.replay = store->journal_.last_replay();
  store->recovery_.checkpointed_blocks = writes.size();
  RGPD_METRIC_COUNT_N("inodefs.recovery.replayed_writes", writes.size());
  RGPD_METRIC_COUNT_N("inodefs.recovery.corrupt_records",
                      store->recovery_.replay.corrupt_records);
  RGPD_METRIC_COUNT_N("inodefs.recovery.stale_txns_skipped",
                      store->recovery_.replay.stale_txns);
  RGPD_RETURN_IF_ERROR(store->LoadBitmap());
  store->alloc_hint_ = store->sb_.data_start;
  RGPD_RETURN_IF_ERROR(store->LoadInodeMap());
  return store;
}

Status InodeStore::LoadBitmap() {
  bitmap_.assign((sb_.block_count + 63) / 64, 0);
  Bytes block;
  for (std::uint64_t i = 0; i < sb_.bitmap_blocks; ++i) {
    RGPD_RETURN_IF_ERROR(DevRead(sb_.bitmap_start + i, block));
    DecodeBitmapBlock(block, sb_.block_count, i, bitmap_);
  }
  return Status::Ok();
}

Status InodeStore::LoadInodeMap() {
  // Runs after replay, so the table holds every committed slot change.
  std::vector<BlockIndex> table(sb_.inode_table_blocks);
  for (std::uint64_t i = 0; i < table.size(); ++i) {
    table[i] = sb_.inode_table_start + i;
  }
  std::vector<Bytes> images;
  RGPD_RETURN_IF_ERROR(DevReadBatch(table, images));
  inode_map_.assign((sb_.inode_count + 63) / 64, 0);
  SetBit(inode_map_, kInvalidInode, true);
  for (InodeId id = 1; id < sb_.inode_count; ++id) {
    const Bytes& block = images[InodeBlock(id) - sb_.inode_table_start];
    RGPD_ASSIGN_OR_RETURN(
        Inode inode,
        Inode::Decode(ByteSpan(block.data() + InodeOffset(id),
                               kInodeDiskSize)));
    if (inode.kind != InodeKind::kFree) SetBit(inode_map_, id, true);
  }
  return Status::Ok();
}

Status InodeStore::Sync() {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  // Superblock: read-modify-write so the slot not being written keeps
  // the previous valid image (torn-write safety).
  Bytes sb_block;
  RGPD_RETURN_IF_ERROR(DevRead(0, sb_block));
  sb_block.resize(sb_.block_size, 0);
  sb_.EncodeInto(sb_block);
  // Superblock + bitmap (rebuilt from the in-memory copy) go out as one
  // batched submission, then a single barrier.
  std::vector<Bytes> images;
  images.reserve(1 + sb_.bitmap_blocks);
  std::vector<blockdev::BatchWrite> batch;
  batch.reserve(1 + sb_.bitmap_blocks);
  images.push_back(std::move(sb_block));
  for (std::uint64_t i = 0; i < sb_.bitmap_blocks; ++i) {
    images.push_back(
        EncodeBitmapBlock(bitmap_, sb_.block_count, sb_.block_size, i));
  }
  batch.push_back({0, ByteSpan(images[0].data(), images[0].size())});
  for (std::uint64_t i = 0; i < sb_.bitmap_blocks; ++i) {
    const Bytes& img = images[1 + i];
    batch.push_back({sb_.bitmap_start + i, ByteSpan(img.data(), img.size())});
  }
  RGPD_RETURN_IF_ERROR(DevWriteBatch(batch));
  return DevFlush();
}

// ---- Txn -------------------------------------------------------------------

namespace {
bool IsZero(const Bytes& data) {
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data.data() + i, 8);
    if (word != 0) return false;
  }
  for (; i < data.size(); ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}
}  // namespace

Result<Bytes> InodeStore::Txn::ReadBlock(BlockIndex index) {
  auto it = writes_.find(index);
  if (it != writes_.end()) return it->second;
  // A block read once is pinned; nothing else can change it while the
  // store mutex is held, so the pin is the current image.
  auto pin = preimages_.find(index);
  if (pin != preimages_.end() &&
      pin->second.base == JournalWrite::kBaseDevice) {
    return pin->second.data;
  }
  Bytes out;
  RGPD_METRIC_COUNT("inodefs.block.reads");
  RGPD_RETURN_IF_ERROR(store_.ReadBlockCoherent(index, out));
  // First touch: pin the pre-transaction image so Commit can journal
  // only the dirty ranges. If the image actually came from
  // the group staging buffer, the group's first-wins preimage merge
  // discards this entry in favour of the true on-device one.
  if (store_.journal_enabled_ &&
      preimages_.find(index) == preimages_.end()) {
    preimages_.emplace(index, Preimage{JournalWrite::kBaseDevice, out});
  }
  return out;
}

Status InodeStore::Txn::WriteBlock(BlockIndex index, Bytes data) {
  if (data.size() != store_.sb_.block_size) {
    return InvalidArgument("txn block write must be block-sized");
  }
  if (store_.journal_enabled_ && !Touched(index)) {
    // Blind first write. An all-zero image is the fresh-allocation
    // pattern (MapFileBlock zero-fills, FreeDataBlock scrubs): replaying
    // from a zero base reproduces it exactly and can never resurrect
    // stale device bytes. Anything else has no usable base and journals
    // in full.
    preimages_.emplace(
        index, Preimage{IsZero(data) ? JournalWrite::kBaseZero
                                     : JournalWrite::kBaseNone,
                        Bytes()});
  }
  writes_[index] = std::move(data);
  return Status::Ok();
}

Status InodeStore::Txn::Commit() {
  if (writes_.empty()) return Status::Ok();
  RGPD_METRIC_COUNT("inodefs.txn.commits");
  RGPD_METRIC_COUNT_N("inodefs.block.writes", writes_.size());
  RGPD_METRIC_SCOPED_LATENCY("inodefs.txn.commit_latency_ns");
  if (store_.journal_enabled_) {
    if (store_.group_depth_ > 0) {
      // Inside a GroupCommitScope: stage everything — journal copy AND
      // in-place writes — into the group buffer. Nothing reaches the
      // device until the scope's combined journal record commits
      // (write-ahead ordering); reads inside the scope observe the
      // staged blocks through ReadBlockCoherent.
      for (const auto& [block, data] : writes_) {
        auto pre = preimages_.find(block);
        store_.StageGroupWrite(
            block, data, pre == preimages_.end() ? nullptr : &pre->second);
      }
      writes_.clear();
      preimages_.clear();
      return Status::Ok();
    }
    std::vector<JournalWrite> log;
    log.reserve(writes_.size());
    for (const auto& [block, data] : writes_) {
      JournalWrite w;
      w.block = block;
      w.data = data;
      auto pre = preimages_.find(block);
      if (pre != preimages_.end()) {
        w.base = pre->second.base;
        if (w.base == JournalWrite::kBaseDevice) {
          w.preimage = pre->second.data;
        }
      }
      log.push_back(std::move(w));
    }
    RGPD_RETURN_IF_ERROR(store_.journal_.AppendTransaction(log));
  }
  if (store_.crash_before_checkpoint_) {
    // Simulated power loss after the journal commit: the in-place writes
    // never happen; Mount() must recover them. Keep the committed images
    // in the page-cache overlay so later transactions (and their extent
    // preimages) see the logical state replay will reconstruct.
    for (auto& [block, data] : writes_) {
      store_.uncheckpointed_[block] = std::move(data);
    }
    writes_.clear();
    preimages_.clear();
    return Status::Ok();
  }
  {
    std::vector<blockdev::BatchWrite> batch;
    batch.reserve(writes_.size());
    for (const auto& [block, data] : writes_) {
      batch.push_back({block, ByteSpan(data.data(), data.size())});
    }
    RGPD_RETURN_IF_ERROR(store_.DevWriteBatch(batch));
  }
  if (!store_.uncheckpointed_.empty()) {
    // The medium just caught up for these blocks; drop the stale overlay
    // images so reads fall through to the device again.
    for (const auto& [block, data] : writes_) {
      store_.uncheckpointed_.erase(block);
    }
  }
  writes_.clear();
  preimages_.clear();
  RGPD_RETURN_IF_ERROR(store_.DevFlush());
  if (store_.journal_enabled_) {
    // Every journaled transaction so far is now durably in place; move
    // the replay watermark past them (persisted lazily, before the next
    // journal wrap or scrub destroys their records).
    store_.sb_.journal_checkpointed_seq = store_.sb_.journal_seq;
  }
  return Status::Ok();
}

// ---- group commit ----------------------------------------------------------

void InodeStore::StageGroupWrite(BlockIndex block, const Bytes& data,
                                 const Preimage* preimage) {
  auto it = group_write_index_.find(block);
  if (it != group_write_index_.end()) {
    // Later write to the same block supersedes: replay applies the final
    // image either way, and the journal record stays minimal. The
    // preimage does NOT update — the group journals the diff against the
    // state before the whole group, which the first stager captured.
    group_writes_[it->second].second = data;
    return;
  }
  group_write_index_.emplace(block, group_writes_.size());
  group_writes_.emplace_back(block, data);
  group_preimages_.emplace(
      block, preimage != nullptr ? *preimage
                                 : Preimage{JournalWrite::kBaseNone, Bytes()});
}

InodeStore::GroupCommitScope::GroupCommitScope(InodeStore& store)
    : store_(store) {
  store_.mu_.lock();
  ++store_.group_depth_;
}

Status InodeStore::GroupCommitScope::Finish() {
  if (finished_) return Status::Ok();
  finished_ = true;
  Status status = Status::Ok();
  if (--store_.group_depth_ == 0) {
    if (store_.journal_enabled_ && !store_.group_writes_.empty()) {
      RGPD_METRIC_COUNT("inodefs.group_commit.flushes");
      RGPD_METRIC_COUNT_N("inodefs.group_commit.blocks",
                          store_.group_writes_.size());
      std::vector<JournalWrite> log;
      log.reserve(store_.group_writes_.size());
      for (const auto& [block, data] : store_.group_writes_) {
        JournalWrite w;
        w.block = block;
        w.data = data;
        auto pre = store_.group_preimages_.find(block);
        if (pre != store_.group_preimages_.end()) {
          w.base = pre->second.base;
          if (w.base == JournalWrite::kBaseDevice) {
            w.preimage = pre->second.data;
          }
        }
        log.push_back(std::move(w));
      }
      status = store_.journal_.AppendTransaction(log);
      // Checkpoint only after the journal record is durable: a crash up
      // to this point leaves the medium untouched by the group, a crash
      // after it is recovered by replay. Never before — checkpointing
      // first would expose a partially-applied group with no journal
      // record to finish it.
      if (status.ok() && !store_.crash_before_checkpoint_) {
        std::vector<blockdev::BatchWrite> batch;
        batch.reserve(store_.group_writes_.size());
        for (const auto& [block, data] : store_.group_writes_) {
          batch.push_back({block, ByteSpan(data.data(), data.size())});
        }
        status = store_.DevWriteBatch(batch);
        if (status.ok()) status = store_.DevFlush();
        if (status.ok()) {
          // As in Txn::Commit: the group is durably checkpointed, so its
          // journal record (and everything older) is replay-stale.
          store_.sb_.journal_checkpointed_seq = store_.sb_.journal_seq;
          if (!store_.uncheckpointed_.empty()) {
            for (const auto& [block, data] : store_.group_writes_) {
              store_.uncheckpointed_.erase(block);
            }
          }
        }
      } else if (status.ok()) {
        // Simulated power loss: the group's images stay off the medium
        // but remain visible through the page-cache overlay, as in
        // Txn::Commit.
        for (auto& [block, data] : store_.group_writes_) {
          store_.uncheckpointed_[block] = std::move(data);
        }
      }
    }
    store_.group_writes_.clear();
    store_.group_write_index_.clear();
    store_.group_preimages_.clear();
    // Only now may the map name the group's freed slots as free; if the
    // group did not commit, its allocations are free again instead.
    for (InodeId id : status.ok() ? store_.group_frees_
                                  : store_.group_allocs_) {
      SetBit(store_.inode_map_, id, false);
    }
    store_.group_allocs_.clear();
    store_.group_frees_.clear();
  }
  store_.mu_.unlock();
  return status;
}

InodeStore::GroupCommitScope::~GroupCommitScope() {
  const Status status = Finish();
  (void)status;  // early-exit path: the caller's error already propagates
}

// ---- bitmap ----------------------------------------------------------------

bool InodeStore::BitmapGet(BlockIndex block) const {
  return (bitmap_[block / 64] >> (block % 64)) & 1;
}

Status InodeStore::StageBitmapBlock(BlockIndex data_block, Txn& txn) {
  // Rebuild the single bitmap block covering `data_block` from memory.
  const std::uint64_t bits_per_block = std::uint64_t(sb_.block_size) * 8;
  const std::uint64_t bitmap_block = data_block / bits_per_block;
  const BlockIndex target = sb_.bitmap_start + bitmap_block;
  if (journal_enabled_ && !txn.Touched(target)) {
    // The rebuild below writes blind; without a pinned preimage an
    // alloc/free would journal the whole bitmap block every transaction.
    // Read it first so only the flipped bit's byte range gets logged.
    RGPD_RETURN_IF_ERROR(txn.ReadBlock(target).status());
  }
  return txn.WriteBlock(target, EncodeBitmapBlock(bitmap_, sb_.block_count,
                                                  sb_.block_size,
                                                  bitmap_block));
}

Result<BlockIndex> InodeStore::AllocDataBlock(Txn& txn) {
  const BlockIndex start = std::max<BlockIndex>(alloc_hint_, sb_.data_start);
  for (BlockIndex pass = 0; pass < 2; ++pass) {
    const BlockIndex from = pass == 0 ? start : sb_.data_start;
    const BlockIndex to = pass == 0 ? sb_.block_count : start;
    for (BlockIndex b = from; b < to; ++b) {
      if (!BitmapGet(b)) {
        SetBit(bitmap_, b, true);
        alloc_hint_ = b + 1;
        RGPD_RETURN_IF_ERROR(StageBitmapBlock(b, txn));
        return b;
      }
    }
  }
  return ResourceExhausted("no free data blocks");
}

Status InodeStore::FreeDataBlock(BlockIndex block, bool scrub, Txn& txn) {
  if (scrub) {
    // The zero image goes through the journal too, so the in-journal
    // history ends with zeros for this block.
    RGPD_RETURN_IF_ERROR(txn.WriteBlock(block, Bytes(sb_.block_size, 0)));
    // Purge any cached copy of the plaintext NOW, before the erasure is
    // acknowledged. The write-through zeros at commit would overwrite it
    // anyway; dropping the entry is belt and braces (and keeps freed
    // blocks from occupying cache capacity). We hold the store mutex, so
    // no reader of this store can re-fill the entry in between.
    device_->InvalidateCached(block);
  }
  SetBit(bitmap_, block, false);
  return StageBitmapBlock(block, txn);
}

// ---- inode table -----------------------------------------------------------

BlockIndex InodeStore::InodeBlock(InodeId id) const {
  const std::uint32_t per_block = sb_.block_size / kInodeDiskSize;
  return sb_.inode_table_start + id / per_block;
}

std::uint32_t InodeStore::InodeOffset(InodeId id) const {
  const std::uint32_t per_block = sb_.block_size / kInodeDiskSize;
  return (id % per_block) * kInodeDiskSize;
}

Status InodeStore::CheckId(InodeId id) const {
  if (id == kInvalidInode || id >= sb_.inode_count) {
    return InvalidArgument("inode id out of range");
  }
  return Status::Ok();
}

Result<Inode> InodeStore::LoadInode(InodeId id, Txn* txn) const {
  RGPD_RETURN_IF_ERROR(CheckId(id));
  Bytes block;
  if (txn != nullptr) {
    RGPD_ASSIGN_OR_RETURN(block, txn->ReadBlock(InodeBlock(id)));
  } else {
    RGPD_RETURN_IF_ERROR(ReadBlockCoherent(InodeBlock(id), block));
  }
  return Inode::Decode(
      ByteSpan(block.data() + InodeOffset(id), kInodeDiskSize));
}

Status InodeStore::StoreInode(InodeId id, const Inode& inode, Txn& txn) {
  RGPD_RETURN_IF_ERROR(CheckId(id));
  RGPD_ASSIGN_OR_RETURN(Bytes block, txn.ReadBlock(InodeBlock(id)));
  const Bytes image = inode.Encode();
  std::memcpy(block.data() + InodeOffset(id), image.data(), kInodeDiskSize);
  return txn.WriteBlock(InodeBlock(id), std::move(block));
}

InodeId InodeStore::NextFreeInode(InodeId from) const {
  // One word at a time: the lowest clear bit of a word is the lowest set
  // bit of its complement. Bits past inode_count stay clear, hence the
  // final bound check.
  for (std::size_t w = from / 64; w < inode_map_.size(); ++w) {
    std::uint64_t free_bits = ~inode_map_[w];
    if (w == from / 64) free_bits &= ~std::uint64_t(0) << (from % 64);
    if (free_bits != 0) {
      const std::uint64_t id = w * 64 + __builtin_ctzll(free_bits);
      return static_cast<InodeId>(
          std::min<std::uint64_t>(id, sb_.inode_count));
    }
  }
  return sb_.inode_count;
}

Result<InodeId> InodeStore::AllocInode(InodeKind kind) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  Txn txn(*this);
  // Lowest free slot, as a first-fit scan of the table would find it.
  // The slot is still decoded under the txn for its generation; one that
  // decodes live (a failed commit may have reached the medium after all)
  // is marked and skipped, as the scan skipped it.
  for (InodeId id = NextFreeInode(1); id < sb_.inode_count;
       id = NextFreeInode(id + 1)) {
    RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, &txn));
    if (inode.kind != InodeKind::kFree) {
      SetBit(inode_map_, id, true);
      continue;
    }
    const std::uint64_t generation = inode.generation + 1;
    inode = Inode{};
    inode.kind = kind;
    inode.nlink = 1;
    inode.generation = generation;
    inode.ctime = inode.mtime = clock_->Now();
    RGPD_RETURN_IF_ERROR(StoreInode(id, inode, txn));
    RGPD_RETURN_IF_ERROR(txn.Commit());
    SetBit(inode_map_, id, true);
    if (group_depth_ > 0) group_allocs_.push_back(id);
    return id;
  }
  return ResourceExhausted("inode table full");
}

Status InodeStore::FreeInode(InodeId id, bool scrub) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  RGPD_RETURN_IF_ERROR(Truncate(id, 0, scrub));
  Txn txn(*this);
  RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, &txn));
  const std::uint64_t generation = inode.generation;
  inode = Inode{};
  inode.kind = InodeKind::kFree;
  inode.generation = generation;
  RGPD_RETURN_IF_ERROR(StoreInode(id, inode, txn));
  RGPD_RETURN_IF_ERROR(txn.Commit());
  // Inside a scope the free is only staged: the slot stays used in the
  // map until the scope's Finish commits it.
  if (group_depth_ > 0) {
    group_frees_.push_back(id);
  } else {
    SetBit(inode_map_, id, false);
  }
  return Status::Ok();
}

Result<Inode> InodeStore::GetInode(InodeId id) const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  return LoadInode(id, nullptr);
}

// ---- file block mapping ------------------------------------------------------

std::uint64_t InodeStore::MaxFileSize() const {
  const std::uint64_t ppb = sb_.block_size / 8;
  return (kDirectBlocks + ppb + ppb * ppb) * std::uint64_t(sb_.block_size);
}

namespace {
BlockIndex ReadPointer(const Bytes& block, std::uint64_t slot) {
  BlockIndex v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t(block[slot * 8 + i]) << (8 * i);
  }
  return v;
}

void WritePointer(Bytes& block, std::uint64_t slot, BlockIndex value) {
  for (int i = 0; i < 8; ++i) {
    block[slot * 8 + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}
}  // namespace

Result<BlockIndex> InodeStore::MapFileBlock(Inode& inode,
                                            std::uint64_t file_block,
                                            bool allocate, Txn& txn) {
  const auto fresh_block = [&]() -> Result<BlockIndex> {
    RGPD_ASSIGN_OR_RETURN(BlockIndex b, AllocDataBlock(txn));
    // Fresh blocks start zeroed so short reads are well-defined.
    RGPD_RETURN_IF_ERROR(txn.WriteBlock(b, Bytes(sb_.block_size, 0)));
    return b;
  };

  if (file_block < kDirectBlocks) {
    if (inode.direct[file_block] == 0) {
      if (!allocate) return NotFound("file block not mapped");
      RGPD_ASSIGN_OR_RETURN(inode.direct[file_block], fresh_block());
    }
    return inode.direct[file_block];
  }

  const std::uint64_t ppb = sb_.block_size / 8;

  // Walk a pointer slot within an indirect block, allocating the pointee
  // on demand.
  const auto walk = [&](BlockIndex indirect_block_index,
                        std::uint64_t slot) -> Result<BlockIndex> {
    RGPD_ASSIGN_OR_RETURN(Bytes image, txn.ReadBlock(indirect_block_index));
    BlockIndex target = ReadPointer(image, slot);
    if (target == 0) {
      if (!allocate) return NotFound("file block not mapped");
      RGPD_ASSIGN_OR_RETURN(target, fresh_block());
      WritePointer(image, slot, target);
      RGPD_RETURN_IF_ERROR(
          txn.WriteBlock(indirect_block_index, std::move(image)));
    }
    return target;
  };

  const std::uint64_t single_slot = file_block - kDirectBlocks;
  if (single_slot < ppb) {
    if (inode.indirect == 0) {
      if (!allocate) return NotFound("file block not mapped");
      RGPD_ASSIGN_OR_RETURN(inode.indirect, fresh_block());
    }
    return walk(inode.indirect, single_slot);
  }

  const std::uint64_t double_slot = single_slot - ppb;
  if (double_slot >= ppb * ppb) {
    return OutOfRange("file exceeds double-indirect capacity");
  }
  if (inode.double_indirect == 0) {
    if (!allocate) return NotFound("file block not mapped");
    RGPD_ASSIGN_OR_RETURN(inode.double_indirect, fresh_block());
  }
  RGPD_ASSIGN_OR_RETURN(Bytes outer, txn.ReadBlock(inode.double_indirect));
  BlockIndex inner_index = ReadPointer(outer, double_slot / ppb);
  if (inner_index == 0) {
    if (!allocate) return NotFound("file block not mapped");
    RGPD_ASSIGN_OR_RETURN(inner_index, fresh_block());
    WritePointer(outer, double_slot / ppb, inner_index);
    RGPD_RETURN_IF_ERROR(
        txn.WriteBlock(inode.double_indirect, std::move(outer)));
  }
  return walk(inner_index, double_slot % ppb);
}

Result<std::vector<BlockIndex>> InodeStore::ListDataBlocks(
    const Inode& inode) const {
  std::vector<BlockIndex> out;
  const std::uint64_t ppb = sb_.block_size / 8;
  for (BlockIndex b : inode.direct) {
    if (b != 0) out.push_back(b);
  }
  const auto list_single = [&](BlockIndex indirect) -> Status {
    Bytes image;
    RGPD_RETURN_IF_ERROR(ReadBlockCoherent(indirect, image));
    for (std::uint64_t i = 0; i < ppb; ++i) {
      const BlockIndex b = ReadPointer(image, i);
      if (b != 0) out.push_back(b);
    }
    out.push_back(indirect);  // the indirect block itself, last
    return Status::Ok();
  };
  if (inode.indirect != 0) {
    RGPD_RETURN_IF_ERROR(list_single(inode.indirect));
  }
  if (inode.double_indirect != 0) {
    Bytes outer;
    RGPD_RETURN_IF_ERROR(ReadBlockCoherent(inode.double_indirect, outer));
    for (std::uint64_t i = 0; i < ppb; ++i) {
      const BlockIndex inner = ReadPointer(outer, i);
      if (inner != 0) {
        RGPD_RETURN_IF_ERROR(list_single(inner));
      }
    }
    out.push_back(inode.double_indirect);
  }
  return out;
}

// ---- content IO --------------------------------------------------------------

Result<Bytes> InodeStore::ReadRange(Inode inode, std::uint64_t offset,
                                    std::uint64_t length) const {
  if (inode.kind == InodeKind::kFree) {
    return NotFound("inode is free");
  }
  if (offset > inode.size) return OutOfRange("read past end of file");
  length = std::min(length, inode.size - offset);
  Bytes out;
  out.reserve(length);
  Bytes block;
  // Const read path: a throwaway txn gives MapFileBlock a uniform
  // interface; with allocate=false it never stages writes.
  Txn txn(*const_cast<InodeStore*>(this));
  while (length > 0) {
    const std::uint64_t file_block = offset / sb_.block_size;
    const std::uint32_t in_block = offset % sb_.block_size;
    const std::uint64_t take =
        std::min<std::uint64_t>(length, sb_.block_size - in_block);
    auto mapped = const_cast<InodeStore*>(this)->MapFileBlock(
        inode, file_block, /*allocate=*/false, txn);
    if (mapped.ok()) {
      RGPD_METRIC_COUNT("inodefs.block.reads");
      RGPD_RETURN_IF_ERROR(ReadBlockCoherent(*mapped, block));
      out.insert(out.end(), block.begin() + in_block,
                 block.begin() + in_block + take);
    } else {
      out.insert(out.end(), take, 0);  // hole reads as zeros
    }
    offset += take;
    length -= take;
  }
  return out;
}

Result<Bytes> InodeStore::ReadAt(InodeId id, std::uint64_t offset,
                                 std::uint64_t length) const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, nullptr));
  return ReadRange(std::move(inode), offset, length);
}

Result<Bytes> InodeStore::ReadAll(InodeId id) const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, nullptr));
  const std::uint64_t size = inode.size;
  return ReadRange(std::move(inode), 0, size);
}

std::vector<Result<Bytes>> InodeStore::ReadAllBatch(
    const std::vector<InodeId>& ids) const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  std::vector<Result<Bytes>> out;
  out.reserve(ids.size());
  if (group_depth_ > 0) {
    // Inside our own group scope staged blocks shadow the device; the
    // batched fast path below reads the device directly, so fall back to
    // the coherent per-id path.
    for (InodeId id : ids) out.push_back(ReadAll(id));
    return out;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.push_back(Internal("ReadAllBatch slot not filled"));
  }
  const auto fail_all = [&](const Status& status) {
    for (auto& slot : out) slot = status;
  };

  // Shared image cache across the rounds; batch_read fetches only blocks
  // not yet present, in one device submission.
  std::map<BlockIndex, Bytes> blocks;
  const auto batch_read = [&](const std::vector<BlockIndex>& want) -> Status {
    std::vector<BlockIndex> need;
    for (BlockIndex b : want) {
      if (blocks.emplace(b, Bytes()).second) need.push_back(b);
    }
    if (need.empty()) return Status::Ok();
    std::vector<Bytes> data;
    RGPD_RETURN_IF_ERROR(DevReadBatch(need, data));
    RGPD_METRIC_COUNT_N("inodefs.block.reads", need.size());
    for (std::size_t i = 0; i < need.size(); ++i) {
      blocks[need[i]] = std::move(data[i]);
    }
    return Status::Ok();
  };

  // Round 1: the (deduped) inode-table blocks of every valid id.
  std::vector<BlockIndex> round1;
  round1.reserve(ids.size());
  for (InodeId id : ids) {
    if (CheckId(id).ok()) round1.push_back(InodeBlock(id));
  }
  if (Status s = batch_read(round1); !s.ok()) {
    fail_all(s);
    return out;
  }

  struct Job {
    std::size_t slot = 0;
    Inode inode;
    std::uint64_t file_blocks = 0;
  };
  std::vector<Job> jobs;
  jobs.reserve(ids.size());
  const std::uint64_t ppb = sb_.block_size / 8;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (Status s = CheckId(ids[i]); !s.ok()) {
      out[i] = s;
      continue;
    }
    const Bytes& table = blocks[InodeBlock(ids[i])];
    auto inode = Inode::Decode(
        ByteSpan(table.data() + InodeOffset(ids[i]), kInodeDiskSize));
    if (!inode.ok()) {
      out[i] = inode.status();
      continue;
    }
    if (inode->kind == InodeKind::kFree) {
      out[i] = NotFound("inode is free");
      continue;
    }
    if (inode->size == 0) {
      out[i] = Bytes();
      continue;
    }
    Job job;
    job.slot = i;
    job.inode = *inode;
    job.file_blocks = (inode->size + sb_.block_size - 1) / sb_.block_size;
    jobs.push_back(std::move(job));
  }

  // Round 2: single-indirect and outer double-indirect blocks.
  std::vector<BlockIndex> round2;
  for (const Job& job : jobs) {
    if (job.inode.indirect != 0 && job.file_blocks > kDirectBlocks) {
      round2.push_back(job.inode.indirect);
    }
    if (job.inode.double_indirect != 0 &&
        job.file_blocks > kDirectBlocks + ppb) {
      round2.push_back(job.inode.double_indirect);
    }
  }
  if (Status s = batch_read(round2); !s.ok()) {
    fail_all(s);
    return out;
  }

  // Round 2b: inner double-indirect blocks actually referenced.
  std::vector<BlockIndex> round2b;
  for (const Job& job : jobs) {
    if (job.inode.double_indirect == 0 ||
        job.file_blocks <= kDirectBlocks + ppb) {
      continue;
    }
    const Bytes& outer = blocks[job.inode.double_indirect];
    const std::uint64_t double_blocks = job.file_blocks - kDirectBlocks - ppb;
    const std::uint64_t outer_slots = (double_blocks + ppb - 1) / ppb;
    for (std::uint64_t slot = 0; slot < std::min(outer_slots, ppb); ++slot) {
      const BlockIndex inner = ReadPointer(outer, slot);
      if (inner != 0) round2b.push_back(inner);
    }
  }
  if (Status s = batch_read(round2b); !s.ok()) {
    fail_all(s);
    return out;
  }

  // Resolve every file block to a device block (0 = hole) from the
  // cached indirect images, then fetch all data blocks in one round.
  const auto resolve = [&](const Job& job,
                           std::uint64_t file_block) -> BlockIndex {
    const Inode& inode = job.inode;
    if (file_block < kDirectBlocks) return inode.direct[file_block];
    const std::uint64_t single_slot = file_block - kDirectBlocks;
    if (single_slot < ppb) {
      if (inode.indirect == 0) return 0;
      return ReadPointer(blocks[inode.indirect], single_slot);
    }
    const std::uint64_t double_slot = single_slot - ppb;
    if (inode.double_indirect == 0 || double_slot >= ppb * ppb) return 0;
    const BlockIndex inner =
        ReadPointer(blocks[inode.double_indirect], double_slot / ppb);
    if (inner == 0) return 0;
    return ReadPointer(blocks[inner], double_slot % ppb);
  };

  std::vector<BlockIndex> round3;
  for (const Job& job : jobs) {
    for (std::uint64_t fb = 0; fb < job.file_blocks; ++fb) {
      const BlockIndex b = resolve(job, fb);
      if (b != 0) round3.push_back(b);
    }
  }
  if (Status s = batch_read(round3); !s.ok()) {
    fail_all(s);
    return out;
  }

  for (const Job& job : jobs) {
    Bytes content;
    content.reserve(job.inode.size);
    for (std::uint64_t fb = 0; fb < job.file_blocks; ++fb) {
      const BlockIndex b = resolve(job, fb);
      if (b == 0) {
        content.insert(content.end(), sb_.block_size, 0);  // hole
      } else {
        const Bytes& image = blocks[b];
        content.insert(content.end(), image.begin(), image.end());
      }
    }
    content.resize(job.inode.size);
    out[job.slot] = std::move(content);
  }
  return out;
}

Status InodeStore::WriteAt(InodeId id, std::uint64_t offset, ByteSpan data) {
  if (data.empty()) return Status::Ok();
  if (offset + data.size() > MaxFileSize()) {
    return OutOfRange("write exceeds maximum file size");
  }
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  Txn txn(*this);
  RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, &txn));
  if (inode.kind == InodeKind::kFree) return NotFound("inode is free");

  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint64_t file_block = pos / sb_.block_size;
    const std::uint32_t in_block = pos % sb_.block_size;
    const std::uint64_t take = std::min<std::uint64_t>(
        data.size() - consumed, sb_.block_size - in_block);
    RGPD_ASSIGN_OR_RETURN(BlockIndex device_block,
                          MapFileBlock(inode, file_block, true, txn));
    RGPD_ASSIGN_OR_RETURN(Bytes image, txn.ReadBlock(device_block));
    std::memcpy(image.data() + in_block, data.data() + consumed, take);
    RGPD_RETURN_IF_ERROR(txn.WriteBlock(device_block, std::move(image)));
    pos += take;
    consumed += take;
  }
  inode.size = std::max(inode.size, offset + data.size());
  inode.mtime = clock_->Now();
  RGPD_RETURN_IF_ERROR(StoreInode(id, inode, txn));
  return txn.Commit();
}

Status InodeStore::Append(InodeId id, ByteSpan data) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, nullptr));
  return WriteAt(id, inode.size, data);
}

Status InodeStore::WriteAll(InodeId id, ByteSpan data) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, nullptr));
  if (inode.size > data.size()) {
    RGPD_RETURN_IF_ERROR(Truncate(id, data.size(), /*scrub=*/false));
  }
  if (data.empty()) return Truncate(id, 0, /*scrub=*/false);
  return WriteAt(id, 0, data);
}

Status InodeStore::Truncate(InodeId id, std::uint64_t new_size, bool scrub) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  Txn txn(*this);
  RGPD_ASSIGN_OR_RETURN(Inode inode, LoadInode(id, &txn));
  if (inode.kind == InodeKind::kFree) return NotFound("inode is free");
  if (new_size >= inode.size) {
    inode.size = new_size;
    RGPD_RETURN_IF_ERROR(StoreInode(id, inode, txn));
    return txn.Commit();
  }

  const std::uint64_t keep_blocks =
      (new_size + sb_.block_size - 1) / sb_.block_size;
  const std::uint64_t ppb = sb_.block_size / 8;

  // Free direct blocks past the keep point.
  for (std::uint64_t i = keep_blocks; i < kDirectBlocks; ++i) {
    if (inode.direct[i] != 0) {
      RGPD_RETURN_IF_ERROR(FreeDataBlock(inode.direct[i], scrub, txn));
      inode.direct[i] = 0;
    }
  }

  // Free pointees past the keep point inside one indirect block whose
  // first pointee covers file block `base`. Returns true if any pointee
  // was kept (so the indirect block itself must stay).
  const auto prune_single = [&](BlockIndex indirect,
                                std::uint64_t base) -> Result<bool> {
    RGPD_ASSIGN_OR_RETURN(Bytes image, txn.ReadBlock(indirect));
    bool any_kept = false;
    bool dirty = false;
    for (std::uint64_t slot = 0; slot < ppb; ++slot) {
      const BlockIndex target = ReadPointer(image, slot);
      if (target == 0) continue;
      if (base + slot >= keep_blocks) {
        RGPD_RETURN_IF_ERROR(FreeDataBlock(target, scrub, txn));
        WritePointer(image, slot, 0);
        dirty = true;
      } else {
        any_kept = true;
      }
    }
    if (any_kept && dirty) {
      RGPD_RETURN_IF_ERROR(txn.WriteBlock(indirect, std::move(image)));
    }
    return any_kept;
  };

  if (inode.indirect != 0) {
    RGPD_ASSIGN_OR_RETURN(bool kept,
                          prune_single(inode.indirect, kDirectBlocks));
    if (!kept) {
      RGPD_RETURN_IF_ERROR(FreeDataBlock(inode.indirect, scrub, txn));
      inode.indirect = 0;
    }
  }
  if (inode.double_indirect != 0) {
    RGPD_ASSIGN_OR_RETURN(Bytes outer, txn.ReadBlock(inode.double_indirect));
    bool outer_kept = false;
    bool outer_dirty = false;
    for (std::uint64_t outer_slot = 0; outer_slot < ppb; ++outer_slot) {
      const BlockIndex inner = ReadPointer(outer, outer_slot);
      if (inner == 0) continue;
      const std::uint64_t base = kDirectBlocks + ppb + outer_slot * ppb;
      RGPD_ASSIGN_OR_RETURN(bool kept, prune_single(inner, base));
      if (kept) {
        outer_kept = true;
      } else {
        RGPD_RETURN_IF_ERROR(FreeDataBlock(inner, scrub, txn));
        WritePointer(outer, outer_slot, 0);
        outer_dirty = true;
      }
    }
    if (outer_kept) {
      if (outer_dirty) {
        RGPD_RETURN_IF_ERROR(
            txn.WriteBlock(inode.double_indirect, std::move(outer)));
      }
    } else {
      RGPD_RETURN_IF_ERROR(
          FreeDataBlock(inode.double_indirect, scrub, txn));
      inode.double_indirect = 0;
    }
  }
  // Always zero the partial tail of the last kept block: a later size
  // extension must read zeros there, not resurrected stale bytes (ext4
  // zeroes the tail on truncate for exactly this reason). Whole freed
  // blocks are only zeroed on the scrub path.
  if (new_size % sb_.block_size != 0) {
    const std::uint64_t last_block = new_size / sb_.block_size;
    auto mapped = MapFileBlock(inode, last_block, false, txn);
    if (mapped.ok()) {
      RGPD_ASSIGN_OR_RETURN(Bytes image, txn.ReadBlock(*mapped));
      std::fill(image.begin() +
                    static_cast<std::ptrdiff_t>(new_size % sb_.block_size),
                image.end(), 0);
      RGPD_RETURN_IF_ERROR(txn.WriteBlock(*mapped, std::move(image)));
    }
  }

  inode.size = new_size;
  inode.mtime = clock_->Now();
  RGPD_RETURN_IF_ERROR(StoreInode(id, inode, txn));
  return txn.Commit();
}

Status InodeStore::ScrubJournal() {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  return journal_.Scrub();
}

std::uint64_t InodeStore::FreeBlockCount() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  std::uint64_t used = 0;
  for (std::uint64_t word : bitmap_) {
    used += static_cast<std::uint64_t>(__builtin_popcountll(word));
  }
  return sb_.block_count - used;
}

std::uint64_t InodeStore::FreeInodeCount() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  std::uint64_t used = 0;
  for (std::uint64_t word : inode_map_) {
    used += static_cast<std::uint64_t>(__builtin_popcountll(word));
  }
  return sb_.inode_count - used;
}

}  // namespace rgpdos::inodefs

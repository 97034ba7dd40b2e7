// InodeStore and journal tests: format/mount, inode lifecycle, file IO
// across direct/indirect blocks, truncation and scrubbing, journal
// crash-recovery, and the leak semantics the Fig-2 experiment relies on.
#include <gtest/gtest.h>

#include "blockdev/block_device.hpp"
#include "common/crc32.hpp"
#include "inodefs/inode_store.hpp"

namespace rgpdos::inodefs {
namespace {

class InodeStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<blockdev::MemBlockDevice>(512, 2048);
    InodeStore::Options options;
    options.inode_count = 64;
    options.journal_blocks = 128;
    auto store = InodeStore::Format(device_.get(), options, &clock_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
  }

  Bytes Pattern(std::size_t n, std::uint8_t seed = 1) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(seed + i * 7);
    }
    return out;
  }

  SimClock clock_{1000};
  std::unique_ptr<blockdev::MemBlockDevice> device_;
  std::unique_ptr<InodeStore> store_;
};

TEST_F(InodeStoreTest, FormatLayoutIsSane) {
  const Superblock& sb = store_->superblock();
  EXPECT_EQ(sb.magic, kSuperblockMagic);
  EXPECT_EQ(sb.block_size, 512u);
  EXPECT_GT(sb.data_start, sb.journal_start);
  EXPECT_GT(sb.journal_start, sb.inode_table_start);
  EXPECT_GT(sb.inode_table_start, sb.bitmap_start);
  EXPECT_GT(store_->FreeBlockCount(), 0u);
}

TEST_F(InodeStoreTest, PlanRejectsBadGeometry) {
  EXPECT_FALSE(Superblock::Plan(100, 1024, 64, 16).ok());  // not pow2
  EXPECT_FALSE(Superblock::Plan(512, 10, 64, 16).ok());    // too small
  EXPECT_FALSE(Superblock::Plan(512, 1024, 0, 16).ok());   // no inodes
}

TEST_F(InodeStoreTest, InodeAllocFreeCycle) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  auto inode = store_->GetInode(*id);
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->kind, InodeKind::kFile);
  EXPECT_EQ(inode->size, 0u);
  EXPECT_EQ(inode->ctime, clock_.Now());

  ASSERT_TRUE(store_->FreeInode(*id, false).ok());
  auto freed = store_->GetInode(*id);
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(freed->kind, InodeKind::kFree);
  // Generation bumps on reuse so stale references are detectable.
  auto id2 = store_->AllocInode(InodeKind::kDirectory);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, *id);  // first-fit reuses the slot
  EXPECT_GT(store_->GetInode(*id2)->generation, inode->generation);
}

TEST_F(InodeStoreTest, InodeTableExhaustion) {
  std::vector<InodeId> ids;
  for (;;) {
    auto id = store_->AllocInode(InodeKind::kFile);
    if (!id.ok()) {
      EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    ids.push_back(*id);
  }
  EXPECT_EQ(ids.size(), 63u);  // inode 0 reserved
}

TEST_F(InodeStoreTest, WriteReadSmallFile) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const Bytes data = ToBytes("hello inode world");
  ASSERT_TRUE(store_->WriteAt(*id, 0, data).ok());
  EXPECT_EQ(*store_->ReadAll(*id), data);
  EXPECT_EQ(store_->GetInode(*id)->size, data.size());
}

TEST_F(InodeStoreTest, WriteAcrossDirectAndIndirectBlocks) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  // 12 direct blocks of 512 = 6144; write 20 KiB to force the indirect.
  const Bytes data = Pattern(20 * 1024);
  ASSERT_TRUE(store_->WriteAt(*id, 0, data).ok());
  EXPECT_EQ(*store_->ReadAll(*id), data);
  // Partial reads at unaligned offsets.
  EXPECT_EQ(*store_->ReadAt(*id, 6000, 1000),
            Bytes(data.begin() + 6000, data.begin() + 7000));
}

TEST_F(InodeStoreTest, SparseFileReadsZerosInHoles) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WriteAt(*id, 5000, ToBytes("tail")).ok());
  const Bytes content = *store_->ReadAll(*id);
  EXPECT_EQ(content.size(), 5004u);
  for (std::size_t i = 0; i < 5000; ++i) EXPECT_EQ(content[i], 0) << i;
}

TEST_F(InodeStoreTest, OverwriteInPlace) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WriteAt(*id, 0, ToBytes("aaaaaaaaaa")).ok());
  ASSERT_TRUE(store_->WriteAt(*id, 3, ToBytes("XYZ")).ok());
  EXPECT_EQ(ToString(*store_->ReadAll(*id)), "aaaXYZaaaa");
}

TEST_F(InodeStoreTest, WriteAllReplacesContent) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WriteAll(*id, Pattern(3000)).ok());
  ASSERT_TRUE(store_->WriteAll(*id, ToBytes("short")).ok());
  EXPECT_EQ(ToString(*store_->ReadAll(*id)), "short");
}

TEST_F(InodeStoreTest, TruncateFreesBlocks) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const std::uint64_t before = store_->FreeBlockCount();
  ASSERT_TRUE(store_->WriteAt(*id, 0, Pattern(10 * 1024)).ok());
  EXPECT_LT(store_->FreeBlockCount(), before);
  ASSERT_TRUE(store_->Truncate(*id, 0, false).ok());
  EXPECT_EQ(store_->FreeBlockCount(), before);
  EXPECT_EQ(store_->GetInode(*id)->size, 0u);
}

TEST_F(InodeStoreTest, PlainTruncateLeaksTheFreedBytes) {
  // ext4-like behaviour: freed blocks keep their contents.
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const Bytes secret = ToBytes("LEAKY_PLAINTEXT_PD");
  ASSERT_TRUE(store_->WriteAt(*id, 0, secret).ok());
  ASSERT_TRUE(store_->Truncate(*id, 0, /*scrub=*/false).ok());
  EXPECT_GT(blockdev::CountBlocksContaining(*device_, secret), 0u);
}

TEST_F(InodeStoreTest, ScrubbedTruncateThenJournalScrubDestroysAllBytes) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const Bytes secret = ToBytes("SCRUBBED_PLAINTEXT_PD");
  ASSERT_TRUE(store_->WriteAt(*id, 0, secret).ok());
  // Scrubbed truncate zeros the data region, but the journal still holds
  // the original write...
  ASSERT_TRUE(store_->Truncate(*id, 0, /*scrub=*/true).ok());
  EXPECT_GT(blockdev::CountBlocksContaining(*device_, secret), 0u);
  // ...until the journal itself is scrubbed (the rgpdOS erasure path).
  ASSERT_TRUE(store_->ScrubJournal().ok());
  EXPECT_EQ(blockdev::CountBlocksContaining(*device_, secret), 0u);
}

// ---- incremental journal scrub ---------------------------------------------
//
// A scrub zeroes only the region blocks written since the last completed
// scrub (or Format); the tests count raw device traffic to pin that, and
// scan the medium to pin that no history survives.

TEST_F(InodeStoreTest, ScrubWritesOnlyTheBlocksJournaledSinceFormat) {
  ASSERT_TRUE(store_->AllocInode(InodeKind::kFile).ok());
  const std::uint64_t record_blocks = store_->journal().bytes_logged() / 512;
  ASSERT_GT(record_blocks, 0u);
  ASSERT_EQ(store_->superblock().journal_head, record_blocks);

  const blockdev::DeviceStats before = device_->stats();
  ASSERT_TRUE(store_->ScrubJournal().ok());
  // The record's blocks plus the superblock watermark — not all 128
  // blocks of the region.
  EXPECT_EQ(device_->stats().writes - before.writes, record_blocks + 1);
  EXPECT_EQ(store_->superblock().journal_head, 0u);
}

TEST_F(InodeStoreTest, ScrubWithNothingJournaledSinceTouchesNoDevice) {
  // Format zeroed the region: there is no history to destroy yet.
  blockdev::DeviceStats before = device_->stats();
  ASSERT_TRUE(store_->ScrubJournal().ok());
  EXPECT_EQ(device_->stats().writes, before.writes);
  EXPECT_EQ(device_->stats().flushes, before.flushes);

  // Nor right after a scrub that destroyed a transaction's record.
  ASSERT_TRUE(store_->AllocInode(InodeKind::kFile).ok());
  ASSERT_TRUE(store_->ScrubJournal().ok());
  before = device_->stats();
  ASSERT_TRUE(store_->ScrubJournal().ok());
  EXPECT_EQ(device_->stats().writes, before.writes);
  EXPECT_EQ(device_->stats().flushes, before.flushes);
}

/// Leave `secret` only in a journal record that sits beyond the head
/// after a wrap: push the head a quarter into the region, journal the
/// secret and scrub its data block, then append until the head wraps
/// to below the secret's record.
void JournalSecretBeyondWrappedHead(InodeStore& store,
                                    blockdev::MemBlockDevice& device,
                                    const Bytes& secret) {
  auto filler = store.AllocInode(InodeKind::kFile);
  ASSERT_TRUE(filler.ok());
  std::uint8_t fill = 0;
  const auto append = [&] {
    return store.WriteAt(*filler, 0, Bytes(512, ++fill));
  };
  while (store.superblock().journal_head < 32) ASSERT_TRUE(append().ok());

  auto id = store.AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const std::uint64_t secret_record = store.superblock().journal_head;
  ASSERT_TRUE(store.WriteAt(*id, 0, secret).ok());
  ASSERT_TRUE(store.Truncate(*id, 0, /*scrub=*/true).ok());

  std::uint64_t head = store.superblock().journal_head;
  for (;;) {
    ASSERT_TRUE(append().ok());
    if (store.superblock().journal_head < head) break;  // wrapped
    head = store.superblock().journal_head;
  }
  ASSERT_LT(store.superblock().journal_head, secret_record);
  ASSERT_GT(blockdev::CountBlocksContaining(device, secret), 0u);
}

TEST_F(InodeStoreTest, ScrubAfterHeadWrapDestroysRecordsBeyondTheHead) {
  const Bytes secret = ToBytes("WRAPPED_JOURNAL_SECRET");
  ASSERT_NO_FATAL_FAILURE(
      JournalSecretBeyondWrappedHead(*store_, *device_, secret));
  ASSERT_TRUE(store_->ScrubJournal().ok());
  EXPECT_EQ(blockdev::CountBlocksContaining(*device_, secret), 0u);
}

TEST_F(InodeStoreTest, FirstScrubAfterMountCoversTheWholeRegion) {
  const Bytes secret = ToBytes("REMOUNTED_JOURNAL_SECRET");
  ASSERT_NO_FATAL_FAILURE(
      JournalSecretBeyondWrappedHead(*store_, *device_, secret));
  ASSERT_TRUE(store_->Sync().ok());
  store_.reset();

  // Replay resumes the head right after the newest record; the region
  // past it is not provably zero, so the first scrub must cover it all.
  auto mounted = InodeStore::Mount(device_.get(), &clock_);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  store_ = std::move(mounted).value();
  ASSERT_GT(blockdev::CountBlocksContaining(*device_, secret), 0u);
  ASSERT_TRUE(store_->ScrubJournal().ok());
  EXPECT_EQ(blockdev::CountBlocksContaining(*device_, secret), 0u);
}

TEST_F(InodeStoreTest, MountSeesPersistedState) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WriteAt(*id, 0, ToBytes("durable")).ok());
  ASSERT_TRUE(store_->Sync().ok());
  store_.reset();

  auto mounted = InodeStore::Mount(device_.get(), &clock_);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ(ToString(*(*mounted)->ReadAll(*id)), "durable");
}

TEST_F(InodeStoreTest, MountRejectsUnformattedDevice) {
  blockdev::MemBlockDevice fresh(512, 64);
  EXPECT_EQ(InodeStore::Mount(&fresh, &clock_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(InodeStoreTest, CrashBeforeCheckpointIsRecoveredFromJournal) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->Sync().ok());

  // Crash mode: the write reaches the journal but never the data region.
  store_->SetCrashBeforeCheckpoint(true);
  const Bytes data = ToBytes("committed but not checkpointed");
  ASSERT_TRUE(store_->WriteAt(*id, 0, data).ok());
  store_.reset();  // power loss

  auto recovered = InodeStore::Mount(device_.get(), &clock_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->ReadAll(*id), data);
}

TEST_F(InodeStoreTest, CrashedTransactionChainOnSameBlockReplaysCoherently) {
  // Two journal-only transactions rewrite the same block; the second must
  // diff against the first's committed image (the page-cache overlay),
  // not the stale medium. If it diffed against the medium, the second
  // record would encode zero extents here — the final write restores the
  // exact bytes the device still holds — and replay, which chains the
  // second record onto the first's reconstructed image, would leave the
  // intermediate state in place.
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const Bytes original = ToBytes("ORIGINAL_CONTENT");
  ASSERT_TRUE(store_->WriteAt(*id, 0, original).ok());
  ASSERT_TRUE(store_->Sync().ok());

  store_->SetCrashBeforeCheckpoint(true);
  ASSERT_TRUE(store_->WriteAt(*id, 0, Bytes(original.size(), 'Z')).ok());
  ASSERT_TRUE(store_->WriteAt(*id, 0, original).ok());
  store_.reset();  // power loss

  auto recovered = InodeStore::Mount(device_.get(), &clock_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->ReadAll(*id), original);
}

TEST_F(InodeStoreTest, TornTransactionIsDiscardedOnMount) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WriteAt(*id, 0, ToBytes("stable")).ok());
  ASSERT_TRUE(store_->Sync().ok());

  // Corrupt the journal tail: overwrite the last journal blocks with a
  // half-written record (valid magic, wrong CRC).
  const Superblock& sb = store_->superblock();
  Bytes garbage(sb.block_size, 0);
  garbage[0] = 0x4A;  // 'J'
  garbage[1] = 0x52;  // 'R'
  garbage[2] = 0x4E;  // 'N'
  garbage[3] = 0x4C;  // 'L'
  ASSERT_TRUE(
      device_->WriteBlock(sb.journal_start + sb.journal_blocks - 1, garbage)
          .ok());
  store_.reset();

  auto mounted = InodeStore::Mount(device_.get(), &clock_);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ(ToString(*(*mounted)->ReadAll(*id)), "stable");
}

TEST_F(InodeStoreTest, JournalDisabledStillWritesInPlace) {
  blockdev::MemBlockDevice device(512, 1024);
  InodeStore::Options options;
  options.inode_count = 16;
  options.journal_blocks = 8;
  options.journal_enabled = false;
  auto store = InodeStore::Format(&device, options, &clock_);
  ASSERT_TRUE(store.ok());
  auto id = (*store)->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*store)->WriteAt(*id, 0, ToBytes("no journal")).ok());
  EXPECT_EQ(ToString(*(*store)->ReadAll(*id)), "no journal");
  EXPECT_EQ((*store)->journal().bytes_logged(), 0u);
}

TEST_F(InodeStoreTest, MaxFileSizeIsEnforced) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const std::uint64_t ppb = 512 / 8;
  const std::uint64_t max = store_->MaxFileSize();
  EXPECT_EQ(max, (12 + ppb + ppb * ppb) * 512u);
  EXPECT_EQ(store_->WriteAt(*id, max, ToBytes("x")).code(),
            StatusCode::kOutOfRange);
}

TEST_F(InodeStoreTest, DoubleIndirectReadWriteAndReclaim) {
  // A file deep into the double-indirect region: write a few scattered
  // extents beyond direct+single capacity, read them back, then truncate
  // to zero and verify every block (incl. the indirect spine) returns.
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const std::uint64_t ppb = 512 / 8;
  const std::uint64_t single_capacity = (12 + ppb) * 512;
  const std::uint64_t free_before = store_->FreeBlockCount();

  const Bytes tail = ToBytes("DEEP_DOUBLE_INDIRECT_DATA");
  // Offsets straddling the single/double boundary and two inner blocks.
  const std::uint64_t offsets[] = {single_capacity - 10,
                                   single_capacity + 40,
                                   single_capacity + 512 * ppb + 7};
  for (std::uint64_t offset : offsets) {
    ASSERT_TRUE(store_->WriteAt(id.value(), offset, tail).ok()) << offset;
  }
  for (std::uint64_t offset : offsets) {
    auto content = store_->ReadAt(*id, offset, tail.size());
    ASSERT_TRUE(content.ok()) << offset;
    EXPECT_EQ(*content, tail) << offset;
  }
  // Holes in between read as zeros.
  auto hole = store_->ReadAt(*id, single_capacity + 512 * 3, 64);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(*hole, Bytes(64, 0));

  ASSERT_TRUE(store_->Truncate(*id, 0, /*scrub=*/false).ok());
  EXPECT_EQ(store_->FreeBlockCount(), free_before);
  EXPECT_EQ(store_->GetInode(*id)->indirect, 0u);
  EXPECT_EQ(store_->GetInode(*id)->double_indirect, 0u);
}

TEST_F(InodeStoreTest, TruncatePartialTailZeroesStaleBytes) {
  // Shrink into the middle of a block, then extend again: the regrown
  // range must read zeros, not the pre-truncate bytes.
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WriteAt(*id, 0, Bytes(400, 0xEE)).ok());
  ASSERT_TRUE(store_->Truncate(*id, 100, /*scrub=*/false).ok());
  ASSERT_TRUE(store_->WriteAt(*id, 300, ToBytes("x")).ok());
  auto content = store_->ReadAt(*id, 100, 200);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, Bytes(200, 0));
}

TEST_F(InodeStoreTest, JournalBytesLoggedGrows) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  const std::uint64_t before = store_->journal().bytes_logged();
  ASSERT_TRUE(store_->WriteAt(*id, 0, Pattern(2000)).ok());
  EXPECT_GT(store_->journal().bytes_logged(), before);
}

TEST_F(InodeStoreTest, ReadPastEndFails) {
  auto id = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WriteAt(*id, 0, ToBytes("abc")).ok());
  EXPECT_EQ(store_->ReadAt(*id, 10, 5).status().code(),
            StatusCode::kOutOfRange);
  // Reading exactly to the end is fine and clamps length.
  EXPECT_EQ(ToString(*store_->ReadAt(*id, 1, 100)), "bc");
}

TEST_F(InodeStoreTest, FreeInodeChecksRange) {
  EXPECT_EQ(store_->GetInode(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_->GetInode(9999).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- journal regression tests ----------------------------------------------
//
// Direct Journal-level scenarios with a tiny 8-block region where the
// geometry is exact: a one-write kBaseNone transaction is one extent
// record of 25 (header) + 11 (group) + 8 (extent) + 512 (data) + 4 (CRC)
// = 560 bytes, i.e. 2 blocks; each further full-block write adds 531.

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<blockdev::MemBlockDevice>(512, 2048);
    auto sb = Superblock::Plan(512, 2048, 16, 8);
    ASSERT_TRUE(sb.ok()) << sb.status().ToString();
    sb_ = *sb;
  }

  /// A full-block payload with a distinctive fill byte.
  Bytes Block(std::uint8_t fill) { return Bytes(512, fill); }

  std::unique_ptr<blockdev::MemBlockDevice> device_;
  Superblock sb_;
};

TEST_F(JournalTest, WrapResumeHeadTracksHighestSeqCommit) {
  Journal journal(*device_, sb_);
  const BlockIndex x = sb_.data_start;
  const BlockIndex y = sb_.data_start + 1;
  // A: blocks 0-1, B: 2-3, C: 4-5. D writes two blocks (3 record blocks),
  // does not fit in 6-7 and wraps to 0-2, clobbering A and B's head.
  ASSERT_TRUE(journal.AppendTransaction({{x, Block(0xA1), JournalWrite::kBaseNone, {}}}).ok());
  ASSERT_TRUE(journal.AppendTransaction({{y, Block(0xB1), JournalWrite::kBaseNone, {}}}).ok());
  ASSERT_TRUE(journal.AppendTransaction({{x, Block(0xC1), JournalWrite::kBaseNone, {}}}).ok());
  ASSERT_TRUE(journal
                  .AppendTransaction(
                      {{y, Block(0xD1), JournalWrite::kBaseNone, {}},
                       {x + 2, Block(0xD2), JournalWrite::kBaseNone, {}}})
                  .ok());
  ASSERT_EQ(sb_.journal_head, 3u);

  auto writes = journal.Replay();
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  // A and B are gone; C and D replay in seq order.
  ASSERT_EQ(writes->size(), 3u);
  EXPECT_EQ((*writes)[0].block, x);
  EXPECT_EQ((*writes)[0].data, Block(0xC1));
  EXPECT_EQ((*writes)[1].block, y);
  EXPECT_EQ((*writes)[1].data, Block(0xD1));
  EXPECT_EQ((*writes)[2].block, x + 2);
  EXPECT_EQ((*writes)[2].data, Block(0xD2));
  EXPECT_EQ(journal.last_replay().committed_txns, 2u);
  EXPECT_EQ(journal.last_replay().corrupt_records, 0u);
  // Regression (resume-head bug): the head must resume after D — the
  // HIGHEST-SEQ record, ending at region block 3 — not after C, whose
  // record ends at the higher block offset 6. Resuming at 6 would let
  // the next append overwrite D while C's stale record stayed
  // replayable.
  EXPECT_EQ(sb_.journal_head, 3u);
  EXPECT_EQ(sb_.journal_seq, 4u);
}

TEST_F(JournalTest, OversizedTransactionIsRefused) {
  Journal journal(*device_, sb_);
  const BlockIndex x = sb_.data_start;
  // 8 full-block writes = 25 + 8 * 531 + 4 = 4277 bytes = 9 blocks > the
  // 8-block region: committing this would wrap over the record's own
  // head mid-append.
  std::vector<JournalWrite> writes;
  for (std::uint8_t i = 0; i < 8; ++i) {
    writes.push_back({x + i, Block(i + 1), JournalWrite::kBaseNone, {}});
  }
  EXPECT_EQ(journal.AppendTransaction(writes).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(journal.bytes_logged(), 0u);
  // One write fewer (8 blocks) fits exactly.
  writes.pop_back();
  EXPECT_TRUE(journal.AppendTransaction(writes).ok());
}

TEST_F(JournalTest, StaleCheckpointedTxnsAreNotReplayed) {
  Journal journal(*device_, sb_);
  const BlockIndex x = sb_.data_start;
  // seq 0 writes "old" to X (blocks 0-1), seq 1 supersedes it with "new"
  // (blocks 2-3); both were checkpointed in place (watermark = 2).
  ASSERT_TRUE(journal.AppendTransaction({{x, Block(0x0D), JournalWrite::kBaseNone, {}}}).ok());
  ASSERT_TRUE(journal.AppendTransaction({{x, Block(0x9E), JournalWrite::kBaseNone, {}}}).ok());
  ASSERT_TRUE(device_->WriteBlock(x, Block(0x9E)).ok());
  sb_.journal_checkpointed_seq = 2;
  // Destroy seq 1's record (an interrupted scrub or a later wrap): only
  // the STALE seq-0 transaction survives in the region.
  const Bytes zero(512, 0);
  for (std::uint64_t b = 2; b < 4; ++b) {
    ASSERT_TRUE(device_->WriteBlock(sb_.journal_start + b, zero).ok());
  }

  auto writes = journal.Replay();
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  // Regression (stale-replay reversion bug): re-applying the surviving
  // seq-0 record would revert X from "new" back to "old" even though
  // both transactions were already durably in place.
  EXPECT_TRUE(writes->empty());
  EXPECT_EQ(journal.last_replay().stale_txns, 1u);
  Bytes in_place;
  ASSERT_TRUE(device_->ReadBlock(x, in_place).ok());
  EXPECT_EQ(in_place, Block(0x9E));
}

// ---- extent (physiological) journal tests ----------------------------------

/// Byte-identical clone of Journal::BuildRecord for hand-crafting
/// records the encoder itself would never emit (framing-violation
/// tests need a VALID CRC over INVALID framing).
Bytes CraftRecord(const Superblock& sb, std::uint64_t seq, std::uint8_t kind,
                  std::uint64_t target, const Bytes& payload) {
  constexpr std::uint32_t kMagic = 0x4C4E524A;
  constexpr std::size_t kHeaderSize = 4 + 8 + 1 + 8 + 4;
  ByteWriter w(kHeaderSize + payload.size() + 4);
  w.PutU32(kMagic);
  w.PutU64(seq);
  w.PutU8(kind);
  w.PutU64(target);
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutRaw(ByteSpan(payload.data(), payload.size()));
  w.PutU32(Crc32(w.buffer()));
  Bytes image = w.Take();
  const std::size_t blocks =
      (kHeaderSize + payload.size() + 4 + sb.block_size - 1) / sb.block_size;
  image.resize(blocks * sb.block_size, 0);
  return image;
}

TEST_F(JournalTest, ExtentRecordLogsOnlyDirtyRanges) {
  Journal journal(*device_, sb_);
  const BlockIndex x = sb_.data_start;
  // The device holds the preimage; the transaction changes 4 bytes.
  Bytes preimage = Block(0x55);
  ASSERT_TRUE(device_->WriteBlock(x, preimage).ok());
  Bytes after = preimage;
  for (std::size_t i = 100; i < 104; ++i) after[i] = 0xEE;
  ASSERT_TRUE(journal
                  .AppendTransaction(
                      {{x, after, JournalWrite::kBaseDevice, preimage}})
                  .ok());
  // A 4-byte dirty run journals one block (header + one tiny extent),
  // not the 2 blocks a full-image extent needs.
  EXPECT_EQ(journal.bytes_logged(), 512u);

  auto writes = journal.Replay();
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  // Replay read-modify-writes the device preimage back to a full image.
  ASSERT_EQ(writes->size(), 1u);
  EXPECT_EQ((*writes)[0].block, x);
  EXPECT_EQ((*writes)[0].data, after);
  EXPECT_EQ(journal.last_replay().committed_txns, 1u);
}

TEST_F(JournalTest, TornExtentRecordDiscardsWholeTransaction) {
  Journal journal(*device_, sb_);
  const BlockIndex x = sb_.data_start;
  Bytes a = Block(0);
  a[0] = 1;
  Bytes b = Block(0);
  b[0] = 2;
  ASSERT_TRUE(journal
                  .AppendTransaction(
                      {{x, a, JournalWrite::kBaseZero, {}},
                       {x + 1, b, JournalWrite::kBaseZero, {}}})
                  .ok());
  // Tear one byte of the (single, self-committing) record: the CRC is
  // the commit, so BOTH block writes must vanish — replaying either half
  // would be the partially-applied state journaling exists to prevent.
  Bytes record;
  ASSERT_TRUE(device_->ReadBlock(sb_.journal_start, record).ok());
  record[40] ^= 0xFF;
  ASSERT_TRUE(device_->WriteBlock(sb_.journal_start, record).ok());

  auto writes = journal.Replay();
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_TRUE(writes->empty());
  EXPECT_EQ(journal.last_replay().corrupt_records, 1u);
  EXPECT_EQ(journal.last_replay().committed_txns, 0u);
}

TEST_F(JournalTest, OversizedExtentIsRejectedNotApplied) {
  Journal journal(*device_, sb_);
  const BlockIndex x = sb_.data_start;
  Bytes sentinel;
  ASSERT_TRUE(device_->ReadBlock(x, sentinel).ok());
  // Hand-craft a record whose CRC is valid but whose one extent claims
  // offset 300 + len 300 > the 512-byte block: replay must refuse the
  // whole record (memcpy'ing it would run off the image) and count it
  // corrupt rather than guess.
  ByteWriter payload(32);
  payload.PutU64(x);
  payload.PutU8(JournalWrite::kBaseZero);
  payload.PutU16(1);
  payload.PutU32(300);  // offset
  payload.PutU32(300);  // len: off + len = 600 > block_size
  payload.PutRaw(ByteSpan(Bytes(300, 0xEE).data(), 300));
  const Bytes image =
      CraftRecord(sb_, /*seq=*/0, /*kind=*/3, /*target=*/1, payload.Take());
  for (std::size_t i = 0; i * sb_.block_size < image.size(); ++i) {
    ASSERT_TRUE(device_
                    ->WriteBlock(sb_.journal_start + i,
                                 Bytes(image.begin() + i * sb_.block_size,
                                       image.begin() + (i + 1) * sb_.block_size))
                    .ok());
  }
  sb_.journal_seq = 1;

  auto writes = journal.Replay();
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_TRUE(writes->empty());
  EXPECT_EQ(journal.last_replay().corrupt_records, 1u);
  Bytes now;
  ASSERT_TRUE(device_->ReadBlock(x, now).ok());
  EXPECT_EQ(now, sentinel);  // the target block was never touched
}

TEST_F(JournalTest, ZeroLengthExtentIsRejected) {
  Journal journal(*device_, sb_);
  ByteWriter payload(16);
  payload.PutU64(sb_.data_start);
  payload.PutU8(JournalWrite::kBaseZero);
  payload.PutU16(1);
  payload.PutU32(0);
  payload.PutU32(0);  // len == 0: framing violation
  const Bytes image =
      CraftRecord(sb_, /*seq=*/0, /*kind=*/3, /*target=*/1, payload.Take());
  ASSERT_TRUE(device_
                  ->WriteBlock(sb_.journal_start,
                               Bytes(image.begin(), image.begin() + 512))
                  .ok());
  sb_.journal_seq = 1;

  auto writes = journal.Replay();
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_TRUE(writes->empty());
  EXPECT_EQ(journal.last_replay().corrupt_records, 1u);
}

TEST_F(JournalTest, UnknownRecordKindIsCountedCorruptNotApplied) {
  Journal journal(*device_, sb_);
  const BlockIndex x = sb_.data_start;
  Bytes sentinel;
  ASSERT_TRUE(device_->ReadBlock(x, sentinel).ok());
  // Two CRC-valid records of kinds the journal never writes: kind 1 (a
  // whole-block data record of the retired format: target = block,
  // payload = full image) and kind 9, carrying a well-formed extent
  // group — so only the kind can be what rejects it.
  ByteWriter group(32);
  group.PutU64(x);
  group.PutU8(JournalWrite::kBaseZero);
  group.PutU16(1);
  group.PutU32(0);
  group.PutU32(4);
  group.PutRaw(ByteSpan(Bytes(4, 0xEE).data(), 4));
  Bytes region = CraftRecord(sb_, /*seq=*/0, /*kind=*/1, /*target=*/x,
                             Block(0xA1));
  const Bytes unknown =
      CraftRecord(sb_, /*seq=*/1, /*kind=*/9, /*target=*/1, group.Take());
  region.insert(region.end(), unknown.begin(), unknown.end());
  for (std::size_t i = 0; i * sb_.block_size < region.size(); ++i) {
    ASSERT_TRUE(device_
                    ->WriteBlock(sb_.journal_start + i,
                                 Bytes(region.begin() + i * sb_.block_size,
                                       region.begin() +
                                           (i + 1) * sb_.block_size))
                    .ok());
  }
  sb_.journal_seq = 2;

  auto writes = journal.Replay();
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_TRUE(writes->empty());
  EXPECT_EQ(journal.last_replay().corrupt_records, 2u);
  EXPECT_EQ(journal.last_replay().committed_txns, 0u);
  Bytes now;
  ASSERT_TRUE(device_->ReadBlock(x, now).ok());
  EXPECT_EQ(now, sentinel);
}

TEST_F(JournalTest, SuperblockSurvivesTornWrite) {
  Bytes block(512, 0);
  sb_.journal_seq = 7;
  sb_.EncodeInto(block);  // version 1 -> slot 1
  sb_.journal_seq = 9;
  sb_.EncodeInto(block);  // version 2 -> slot 0
  auto newest = Superblock::Decode(block);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest->journal_seq, 9u);

  // Tear the slot written last: Decode must fall back to the previous
  // valid image instead of refusing to mount.
  Bytes torn = block;
  torn[10] ^= 0xFF;
  auto fallback = Superblock::Decode(torn);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->journal_seq, 7u);

  // Both slots destroyed -> corruption.
  torn[kSuperblockSlotSize + 10] ^= 0xFF;
  EXPECT_EQ(Superblock::Decode(torn).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace rgpdos::inodefs

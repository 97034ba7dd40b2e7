// InodeStore and journal tests: format/mount, inode lifecycle and the
// free-inode map, file IO across direct/indirect blocks, truncation and
// scrubbing, journal crash-recovery, the word-wise bitmap and extent
// encoders, and the leak semantics the Fig-2 experiment relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "blockdev/fault_injection.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "inodefs/inode_store.hpp"
#include "metrics/metrics.hpp"

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

// ---- free-inode map ----------------------------------------------------------
//
// AllocInode takes the lowest clear bit of an in-memory map instead of
// scanning the inode table. The reference below is that scan, made
// through the public GetInode.

/// Lowest free slot by a full table scan (kInvalidInode if none).
InodeId FirstFreeByScan(const InodeStore& store) {
  for (InodeId id = 1; id < store.superblock().inode_count; ++id) {
    auto inode = store.GetInode(id);
    if (inode.ok() && inode->kind == InodeKind::kFree) return id;
  }
  return kInvalidInode;
}

std::uint64_t FreeCountByScan(const InodeStore& store) {
  std::uint64_t count = 0;
  for (InodeId id = 1; id < store.superblock().inode_count; ++id) {
    auto inode = store.GetInode(id);
    if (inode.ok() && inode->kind == InodeKind::kFree) ++count;
  }
  return count;
}

TEST_F(InodeStoreTest, AllocMatchesFirstFitScanAcrossScopesAndRemount) {
  Rng rng(Rng::StreamSeed(24, 0x1D));
  std::vector<InodeId> live;
  const auto alloc_checked = [&] {
    const InodeId expected = FirstFreeByScan(*store_);
    auto id = store_->AllocInode(InodeKind::kFile);
    if (expected == kInvalidInode) {
      ASSERT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      return;
    }
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(*id, expected);
    live.push_back(*id);
  };
  const auto free_random = [&] {
    if (live.empty()) return;
    const std::size_t k = rng.NextBelow(live.size());
    ASSERT_TRUE(store_->FreeInode(live[k], /*scrub=*/rng.NextBool()).ok());
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
  };
  for (int step = 0; step < 400; ++step) {
    if (step == 200) {
      ASSERT_TRUE(store_->Sync().ok());
      store_.reset();
      auto mounted = InodeStore::Mount(device_.get(), &clock_);
      ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
      store_ = std::move(mounted).value();
      ASSERT_EQ(store_->FreeInodeCount(), FreeCountByScan(*store_));
    }
    const std::uint64_t dice = rng.NextBelow(10);
    if (dice < 5) {
      ASSERT_NO_FATAL_FAILURE(alloc_checked());
    } else if (dice < 8) {
      ASSERT_NO_FATAL_FAILURE(free_random());
    } else {
      // A group: allocations first (the scan sees the group's own staged
      // slots, as AllocInode does), then frees.
      InodeStore::GroupCommitScope scope(*store_);
      for (std::uint64_t n = rng.NextBelow(3); n > 0; --n) {
        ASSERT_NO_FATAL_FAILURE(alloc_checked());
      }
      for (std::uint64_t n = rng.NextBelow(4); n > 0; --n) {
        ASSERT_NO_FATAL_FAILURE(free_random());
      }
      ASSERT_TRUE(scope.Finish().ok());
    }
    ASSERT_EQ(store_->FreeInodeCount(), FreeCountByScan(*store_))
        << "step " << step;
  }
}

TEST_F(InodeStoreTest, SlotFreedInScopeIsNotReusedBeforeFinish) {
  auto a = store_->AllocInode(InodeKind::kFile);
  auto b = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::uint64_t free_before = store_->FreeInodeCount();
  {
    InodeStore::GroupCommitScope scope(*store_);
    ASSERT_TRUE(store_->FreeInode(*a, /*scrub=*/false).ok());
    // The free is only staged: a crash now would leave `a` live.
    EXPECT_EQ(store_->FreeInodeCount(), free_before);
    auto c = store_->AllocInode(InodeKind::kFile);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(*c, *a);
    EXPECT_EQ(*c, *b + 1);
    ASSERT_TRUE(scope.Finish().ok());
  }
  EXPECT_EQ(store_->FreeInodeCount(), free_before);  // -c +a
  auto d = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, *a);
}

TEST_F(InodeStoreTest, FailedGroupHandsItsAllocationsOutAgain) {
  auto first = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(store_->Sync().ok());
  store_.reset();
  // Remount through a device that loses power on its first write: with
  // nothing to replay, that is the group's journal record. No retries,
  // so the failure reaches Finish.
  blockdev::FaultPlan plan;
  plan.crash_at_write = 1;
  blockdev::FaultInjectingBlockDevice faulty(device_.get(), plan);
  auto mounted = InodeStore::Mount(&faulty, &clock_,
                                   metrics::LockRank::kInodefs,
                                   RetryPolicy::None());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  store_ = std::move(mounted).value();
  const std::uint64_t free_before = store_->FreeInodeCount();

  std::vector<InodeId> staged;
  {
    InodeStore::GroupCommitScope scope(*store_);
    for (int i = 0; i < 3; ++i) {
      auto id = store_->AllocInode(InodeKind::kFile);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      staged.push_back(*id);
    }
    EXPECT_EQ(scope.Finish().code(), StatusCode::kCrashed);
  }
  EXPECT_EQ(store_->FreeInodeCount(), free_before);
  faulty.PowerCycle();
  for (InodeId expected : staged) {
    auto id = store_->AllocInode(InodeKind::kFile);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, expected);
  }
  EXPECT_EQ(store_->FreeInodeCount(), FreeCountByScan(*store_));
}

TEST_F(InodeStoreTest, MountRebuildsTheInodeMapFromReplayedSlots) {
  std::vector<InodeId> ids;
  for (int i = 0; i < 10; ++i) {
    auto id = store_->AllocInode(InodeKind::kFile);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(store_->FreeInode(ids[2], /*scrub=*/false).ok());
  ASSERT_TRUE(store_->Sync().ok());
  // Journal-only from here: the table on the medium misses these changes
  // until replay applies them.
  store_->SetCrashBeforeCheckpoint(true);
  ASSERT_TRUE(store_->FreeInode(ids[5], /*scrub=*/false).ok());
  ASSERT_TRUE(store_->AllocInode(InodeKind::kDirectory).ok());  // ids[2]
  ASSERT_TRUE(store_->AllocInode(InodeKind::kDirectory).ok());  // ids[5]
  ASSERT_TRUE(store_->AllocInode(InodeKind::kDirectory).ok());  // fresh
  ASSERT_TRUE(store_->FreeInode(ids[7], /*scrub=*/false).ok());
  const std::uint64_t free_at_crash = store_->FreeInodeCount();
  store_.reset();  // power loss

  auto mounted = InodeStore::Mount(device_.get(), &clock_);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  store_ = std::move(mounted).value();
  EXPECT_EQ(store_->FreeInodeCount(), FreeCountByScan(*store_));
  EXPECT_EQ(store_->FreeInodeCount(), free_at_crash);
  auto next = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, ids[7]);
}

TEST_F(InodeStoreTest, MountRejectsAnUnknownInodeKind) {
  ASSERT_TRUE(store_->AllocInode(InodeKind::kFile).ok());
  ASSERT_TRUE(store_->Sync().ok());
  const Superblock sb = store_->superblock();
  store_.reset();
  // Slot 5's first byte is its kind; one past the last kind is invalid.
  const InodeId slot = 5;
  const std::uint32_t per_block = sb.block_size / kInodeDiskSize;
  const BlockIndex block = sb.inode_table_start + slot / per_block;
  Bytes image;
  ASSERT_TRUE(device_->ReadBlock(block, image).ok());
  image[(slot % per_block) * kInodeDiskSize] =
      static_cast<std::uint8_t>(InodeKind::kFormatHint) + 1;
  ASSERT_TRUE(device_->WriteBlock(block, image).ok());
  EXPECT_EQ(InodeStore::Mount(device_.get(), &clock_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(InodeStoreTest, MountUnderTransientErrorsRebuildsTheInodeMap) {
  std::vector<InodeId> ids;
  for (int i = 0; i < 40; ++i) {
    auto id = store_->AllocInode(InodeKind::kFile);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (std::size_t i = 3; i < ids.size(); i += 4) {
    ASSERT_TRUE(store_->FreeInode(ids[i], /*scrub=*/false).ok());
  }
  ASSERT_TRUE(store_->WriteAll(ids[0], Pattern(1500)).ok());
  ASSERT_TRUE(store_->Sync().ok());
  // Slot changes that only replay puts on the medium.
  store_->SetCrashBeforeCheckpoint(true);
  ASSERT_TRUE(store_->FreeInode(ids[1], /*scrub=*/false).ok());
  ASSERT_TRUE(store_->AllocInode(InodeKind::kDirectory).ok());  // ids[1]
  ASSERT_TRUE(store_->FreeInode(ids[2], /*scrub=*/false).ok());
  const std::uint64_t free_at_crash = store_->FreeInodeCount();
  const Superblock sb = store_->superblock();
  store_.reset();  // power loss

  // Every fifth read or write fails once and the default policy retries
  // it. The inode table spans more blocks than that, so Mount's batched
  // read of it meets the schedule and must fall back to per-block reads.
  blockdev::FaultPlan plan;
  plan.transient_error_every = 5;
  ASSERT_GE(sb.inode_table_blocks, plan.transient_error_every);
  blockdev::FaultInjectingBlockDevice faulty(device_.get(), plan);
  auto mounted = InodeStore::Mount(&faulty, &clock_);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  store_ = std::move(mounted).value();
  EXPECT_GT(faulty.fault_stats().transient_errors, 0u);
  EXPECT_EQ(store_->FreeInodeCount(), free_at_crash);
  EXPECT_EQ(store_->FreeInodeCount(), FreeCountByScan(*store_));
  const InodeId first_fit = FirstFreeByScan(*store_);
  EXPECT_EQ(first_fit, ids[2]);
  auto next = store_->AllocInode(InodeKind::kFile);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, first_fit);
}

/// inodefs.block.reads of the allocation that follows the reuse of a
/// freed low slot, with `live_above` live slots above it.
std::uint64_t AllocReadsAboveReusedSlot(std::uint32_t live_above) {
  SimClock clock(1000);
  blockdev::MemBlockDevice device(4096, 1024);
  InodeStore::Options options;
  options.inode_count = 4100;
  options.journal_blocks = 64;
  auto store = InodeStore::Format(&device, options, &clock);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return 0;
  InodeStore& s = **store;
  const InodeId low = *s.AllocInode(InodeKind::kFile);
  for (std::uint32_t i = 0; i < live_above; ++i) {
    EXPECT_TRUE(s.AllocInode(InodeKind::kFile).ok());
  }
  EXPECT_TRUE(s.FreeInode(low, /*scrub=*/false).ok());
  EXPECT_EQ(*s.AllocInode(InodeKind::kFile), low);
  metrics::Counter& reads =
      metrics::MetricsRegistry::Instance().GetCounter("inodefs.block.reads");
  const std::uint64_t before = reads.Value();
  auto id = s.AllocInode(InodeKind::kFile);
  const std::uint64_t after = reads.Value();
  EXPECT_TRUE(id.ok());
  EXPECT_EQ(*id, low + live_above + 1);
  return after - before;
}

TEST(InodeMapTest, AllocationReadsDoNotGrowWithLiveSlotsAboveAReusedSlot) {
  const std::uint64_t few = AllocReadsAboveReusedSlot(4);
  const std::uint64_t many = AllocReadsAboveReusedSlot(4000);
  EXPECT_EQ(few, many);
  // One read of the slot's inode-table block (when metrics are on).
  EXPECT_LE(many, 1u);
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

// ---- word-wise encoders ------------------------------------------------------
//
// The bitmap images and the extent diff work a word at a time; each must
// produce exactly what its byte-at-a-time definition below produces.

TEST(BitmapEncodingTest, WordWiseImageMatchesBitByBitReference) {
  constexpr std::uint32_t kBlockSize = 512;
  constexpr std::uint64_t kBitsPerBlock = kBlockSize * 8;
  // Three blocks, the last one partial, and a tail word only half used.
  constexpr std::uint64_t kBitCount = 2 * kBitsPerBlock + 1000 + 37;
  Rng rng(Rng::StreamSeed(24, 0xB17));
  std::vector<std::uint64_t> words((kBitCount + 63) / 64);
  for (std::uint64_t& w : words) w = rng.NextU64();  // tail bits set too
  const std::uint64_t blocks = (kBitCount + kBitsPerBlock - 1) / kBitsPerBlock;

  std::vector<std::uint64_t> decoded(words.size(), ~std::uint64_t(0));
  for (std::uint64_t i = 0; i < blocks; ++i) {
    Bytes reference(kBlockSize, 0);
    for (std::uint64_t j = 0; j < kBitsPerBlock; ++j) {
      const std::uint64_t bit = i * kBitsPerBlock + j;
      if (bit < kBitCount && ((words[bit / 64] >> (bit % 64)) & 1) != 0) {
        reference[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
      }
    }
    const Bytes image = EncodeBitmapBlock(words, kBitCount, kBlockSize, i);
    ASSERT_EQ(image, reference) << "bitmap block " << i;
    DecodeBitmapBlock(image, kBitCount, i, decoded);
  }
  for (std::uint64_t bit = 0; bit < decoded.size() * 64; ++bit) {
    const bool want =
        bit < kBitCount && ((words[bit / 64] >> (bit % 64)) & 1) != 0;
    ASSERT_EQ(((decoded[bit / 64] >> (bit % 64)) & 1) != 0, want)
        << "bit " << bit;
  }
}

/// DiffExtents's definition, one byte at a time: a run starts at a dirty
/// byte and ends before more than kExtentMergeGap consecutive equal bytes.
std::vector<Extent> DiffExtentsByteLoop(ByteSpan base, ByteSpan data) {
  std::vector<Extent> extents;
  const std::size_t n = data.size();
  std::size_t i = 0;
  while (i < n) {
    if (base[i] == data[i]) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    std::size_t clean = 0;
    while (end < n) {
      if (base[end] == data[end]) {
        if (++clean > kExtentMergeGap) {
          ++end;
          break;
        }
      } else {
        clean = 0;
      }
      ++end;
    }
    extents.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(end - clean - i)});
    i = end;
  }
  return extents;
}

void ExpectSameExtents(const Bytes& base, const Bytes& data,
                       const std::string& label) {
  const std::vector<Extent> got = DiffExtents(base, data);
  const std::vector<Extent> want = DiffExtentsByteLoop(base, data);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].offset, want[k].offset) << label << " extent " << k;
    ASSERT_EQ(got[k].len, want[k].len) << label << " extent " << k;
  }
}

TEST(ExtentDiffTest, WordSkipMatchesByteLoopOnSeededPairs) {
  Rng rng(Rng::StreamSeed(24, 0xD1F));
  const std::size_t kSizes[] = {0, 1, 7, 8, 9, 15, 63, 64, 65, 100, 509,
                                512, 4096};
  for (int pair = 0; pair < 12000; ++pair) {
    const std::size_t n = pair % 3 == 0 ? rng.NextBelow(300)
                                        : kSizes[rng.NextBelow(13)];
    Bytes base(n);
    for (std::uint8_t& b : base) {
      b = static_cast<std::uint8_t>(rng.NextBool(0.3) ? rng.NextU64() : 0);
    }
    Bytes data = base;
    if (n > 0) {
      for (std::uint64_t runs = rng.NextBelow(6); runs > 0; --runs) {
        // Runs start and end anywhere, often on or next to a word edge.
        std::size_t at = rng.NextBelow(n);
        if (rng.NextBool()) at = std::min(n - 1, at / 8 * 8 + rng.NextBelow(2));
        const std::size_t len = 1 + rng.NextBelow(24);
        for (std::size_t k = at; k < std::min(n, at + len); ++k) {
          data[k] = static_cast<std::uint8_t>(data[k] + 1 + rng.NextBelow(255));
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameExtents(base, data, "pair " + std::to_string(pair)));
  }
}

TEST(ExtentDiffTest, MergeGapBoundaryAndTails) {
  // Two dirty bytes exactly kExtentMergeGap apart merge; one byte more
  // splits them. Shifted across a word edge and into a short tail.
  for (std::size_t n : {std::size_t(61), std::size_t(64), std::size_t(77)}) {
    for (std::size_t first = 0; first + kExtentMergeGap + 2 < n; ++first) {
      for (std::size_t gap : {kExtentMergeGap, kExtentMergeGap + 1}) {
        const std::size_t second = first + gap + 1;
        if (second >= n) continue;
        const Bytes base(n, 0);
        Bytes data = base;
        data[first] = 1;
        data[second] = 2;
        const std::string label = "n=" + std::to_string(n) +
                                  " first=" + std::to_string(first) +
                                  " gap=" + std::to_string(gap);
        ASSERT_NO_FATAL_FAILURE(ExpectSameExtents(base, data, label));
        EXPECT_EQ(DiffExtents(base, data).size(),
                  gap == kExtentMergeGap ? 1u : 2u)
            << label;
      }
    }
  }
}

}  // namespace
}  // namespace rgpdos::inodefs

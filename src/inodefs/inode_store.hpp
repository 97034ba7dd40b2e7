// InodeStore: allocation, inode table, and file-content IO with
// journaled transactions. This is the substrate shared by the NPD
// filesystem (path layer in filesystem.hpp) and rgpdOS's DBFS, which
// builds its two inode trees (paper §3) directly on these primitives.
//
// Thread-safety: every public method serialises on one per-store mutex
// (rank kInodefs / kInodefsSensitive in the stack-wide lock order, see
// metrics/lock.hpp). The mutex is recursive so a GroupCommitScope can
// hold it across several public calls. Format/Mount/SetRootDir and the
// introspection accessors are boot/quiescent-time interfaces.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/clock.hpp"
#include "inodefs/format.hpp"
#include "inodefs/journal.hpp"
#include "metrics/lock.hpp"

namespace rgpdos::inodefs {

class InodeStore {
 public:
  struct Options {
    std::uint32_t inode_count = 4096;
    std::uint64_t journal_blocks = 256;
    /// Data journaling (ext4 data=journal analogue). When false only
    /// the in-place write happens — used by ablation benches.
    bool journal_enabled = true;
    /// Position of this store's mutex in the stack-wide lock order. The
    /// split sensitive-PD store gets kInodefsSensitive so DBFS can nest
    /// its writes inside a primary-store group-commit scope.
    metrics::LockRank lock_rank = metrics::LockRank::kInodefs;
    /// Bounded retry for transient device IO errors (kIoError only;
    /// kCrashed is permanent). Applies to every device access the store
    /// or its journal makes. RetryPolicy::None() disables.
    RetryPolicy io_retry;
  };

  /// What Mount()'s journal replay recovered (inodefs.recovery.* metrics
  /// mirror this; the crash harness and bench_recovery read it directly).
  struct RecoveryReport {
    ReplayStats replay;
    std::uint64_t checkpointed_blocks = 0;  ///< replayed writes applied
  };

  /// Format a fresh device and mount it.
  static Result<std::unique_ptr<InodeStore>> Format(
      blockdev::BlockDevice* device, const Options& options,
      const Clock* clock);

  /// Mount an existing device: reads the superblock, replays the journal
  /// (committed transactions are re-applied in place and flushed), and
  /// fills last_recovery(). Torn or corrupt journal records are
  /// discarded, never partially applied.
  static Result<std::unique_ptr<InodeStore>> Mount(
      blockdev::BlockDevice* device, const Clock* clock,
      metrics::LockRank lock_rank = metrics::LockRank::kInodefs,
      const RetryPolicy& io_retry = RetryPolicy{});

  /// RAII journal group commit. While a scope is alive the calling
  /// thread owns the store (the scope holds the store mutex — recursion
  /// lets public methods re-enter) and every transaction committed
  /// inside it stages both its journal record and its in-place writes
  /// into a group buffer instead of touching the device; the scope's
  /// destructor (or Finish(), when the caller wants the status) writes
  /// ONE combined journal transaction and only then checkpoints the
  /// staged blocks in place — write-ahead ordering, so a crash anywhere
  /// inside the scope leaves either the whole group (replayable from the
  /// journal) or none of it. Reads inside the scope see staged writes
  /// via ReadBlockCoherent. This trades crash atomicity granularity for
  /// one journal IO per multi-txn operation — DBFS Put commits 7
  /// transactions and is the intended customer.
  class GroupCommitScope {
   public:
    explicit GroupCommitScope(InodeStore& store);
    ~GroupCommitScope();
    GroupCommitScope(const GroupCommitScope&) = delete;
    GroupCommitScope& operator=(const GroupCommitScope&) = delete;

    /// Flush the group journal record and release the store. Idempotent;
    /// the destructor calls it (dropping the status) if the caller
    /// didn't.
    Status Finish();

   private:
    InodeStore& store_;
    bool finished_ = false;
  };

  /// Persist superblock + bitmap. The store stays usable.
  Status Sync();

  // ---- inode lifecycle ----------------------------------------------------
  /// Claim the lowest free inode slot, found in the in-memory free-inode
  /// map, not by reading the inode table.
  Result<InodeId> AllocInode(InodeKind kind);
  /// Release the inode and its data blocks. With `scrub`, every data
  /// block is overwritten with zeros first (GDPR erasure path); without,
  /// blocks are only unlinked (the realistic ext4 behaviour the paper
  /// criticises — old bytes stay on the medium and in the journal).
  Status FreeInode(InodeId id, bool scrub);
  Result<Inode> GetInode(InodeId id) const;

  // ---- file content IO ----------------------------------------------------
  Result<Bytes> ReadAt(InodeId id, std::uint64_t offset,
                       std::uint64_t length) const;
  Result<Bytes> ReadAll(InodeId id) const;
  /// Read the full content of many inodes with batched device
  /// submissions: one batch for the (deduped) inode-table blocks, one
  /// for indirect blocks, one for every file's data blocks — at most
  /// three amortised device round-trips for the whole set instead of
  /// 3 serialized reads per inode. Per-inode failures (free inode, bad
  /// id) come back in that slot; device errors fail the whole call.
  std::vector<Result<Bytes>> ReadAllBatch(const std::vector<InodeId>& ids) const;
  Status WriteAt(InodeId id, std::uint64_t offset, ByteSpan data);
  Status Append(InodeId id, ByteSpan data);
  /// Replace content entirely (truncate + write).
  Status WriteAll(InodeId id, ByteSpan data);
  Status Truncate(InodeId id, std::uint64_t new_size, bool scrub);

  // ---- GDPR scrubbing ------------------------------------------------------
  /// Destroy the journal's write history: zero every journal block
  /// written since the last scrub (see Journal::Scrub).
  Status ScrubJournal();

  // ---- introspection -------------------------------------------------------
  [[nodiscard]] const Superblock& superblock() const { return sb_; }
  /// Record the NPD filesystem's root directory (persisted by Sync()).
  void SetRootDir(InodeId root) { sb_.root_dir = root; }
  [[nodiscard]] blockdev::BlockDevice& device() { return *device_; }
  [[nodiscard]] std::uint64_t FreeBlockCount() const;
  /// Free slots according to the free-inode map. Exact outside a
  /// GroupCommitScope; inside one, slots the scope freed still count as
  /// used until its Finish succeeds.
  [[nodiscard]] std::uint64_t FreeInodeCount() const;
  [[nodiscard]] const Journal& journal() const { return journal_; }
  /// Journal-recovery outcome of Mount(); zeros for a Format()ed store.
  [[nodiscard]] const RecoveryReport& last_recovery() const {
    return recovery_;
  }

  /// Test hook: when set, transactions are journaled but NOT written in
  /// place — simulating a crash between commit and checkpoint. A
  /// subsequent Mount() must recover the writes from the journal.
  void SetCrashBeforeCheckpoint(bool crash) {
    crash_before_checkpoint_ = crash;
  }

  /// Maximum file size under the direct + single-indirect scheme.
  [[nodiscard]] std::uint64_t MaxFileSize() const;

 private:
  InodeStore(blockdev::BlockDevice* device, Superblock sb, const Clock* clock,
             bool journal_enabled, metrics::LockRank lock_rank,
             const RetryPolicy& io_retry);

  /// Pre-transaction image of a block, captured at first touch so the
  /// extent encoder can journal only the dirty byte ranges.
  struct Preimage {
    std::uint8_t base = 0;  ///< a JournalWrite::kBase* value
    Bytes data;             ///< valid iff base == kBaseDevice
  };

  // Device access with bounded transient-error retry (see io_retry.hpp).
  Status DevRead(BlockIndex index, Bytes& out) const;
  Status DevWrite(BlockIndex index, ByteSpan data);
  Status DevFlush();
  Status DevReadBatch(const std::vector<BlockIndex>& indexes,
                      std::vector<Bytes>& out) const;
  Status DevWriteBatch(const std::vector<blockdev::BatchWrite>& writes);
  /// DevRead that first consults the group-commit staging buffer, so
  /// reads inside a GroupCommitScope observe the scope's own writes
  /// (which stay off the device until the group journal record commits).
  Status ReadBlockCoherent(BlockIndex index, Bytes& out) const;

  /// A buffered transaction: block images staged in memory, then logged
  /// to the journal and checkpointed in place atomically. First-touch
  /// pre-images ride along: a device read captures the on-device image,
  /// a first write of an all-zero block records a zero base (fresh
  /// allocations — replaying from zeros can never resurrect stale
  /// bytes), any other blind write gets no base and journals in full.
  class Txn {
   public:
    explicit Txn(InodeStore& store) : store_(store) {}
    /// The txn's view of `index`: its own staged write, else the image it
    /// pinned at first touch, else a coherent device read (which pins).
    Result<Bytes> ReadBlock(BlockIndex index);
    Status WriteBlock(BlockIndex index, Bytes data);
    Status Commit();
    /// True if the txn already read or wrote `index` (its preimage, if
    /// any, is already pinned).
    [[nodiscard]] bool Touched(BlockIndex index) const {
      return writes_.count(index) != 0 || preimages_.count(index) != 0;
    }

   private:
    friend class InodeStore;
    InodeStore& store_;
    std::map<BlockIndex, Bytes> writes_;
    std::map<BlockIndex, Preimage> preimages_;
  };

  // Bitmap helpers (in-memory copy; dirty blocks staged into the txn).
  [[nodiscard]] bool BitmapGet(BlockIndex block) const;
  Status StageBitmapBlock(BlockIndex data_block, Txn& txn);
  Result<BlockIndex> AllocDataBlock(Txn& txn);
  Status FreeDataBlock(BlockIndex block, bool scrub, Txn& txn);

  // Inode table addressing.
  [[nodiscard]] BlockIndex InodeBlock(InodeId id) const;
  [[nodiscard]] std::uint32_t InodeOffset(InodeId id) const;
  Result<Inode> LoadInode(InodeId id, Txn* txn) const;
  Status StoreInode(InodeId id, const Inode& inode, Txn& txn);

  /// Map a file-relative block number to a device block, optionally
  /// allocating (and wiring the indirect block) on demand.
  Result<BlockIndex> MapFileBlock(Inode& inode, std::uint64_t file_block,
                                  bool allocate, Txn& txn);
  /// Shared body of ReadAt/ReadAll, working from an already-loaded inode
  /// (so ReadAll costs one inode-table read, not two). Caller holds mu_.
  Result<Bytes> ReadRange(Inode inode, std::uint64_t offset,
                          std::uint64_t length) const;
  /// Enumerate all data blocks (direct, indirect pointees, and the
  /// indirect block itself last).
  Result<std::vector<BlockIndex>> ListDataBlocks(const Inode& inode) const;

  Status LoadBitmap();
  Status CheckId(InodeId id) const;

  // Free-inode map helpers.
  /// Lowest slot in [from, inode_count) whose map bit is clear, or
  /// inode_count if there is none.
  [[nodiscard]] InodeId NextFreeInode(InodeId from) const;
  /// Rebuild the map from the decoded kind of every inode-table slot.
  Status LoadInodeMap();

  blockdev::BlockDevice* device_;  // borrowed; outlives the store
  Superblock sb_;
  const Clock* clock_;             // borrowed
  Journal journal_;
  RetryPolicy io_retry_;
  RecoveryReport recovery_;
  bool journal_enabled_;
  bool crash_before_checkpoint_ = false;
  /// Final images of blocks whose in-place checkpoint was suppressed by
  /// crash_before_checkpoint_. A real OS would still serve these
  /// journal-committed writes from its page cache, so ReadBlockCoherent
  /// consults this map first: later transactions must capture extent
  /// preimages against the logical state replay will reconstruct, not
  /// the stale medium. Empty in normal operation.
  std::map<BlockIndex, Bytes> uncheckpointed_;
  std::vector<std::uint64_t> bitmap_;  // 1 bit per device block
  BlockIndex alloc_hint_ = 0;
  /// Free-inode map: 1 bit per inode slot, set = live (or the reserved
  /// slot 0). It may name a free slot as used, never a live slot as free:
  /// a bit changes once the slot's change has committed, and inside a
  /// GroupCommitScope only as the scope's outcome allows (see
  /// group_allocs_ / group_frees_).
  std::vector<std::uint64_t> inode_map_;

  /// Per-store lock; recursive so GroupCommitScope can hold it across
  /// public re-entry (and so WriteAll -> Truncate style internal nesting
  /// needs no *Locked split).
  mutable metrics::OrderedMutex mu_;
  // Group-commit state. Non-zero depth implies the owning thread holds
  // mu_ for the whole scope, so these need no further synchronisation.
  int group_depth_ = 0;
  std::vector<std::pair<BlockIndex, Bytes>> group_writes_;
  std::map<BlockIndex, std::size_t> group_write_index_;  // dedupe by block
  /// First-wins pre-images for the staged blocks: the txn that FIRST
  /// staged a block saw it in its pre-group state, so its preimage is
  /// the right diff base for the combined group record.
  std::map<BlockIndex, Preimage> group_preimages_;
  /// Slots the open scope allocated (their map bits are already set) and
  /// freed (their bits stay set). The outermost Finish clears the frees'
  /// bits if the group committed, and the allocations' bits if it did not.
  std::vector<InodeId> group_allocs_;
  std::vector<InodeId> group_frees_;

  void StageGroupWrite(BlockIndex block, const Bytes& data,
                       const Preimage* preimage);
};

}  // namespace rgpdos::inodefs

// On-device format of the inode filesystem substrate.
//
// The paper (§3, implementation) rearchitects uFS keeping "the
// implementation of the inode concept"; this module is that concept:
// a superblock, a block-allocation bitmap, a fixed inode table, a data
// journal and a data region. Both rgpdOS's DBFS trees and the NPD
// file-granularity filesystem are built from these inodes.
//
// Layout (in blocks):
//   [0]               superblock
//   [1 .. B]          allocation bitmap (1 bit per device block)
//   [B+1 .. I]        inode table (fixed-size 256-byte inodes)
//   [I+1 .. J]        journal region (circular byte log)
//   [J+1 .. end)      data region
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"

namespace rgpdos::inodefs {

using InodeId = std::uint32_t;
using BlockIndex = std::uint64_t;

inline constexpr std::uint32_t kSuperblockMagic = 0x52475046;  // "RGPF"
inline constexpr InodeId kInvalidInode = 0;  // inode 0 is reserved
inline constexpr std::uint32_t kInodeDiskSize = 256;
inline constexpr std::uint32_t kDirectBlocks = 12;

/// What an inode stores. The DBFS-specific kinds make the two inode trees
/// of the paper's §3 self-describing on the medium.
enum class InodeKind : std::uint8_t {
  kFree = 0,
  kFile,          ///< ordinary byte file (NPD filesystem)
  kDirectory,     ///< name -> inode map (NPD filesystem)
  kTableSchema,   ///< DBFS schema tree: table structure descriptor
  kSubjectIndex,  ///< DBFS schema tree: list of subject inodes for a table
  kSubjectRoot,   ///< DBFS subject tree: one subject's record list
  kPdRecord,      ///< DBFS subject tree: encoded PD row
  kMembrane,      ///< DBFS subject tree: the PD record's membrane
  kFormatHint,    ///< DBFS: encoding descriptor read once per session (§3)
};

/// In-memory inode image (serialised to kInodeDiskSize bytes).
struct Inode {
  InodeKind kind = InodeKind::kFree;
  std::uint8_t flags = 0;
  std::uint32_t nlink = 0;
  std::uint64_t size = 0;        ///< logical byte size of the content
  TimeMicros ctime = 0;
  TimeMicros mtime = 0;
  std::uint64_t generation = 0;  ///< bumped on every reuse of the slot
  std::array<BlockIndex, kDirectBlocks> direct{};
  BlockIndex indirect = 0;         ///< single-indirect block of BlockIndex[]
  BlockIndex double_indirect = 0;  ///< block of single-indirect blocks

  [[nodiscard]] Bytes Encode() const;
  static Result<Inode> Decode(ByteSpan bytes);
};

/// Byte size of one superblock slot inside block 0. The superblock is
/// persisted into ALTERNATING slots (picked by sb_version parity), each
/// carrying its own CRC: a torn write can destroy at most the slot being
/// written, and Decode falls back to the other, previously valid one. A
/// single in-place image would brick the mount on the first torn
/// superblock write.
inline constexpr std::size_t kSuperblockSlotSize = 256;

/// Filesystem geometry, derived once at format time.
struct Superblock {
  std::uint32_t magic = kSuperblockMagic;
  std::uint32_t block_size = 0;
  std::uint64_t block_count = 0;
  std::uint32_t inode_count = 0;
  BlockIndex bitmap_start = 0;
  std::uint64_t bitmap_blocks = 0;
  BlockIndex inode_table_start = 0;
  std::uint64_t inode_table_blocks = 0;
  BlockIndex journal_start = 0;
  std::uint64_t journal_blocks = 0;
  BlockIndex data_start = 0;
  InodeId root_dir = kInvalidInode;  ///< set by FileSystem::Format
  std::uint64_t journal_head = 0;    ///< block offset into journal region
  std::uint64_t journal_seq = 0;     ///< next transaction sequence number
  /// Checkpoint watermark (exclusive): every journaled transaction with
  /// seq < this value is durably written in place. Replay skips such
  /// transactions — re-applying a stale journal record would REVERT a
  /// block to old content when the newer record that superseded it was
  /// wrapped over or scrubbed. Persisted (see Journal) before the head
  /// ever wraps and before a scrub, so the destroyed history is always
  /// provably checkpointed.
  std::uint64_t journal_checkpointed_seq = 0;
  /// Monotonic persist counter; selects the slot EncodeInto writes and
  /// lets Decode pick the newest valid slot.
  std::uint64_t sb_version = 0;

  /// Serialise into `block` (the current content of device block 0),
  /// bumping sb_version and overwriting only the slot it selects.
  void EncodeInto(Bytes& block);
  /// Parse block 0: returns the highest-version slot whose CRC checks
  /// out, or Corruption if neither slot is valid.
  static Result<Superblock> Decode(ByteSpan bytes);

  /// Compute a layout for a device. `inode_count` and `journal_blocks`
  /// are caller choices (tests use small numbers, benches larger).
  static Result<Superblock> Plan(std::uint32_t block_size,
                                 std::uint64_t block_count,
                                 std::uint32_t inode_count,
                                 std::uint64_t journal_blocks);
};

/// Allocation-bitmap encoding. In memory the bitmap is a word array: bit
/// b is bit b % 64 of word b / 64. On the medium bit b is bit b % 8 of
/// byte b / 8 of the bitmap region, so each word is stored as 8
/// little-endian bytes. Both directions move a word at a time with
/// shifts, independent of host byte order; bits at or past `bit_count`
/// read and write as 0.
///
/// Image of bitmap block `index` (`block_size` bytes) from `words`.
[[nodiscard]] Bytes EncodeBitmapBlock(const std::vector<std::uint64_t>& words,
                                      std::uint64_t bit_count,
                                      std::uint32_t block_size,
                                      std::uint64_t index);
/// Store bitmap block `index`'s bits, read from `image`, into `words`
/// (which holds (bit_count + 63) / 64 words).
void DecodeBitmapBlock(ByteSpan image, std::uint64_t bit_count,
                       std::uint64_t index,
                       std::vector<std::uint64_t>& words);

}  // namespace rgpdos::inodefs

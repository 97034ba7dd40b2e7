#include "inodefs/format.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"

namespace rgpdos::inodefs {

Bytes Inode::Encode() const {
  ByteWriter w(kInodeDiskSize);
  w.PutU8(static_cast<std::uint8_t>(kind));
  w.PutU8(flags);
  w.PutU16(0);  // reserved
  w.PutU32(nlink);
  w.PutU64(size);
  w.PutI64(ctime);
  w.PutI64(mtime);
  w.PutU64(generation);
  for (BlockIndex b : direct) w.PutU64(b);
  w.PutU64(indirect);
  w.PutU64(double_indirect);
  Bytes out = w.Take();
  out.resize(kInodeDiskSize, 0);
  return out;
}

Result<Inode> Inode::Decode(ByteSpan bytes) {
  if (bytes.size() < kInodeDiskSize) {
    return Corruption("inode image too small");
  }
  ByteReader r(bytes);
  Inode inode;
  RGPD_ASSIGN_OR_RETURN(std::uint8_t kind, r.GetU8());
  if (kind > static_cast<std::uint8_t>(InodeKind::kFormatHint)) {
    return Corruption("inode has unknown kind");
  }
  inode.kind = static_cast<InodeKind>(kind);
  RGPD_ASSIGN_OR_RETURN(inode.flags, r.GetU8());
  RGPD_RETURN_IF_ERROR(r.Skip(2));
  RGPD_ASSIGN_OR_RETURN(inode.nlink, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(inode.size, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(inode.ctime, r.GetI64());
  RGPD_ASSIGN_OR_RETURN(inode.mtime, r.GetI64());
  RGPD_ASSIGN_OR_RETURN(inode.generation, r.GetU64());
  for (BlockIndex& b : inode.direct) {
    RGPD_ASSIGN_OR_RETURN(b, r.GetU64());
  }
  RGPD_ASSIGN_OR_RETURN(inode.indirect, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(inode.double_indirect, r.GetU64());
  return inode;
}

namespace {

/// One serialised superblock image: all fields followed by a CRC over
/// them. Must fit in kSuperblockSlotSize.
Bytes EncodeImage(const Superblock& sb) {
  ByteWriter w(kSuperblockSlotSize);
  w.PutU32(sb.magic);
  w.PutU32(sb.block_size);
  w.PutU64(sb.block_count);
  w.PutU32(sb.inode_count);
  w.PutU64(sb.bitmap_start);
  w.PutU64(sb.bitmap_blocks);
  w.PutU64(sb.inode_table_start);
  w.PutU64(sb.inode_table_blocks);
  w.PutU64(sb.journal_start);
  w.PutU64(sb.journal_blocks);
  w.PutU64(sb.data_start);
  w.PutU32(sb.root_dir);
  w.PutU64(sb.journal_head);
  w.PutU64(sb.journal_seq);
  w.PutU64(sb.journal_checkpointed_seq);
  w.PutU64(sb.sb_version);
  const std::uint32_t crc = Crc32(w.buffer());
  w.PutU32(crc);
  return w.Take();
}

Result<Superblock> DecodeSlot(ByteSpan slot) {
  ByteReader r(slot);
  Superblock sb;
  RGPD_ASSIGN_OR_RETURN(sb.magic, r.GetU32());
  if (sb.magic != kSuperblockMagic) {
    return Corruption("bad superblock magic (device not formatted?)");
  }
  RGPD_ASSIGN_OR_RETURN(sb.block_size, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(sb.block_count, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.inode_count, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(sb.bitmap_start, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.bitmap_blocks, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.inode_table_start, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.inode_table_blocks, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.journal_start, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.journal_blocks, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.data_start, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.root_dir, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(sb.journal_head, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.journal_seq, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.journal_checkpointed_seq, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(sb.sb_version, r.GetU64());
  const std::size_t image_size = EncodeImage(sb).size();
  if (slot.size() < image_size) {
    return Corruption("superblock slot truncated");
  }
  ByteReader crc_reader(
      ByteSpan(slot.data() + image_size - 4, 4));
  RGPD_ASSIGN_OR_RETURN(const std::uint32_t stored_crc, crc_reader.GetU32());
  const std::uint32_t computed_crc =
      Crc32(ByteSpan(slot.data(), image_size - 4));
  if (stored_crc != computed_crc) {
    return Corruption("superblock slot CRC mismatch (torn write?)");
  }
  return sb;
}

}  // namespace

void Superblock::EncodeInto(Bytes& block) {
  ++sb_version;
  const Bytes image = EncodeImage(*this);
  const std::size_t offset = (sb_version % 2) * kSuperblockSlotSize;
  if (block.size() < offset + kSuperblockSlotSize) {
    block.resize(offset + kSuperblockSlotSize, 0);
  }
  std::memset(block.data() + offset, 0, kSuperblockSlotSize);
  std::memcpy(block.data() + offset, image.data(), image.size());
}

Result<Superblock> Superblock::Decode(ByteSpan bytes) {
  Result<Superblock> best = Corruption(
      "bad superblock magic (device not formatted?)");
  for (std::size_t slot = 0; slot < 2; ++slot) {
    const std::size_t offset = slot * kSuperblockSlotSize;
    if (offset + kSuperblockSlotSize > bytes.size()) break;
    auto decoded =
        DecodeSlot(ByteSpan(bytes.data() + offset, kSuperblockSlotSize));
    if (!decoded.ok()) continue;
    if (!best.ok() || decoded->sb_version > best->sb_version) {
      best = std::move(decoded);
    }
  }
  return best;
}

Result<Superblock> Superblock::Plan(std::uint32_t block_size,
                                    std::uint64_t block_count,
                                    std::uint32_t inode_count,
                                    std::uint64_t journal_blocks) {
  if (block_size < 512 || (block_size & (block_size - 1)) != 0) {
    return InvalidArgument("block_size must be a power of two >= 512");
  }
  if (inode_count == 0) return InvalidArgument("inode_count must be > 0");

  Superblock sb;
  sb.block_size = block_size;
  sb.block_count = block_count;
  sb.inode_count = inode_count;

  const std::uint64_t bits_per_block = std::uint64_t(block_size) * 8;
  sb.bitmap_start = 1;
  sb.bitmap_blocks = (block_count + bits_per_block - 1) / bits_per_block;

  const std::uint64_t inodes_per_block = block_size / kInodeDiskSize;
  sb.inode_table_start = sb.bitmap_start + sb.bitmap_blocks;
  sb.inode_table_blocks =
      (std::uint64_t(inode_count) + inodes_per_block - 1) / inodes_per_block;

  sb.journal_start = sb.inode_table_start + sb.inode_table_blocks;
  sb.journal_blocks = journal_blocks;

  sb.data_start = sb.journal_start + sb.journal_blocks;
  if (sb.data_start + 8 > block_count) {
    return InvalidArgument(
        "device too small for requested inode table and journal");
  }
  return sb;
}

namespace {
/// `word`, stored as word `w` of a bitmap, with every bit at or past
/// `bit_count` cleared.
std::uint64_t MaskTail(std::uint64_t word, std::uint64_t w,
                       std::uint64_t bit_count) {
  const std::uint64_t first_bit = w * 64;
  if (first_bit + 64 <= bit_count) return word;
  return word & ((std::uint64_t(1) << (bit_count - first_bit)) - 1);
}
}  // namespace

Bytes EncodeBitmapBlock(const std::vector<std::uint64_t>& words,
                        std::uint64_t bit_count, std::uint32_t block_size,
                        std::uint64_t index) {
  Bytes image(block_size, 0);
  const std::uint64_t words_per_block = block_size / 8;
  const std::uint64_t first = index * words_per_block;
  const std::uint64_t last =
      std::min<std::uint64_t>(first + words_per_block, (bit_count + 63) / 64);
  for (std::uint64_t w = first; w < last; ++w) {
    const std::uint64_t word = MaskTail(words[w], w, bit_count);
    std::uint8_t* out = image.data() + (w - first) * 8;
    for (int k = 0; k < 8; ++k) {
      out[k] = static_cast<std::uint8_t>(word >> (8 * k));
    }
  }
  return image;
}

void DecodeBitmapBlock(ByteSpan image, std::uint64_t bit_count,
                       std::uint64_t index,
                       std::vector<std::uint64_t>& words) {
  const std::uint64_t words_per_block = image.size() / 8;
  const std::uint64_t first = index * words_per_block;
  const std::uint64_t last =
      std::min<std::uint64_t>(first + words_per_block, (bit_count + 63) / 64);
  for (std::uint64_t w = first; w < last; ++w) {
    const std::uint8_t* in = image.data() + (w - first) * 8;
    std::uint64_t word = 0;
    for (int k = 0; k < 8; ++k) word |= std::uint64_t(in[k]) << (8 * k);
    words[w] = MaskTail(word, w, bit_count);
  }
}

}  // namespace rgpdos::inodefs

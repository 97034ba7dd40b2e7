// Sealed audit-log segment format (DESIGN.md §14).
//
// A sealed segment is the immutable unit of the durable audit pipeline:
// a fixed-size run of encoded log entries, compressed when that shrinks
// it, with a CRC'd header binding the payload to its place in the
// SHA-256 hash chain. Tamper evidence is layered:
//
//   * header_crc / payload_crc catch accidental corruption (torn write,
//     bit rot) without touching the payload codec;
//   * chain_prev / chain_tail bind the segment into the entry hash
//     chain: a re-compressed, re-CRC'd forgery still has to re-hash
//     every later entry, which LoadFromStore-style verification detects;
//   * segment_seq / first_seq make reordering and whole-segment removal
//     detectable from the manifest walk alone.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/sha256.hpp"

namespace rgpdos::auditlog {

inline constexpr std::uint32_t kSegmentMagic = 0x4C534752;  // "RGSL"
inline constexpr std::uint32_t kSegmentVersion = 1;

enum class SegmentCodec : std::uint8_t {
  kRaw = 0,  ///< payload stored verbatim
  kLz = 1,   ///< payload stored LzCompress'd
};

/// Header of a sealed segment (the payload follows it in the inode).
struct SegmentInfo {
  std::uint64_t segment_seq = 0;  ///< 0-based position in the log
  std::uint64_t first_seq = 0;    ///< seq of the first entry inside
  std::uint32_t entry_count = 0;
  crypto::Sha256Digest chain_prev{};  ///< chain tail before this segment
  crypto::Sha256Digest chain_tail{};  ///< chain digest of the last entry
  std::uint64_t raw_size = 0;         ///< uncompressed payload bytes
};

/// Encode header + payload (LZ-compressed when the LZ stream is actually
/// smaller, raw otherwise).
Bytes EncodeSealedSegment(const SegmentInfo& info, ByteSpan raw_payload);

/// Decode + verify a sealed segment: header CRC, payload CRC, magic and
/// version, then decompress. Any mismatch is kCorruption.
Status DecodeSealedSegment(ByteSpan stored, SegmentInfo* info,
                           Bytes* raw_payload);

}  // namespace rgpdos::auditlog

#include "auditlog/segment.hpp"

#include <algorithm>
#include <string>

#include "common/compress.hpp"
#include "common/crc32.hpp"

namespace rgpdos::auditlog {

Bytes EncodeSealedSegment(const SegmentInfo& info, ByteSpan raw_payload) {
  SegmentCodec codec = SegmentCodec::kRaw;
  ByteSpan payload = raw_payload;
  const Bytes compressed = LzCompress(raw_payload);
  if (compressed.size() < raw_payload.size()) {
    codec = SegmentCodec::kLz;
    payload = compressed;
  }
  ByteWriter w(payload.size() + 128);
  w.PutU32(kSegmentMagic);
  w.PutU32(kSegmentVersion);
  w.PutU64(info.segment_seq);
  w.PutU64(info.first_seq);
  w.PutU32(info.entry_count);
  w.PutU8(static_cast<std::uint8_t>(codec));
  w.PutRaw(ByteSpan(info.chain_prev.data(), info.chain_prev.size()));
  w.PutRaw(ByteSpan(info.chain_tail.data(), info.chain_tail.size()));
  w.PutU64(raw_payload.size());
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload));
  w.PutU32(Crc32(w.buffer()));  // header CRC covers everything above
  w.PutRaw(payload);
  return w.Take();
}

Status DecodeSealedSegment(ByteSpan stored, SegmentInfo* info,
                           Bytes* raw_payload) {
  ByteReader r(stored);
  RGPD_ASSIGN_OR_RETURN(std::uint32_t magic, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(std::uint32_t version, r.GetU32());
  if (magic != kSegmentMagic) {
    return Corruption("audit segment: bad magic");
  }
  if (version != kSegmentVersion) {
    return Corruption("audit segment: unknown version " +
                      std::to_string(version));
  }
  SegmentInfo decoded;
  RGPD_ASSIGN_OR_RETURN(decoded.segment_seq, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(decoded.first_seq, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(decoded.entry_count, r.GetU32());
  RGPD_ASSIGN_OR_RETURN(std::uint8_t codec_byte, r.GetU8());
  if (codec_byte > static_cast<std::uint8_t>(SegmentCodec::kLz)) {
    return Corruption("audit segment: unknown codec");
  }
  RGPD_ASSIGN_OR_RETURN(Bytes prev, r.GetRaw(crypto::kSha256DigestSize));
  std::copy(prev.begin(), prev.end(), decoded.chain_prev.begin());
  RGPD_ASSIGN_OR_RETURN(Bytes tail, r.GetRaw(crypto::kSha256DigestSize));
  std::copy(tail.begin(), tail.end(), decoded.chain_tail.begin());
  RGPD_ASSIGN_OR_RETURN(decoded.raw_size, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(std::uint64_t stored_size, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(std::uint32_t payload_crc, r.GetU32());
  const std::size_t header_end = r.position();
  RGPD_ASSIGN_OR_RETURN(std::uint32_t header_crc, r.GetU32());
  if (Crc32(stored.subspan(0, header_end)) != header_crc) {
    return Corruption("audit segment: header CRC mismatch");
  }
  if (stored_size != r.remaining()) {
    return Corruption("audit segment: payload size mismatch");
  }
  RGPD_ASSIGN_OR_RETURN(Bytes payload, r.GetRaw(stored_size));
  if (Crc32(payload) != payload_crc) {
    return Corruption("audit segment: payload CRC mismatch");
  }
  if (static_cast<SegmentCodec>(codec_byte) == SegmentCodec::kLz) {
    RGPD_ASSIGN_OR_RETURN(payload, LzDecompress(payload, decoded.raw_size));
  } else if (payload.size() != decoded.raw_size) {
    return Corruption("audit segment: raw payload size mismatch");
  }
  *info = decoded;
  *raw_payload = std::move(payload);
  return Status::Ok();
}

}  // namespace rgpdos::auditlog

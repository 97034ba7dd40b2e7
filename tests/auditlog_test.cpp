// Durable audit pipeline suite (DESIGN.md §14): the LZ codec, the sealed
// segment format, SegmentedLog seal/rotate/mount, the async
// DurableAuditPipeline (flush, remount chain verification, deterministic
// backpressure), the ProcessingLog corruption matrix over its segmented
// store, crash-at-every-write sweeps across segment seal/rotation, and
// regulator-export byte-stability across a remount.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "auditlog/segment.hpp"
#include "auditlog/segmented_log.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/fault_injection.hpp"
#include "common/compress.hpp"
#include "common/clock.hpp"
#include "core/processing_log.hpp"
#include "core/regulator_export.hpp"
#include "crypto/hmac.hpp"
#include "inodefs/inode_store.hpp"
#include "sentinel/audit.hpp"
#include "sentinel/audit_pipeline.hpp"

namespace rgpdos {
namespace {

// ---- shared scaffolding ---------------------------------------------------

inodefs::InodeStore::Options SmallStoreOptions() {
  inodefs::InodeStore::Options options;
  options.inode_count = 64;
  options.journal_blocks = 64;
  return options;
}

/// A freshly formatted small store plus one caller-allocated inode for a
/// log manifest — the substrate every durable-log test starts from.
struct StoreFixture {
  SimClock clock{1000};
  blockdev::MemBlockDevice medium{512, 4096};
  std::unique_ptr<inodefs::InodeStore> store;
  inodefs::InodeId manifest = inodefs::kInvalidInode;

  StoreFixture() {
    auto formatted =
        inodefs::InodeStore::Format(&medium, SmallStoreOptions(), &clock);
    EXPECT_TRUE(formatted.ok()) << formatted.status().ToString();
    store = std::move(*formatted);
    auto id = store->AllocInode(inodefs::InodeKind::kFile);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    manifest = *id;
  }

  /// Drop the mounted store and mount the medium again — a restart.
  void Remount() {
    store.reset();
    auto mounted = inodefs::InodeStore::Mount(&medium, &clock);
    EXPECT_TRUE(mounted.ok()) << mounted.status().ToString();
    store = std::move(*mounted);
  }
};

sentinel::AuditEntry MakeAuditEntry(int i) {
  sentinel::AuditEntry entry;
  entry.at = 1000 + i;
  entry.request.subject = sentinel::Domain::kDed;
  entry.request.object =
      (i % 2 == 0) ? sentinel::Domain::kDbfs : sentinel::Domain::kOutside;
  entry.request.op =
      (i % 3 == 0) ? sentinel::Operation::kRead : sentinel::Operation::kWrite;
  entry.request.detail = "audit-" + std::to_string(i);
  entry.allowed = (i % 2 == 0);
  entry.rule = entry.allowed ? "allow ded->dbfs" : "default-deny";
  return entry;
}

/// Tiny segments so a handful of entries forces seal + rotation.
auditlog::SegmentedLogOptions TinySegments() {
  auditlog::SegmentedLogOptions options;
  options.segment_bytes = 384;
  return options;
}

/// Deterministic LCG bytes: incompressible for the LZ codec.
Bytes NoiseBytes(std::size_t n) {
  Bytes raw(n);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (auto& byte : raw) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<std::uint8_t>(state >> 56);
  }
  return raw;
}

// ---- LZ codec -------------------------------------------------------------

TEST(CompressTest, CompressibleRoundTripShrinks) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "processing=analytics purpose=ads subject=42 outcome=filtered ";
  }
  const ByteSpan raw(reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size());
  const Bytes packed = LzCompress(raw);
  EXPECT_LT(packed.size(), text.size() / 2);
  auto unpacked = LzDecompress(ByteSpan(packed.data(), packed.size()),
                               text.size());
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(Bytes(raw.begin(), raw.end()), *unpacked);
}

TEST(CompressTest, IncompressibleRoundTripsWithBoundedExpansion) {
  const Bytes raw = NoiseBytes(4096);
  const Bytes packed = LzCompress(ByteSpan(raw.data(), raw.size()));
  // Worst case is ~1/128 framing overhead.
  EXPECT_LE(packed.size(), raw.size() + raw.size() / 64 + 16);
  auto unpacked =
      LzDecompress(ByteSpan(packed.data(), packed.size()), raw.size());
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(raw, *unpacked);
}

TEST(CompressTest, EmptyInputRoundTrips) {
  const Bytes packed = LzCompress(ByteSpan{});
  auto unpacked = LzDecompress(ByteSpan(packed.data(), packed.size()), 0);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_TRUE(unpacked->empty());
}

TEST(CompressTest, CorruptStreamsAreRejectedNotOverread) {
  const std::string text = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabbbbbbbb";
  const Bytes packed = LzCompress(ByteSpan(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  // Truncated stream: literals/matches promised by tokens never arrive.
  auto truncated = LzDecompress(
      ByteSpan(packed.data(), packed.size() / 2), text.size());
  EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
  // Wrong expected size: a stream that decodes clean but short must fail.
  auto wrong_size = LzDecompress(ByteSpan(packed.data(), packed.size()),
                                 text.size() + 1);
  EXPECT_EQ(wrong_size.status().code(), StatusCode::kCorruption);
  // A match token whose back-offset points before the output start.
  const Bytes bogus = {0x80, 0xFF, 0xFF};  // match len 4, offset 65535
  auto bad_offset = LzDecompress(ByteSpan(bogus.data(), bogus.size()), 4);
  EXPECT_EQ(bad_offset.status().code(), StatusCode::kCorruption);
}

// ---- sealed segment codec -------------------------------------------------

auditlog::SegmentInfo MakeSegmentInfo() {
  auditlog::SegmentInfo info;
  info.segment_seq = 3;
  info.first_seq = 97;
  info.entry_count = 12;
  info.chain_prev.fill(0xAB);
  info.chain_tail.fill(0xCD);
  info.raw_size = 0;  // filled per payload below
  return info;
}

TEST(SegmentCodecTest, RoundTripsCompressedAndRaw) {
  // Repetitive text compresses; noise does not, so that payload takes
  // the raw-codec fallback.
  std::string text;
  for (int i = 0; i < 64; ++i) text += "entry entry entry ";
  const Bytes noise = NoiseBytes(512);
  struct Case {
    ByteSpan raw;
    bool compresses;
  };
  for (const Case& c :
       {Case{ByteSpan(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()),
             true},
        Case{ByteSpan(noise.data(), noise.size()), false}}) {
    const ByteSpan raw = c.raw;
    auditlog::SegmentInfo info = MakeSegmentInfo();
    info.raw_size = raw.size();
    const Bytes stored = auditlog::EncodeSealedSegment(info, raw);
    if (c.compresses) {
      EXPECT_LT(stored.size(), raw.size());
    } else {
      EXPECT_GT(stored.size(), raw.size());  // header + verbatim payload
    }
    auditlog::SegmentInfo decoded;
    Bytes out;
    auto status = auditlog::DecodeSealedSegment(
        ByteSpan(stored.data(), stored.size()), &decoded, &out);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded.segment_seq, info.segment_seq);
    EXPECT_EQ(decoded.first_seq, info.first_seq);
    EXPECT_EQ(decoded.entry_count, info.entry_count);
    EXPECT_TRUE(crypto::DigestEqual(decoded.chain_prev, info.chain_prev));
    EXPECT_TRUE(crypto::DigestEqual(decoded.chain_tail, info.chain_tail));
    EXPECT_EQ(out, Bytes(raw.begin(), raw.end()));
  }
}

TEST(SegmentCodecTest, EveryByteFlipIsDetected) {
  const std::string payload = "the quick brown fox logs a processing event";
  auditlog::SegmentInfo info = MakeSegmentInfo();
  info.raw_size = payload.size();
  const Bytes stored = auditlog::EncodeSealedSegment(
      info,
      ByteSpan(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size()));
  for (std::size_t i = 0; i < stored.size(); ++i) {
    Bytes tampered = stored;
    tampered[i] ^= 0x01;
    auditlog::SegmentInfo decoded;
    Bytes out;
    auto status = auditlog::DecodeSealedSegment(
        ByteSpan(tampered.data(), tampered.size()), &decoded, &out);
    EXPECT_FALSE(status.ok()) << "flip at byte " << i << " went undetected";
  }
}

TEST(SegmentCodecTest, TruncationIsDetected) {
  const std::string payload = "truncate me";
  auditlog::SegmentInfo info = MakeSegmentInfo();
  info.raw_size = payload.size();
  const Bytes stored = auditlog::EncodeSealedSegment(
      info,
      ByteSpan(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size()));
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 stored.size() / 2, stored.size() - 1}) {
    auditlog::SegmentInfo decoded;
    Bytes out;
    auto status = auditlog::DecodeSealedSegment(ByteSpan(stored.data(), keep),
                                                &decoded, &out);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "kept " << keep;
  }
}

// ---- SegmentedLog ---------------------------------------------------------

/// Deterministic per-batch fake chain digest (the log treats the chain as
/// opaque — only cross-segment linkage is its business).
crypto::Sha256Digest FakeChain(std::uint32_t i) {
  crypto::Sha256Digest digest{};
  digest[0] = static_cast<std::uint8_t>(i);
  digest[1] = static_cast<std::uint8_t>(i >> 8);
  return digest;
}

TEST(SegmentedLogTest, SealsRotatesAndMountsBack) {
  StoreFixture fx;
  auto log = auditlog::SegmentedLog::Create(fx.store.get(), fx.manifest,
                                            TinySegments());
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  Bytes everything;
  for (std::uint32_t i = 0; i < 40; ++i) {
    std::string batch = "batch-" + std::to_string(i) + "-";
    batch.append(48, static_cast<char>('a' + (i % 26)));
    const ByteSpan raw(reinterpret_cast<const std::uint8_t*>(batch.data()),
                       batch.size());
    ASSERT_TRUE((*log)->AppendBatch(raw, /*entry_count=*/2, FakeChain(i)).ok());
    everything.insert(everything.end(), raw.begin(), raw.end());
  }
  EXPECT_GE((*log)->sealed().size(), 2u) << "tiny segments never sealed";
  EXPECT_EQ((*log)->total_entries(), 80u);
  const auto sealed_count = (*log)->sealed().size();

  // Mount a second instance over the same manifest: identical stream.
  auto mounted = auditlog::SegmentedLog::Mount(fx.store.get(), fx.manifest,
                                               TinySegments());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ((*mounted)->sealed().size(), sealed_count);
  EXPECT_EQ((*mounted)->sealed_entry_total(), (*log)->sealed_entry_total());
  auto stream = (*mounted)->RawStream();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(*stream, everything);

  // ScanRaw chunks concatenate to the same stream.
  Bytes scanned;
  ASSERT_TRUE((*mounted)
                  ->ScanRaw([&](ByteSpan chunk) {
                    scanned.insert(scanned.end(), chunk.begin(), chunk.end());
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(scanned, everything);
}

/// Build a log with sealed segments + a non-empty active tail, then hand
/// the fixture to a corruption case.
void BuildSealedLog(StoreFixture& fx, std::vector<auditlog::SealedSegment>* sealed,
                    inodefs::InodeId* active) {
  auto log = auditlog::SegmentedLog::Create(fx.store.get(), fx.manifest,
                                            TinySegments());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (std::uint32_t i = 0; i < 24; ++i) {
    std::string batch = "payload-" + std::to_string(i) + "-";
    batch.append(40, 'x');
    ASSERT_TRUE((*log)
                    ->AppendBatch(
                        ByteSpan(reinterpret_cast<const std::uint8_t*>(
                                     batch.data()),
                                 batch.size()),
                        1, FakeChain(i))
                    .ok());
  }
  ASSERT_GE((*log)->sealed().size(), 2u);
  ASSERT_GT((*log)->active_raw_bytes(), 0u);
  *sealed = (*log)->sealed();
  *active = (*log)->active_inode();
}

TEST(SegmentedLogTest, ManifestCorruptionFailsMount) {
  StoreFixture fx;
  std::vector<auditlog::SealedSegment> sealed;
  inodefs::InodeId active = inodefs::kInvalidInode;
  BuildSealedLog(fx, &sealed, &active);

  auto manifest = fx.store->ReadAll(fx.manifest);
  ASSERT_TRUE(manifest.ok());
  Bytes tampered = *manifest;
  tampered[tampered.size() / 2] ^= 0x10;
  ASSERT_TRUE(fx.store
                  ->WriteAll(fx.manifest,
                             ByteSpan(tampered.data(), tampered.size()))
                  .ok());
  auto mounted = auditlog::SegmentedLog::Mount(fx.store.get(), fx.manifest,
                                               TinySegments());
  EXPECT_EQ(mounted.status().code(), StatusCode::kCorruption);
}

TEST(SegmentedLogTest, SealedSegmentBitFlipFailsMount) {
  StoreFixture fx;
  std::vector<auditlog::SealedSegment> sealed;
  inodefs::InodeId active = inodefs::kInvalidInode;
  BuildSealedLog(fx, &sealed, &active);

  auto segment = fx.store->ReadAll(sealed.front().inode);
  ASSERT_TRUE(segment.ok());
  Bytes tampered = *segment;
  tampered[tampered.size() - 3] ^= 0x01;  // inside the payload
  ASSERT_TRUE(fx.store
                  ->WriteAll(sealed.front().inode,
                             ByteSpan(tampered.data(), tampered.size()))
                  .ok());
  auto mounted = auditlog::SegmentedLog::Mount(fx.store.get(), fx.manifest,
                                               TinySegments());
  EXPECT_EQ(mounted.status().code(), StatusCode::kCorruption);
}

TEST(SegmentedLogTest, SealedSegmentTruncationFailsMount) {
  StoreFixture fx;
  std::vector<auditlog::SealedSegment> sealed;
  inodefs::InodeId active = inodefs::kInvalidInode;
  BuildSealedLog(fx, &sealed, &active);

  auto segment = fx.store->ReadAll(sealed.back().inode);
  ASSERT_TRUE(segment.ok());
  ASSERT_TRUE(fx.store
                  ->Truncate(sealed.back().inode, segment->size() - 3,
                             /*scrub=*/false)
                  .ok());
  auto mounted = auditlog::SegmentedLog::Mount(fx.store.get(), fx.manifest,
                                               TinySegments());
  EXPECT_EQ(mounted.status().code(), StatusCode::kCorruption);
}

// ---- DurableAuditPipeline -------------------------------------------------

sentinel::AuditPipelineOptions SmallPipelineOptions() {
  sentinel::AuditPipelineOptions options;
  options.segments = TinySegments();
  return options;
}

TEST(AuditPipelineTest, RecordsFlushAndRemountChainVerified) {
  StoreFixture fx;
  {
    auto pipeline = sentinel::DurableAuditPipeline::Create(
        fx.store.get(), fx.manifest, SmallPipelineOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    sentinel::AuditSink sink;
    sink.AttachPipeline(pipeline->get());
    for (int i = 0; i < 200; ++i) {
      sink.Record(MakeAuditEntry(i));
    }
    auto flushed = (*pipeline)->Flush();
    ASSERT_TRUE(flushed.ok()) << flushed.ToString();
    EXPECT_EQ((*pipeline)->durable_entries(), 200u);
    EXPECT_EQ((*pipeline)->lost_entries(), 0u);
    EXPECT_EQ(sink.dropped_count(), 0u);

    auto denied = (*pipeline)->QueryDurable(
        [](const sentinel::AuditEntry& e) { return !e.allowed; });
    ASSERT_TRUE(denied.ok()) << denied.status().ToString();
    EXPECT_EQ(denied->size(), 100u);
    sink.AttachPipeline(nullptr);
  }

  // Second boot over the same manifest: the chain continues seamlessly.
  {
    auto pipeline = sentinel::DurableAuditPipeline::Create(
        fx.store.get(), fx.manifest, SmallPipelineOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    EXPECT_EQ((*pipeline)->durable_entries(), 200u);
    for (int i = 200; i < 250; ++i) {
      EXPECT_TRUE((*pipeline)->Enqueue(MakeAuditEntry(i)));
    }
    ASSERT_TRUE((*pipeline)->Flush().ok());
  }

  // Cold remount path: decode + verify the whole chain from the store.
  auto entries =
      sentinel::DurableAuditPipeline::LoadEntries(fx.store.get(), fx.manifest);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 250u);
  crypto::Sha256Digest prev{};
  for (std::size_t i = 0; i < entries->size(); ++i) {
    const auto& entry = (*entries)[i];
    EXPECT_EQ(entry.seq, i);
    EXPECT_EQ(entry.request.detail, "audit-" + std::to_string(i));
    const auto expect =
        sentinel::DurableAuditPipeline::HashEntry(entry, prev);
    EXPECT_TRUE(crypto::DigestEqual(entry.chain, expect)) << "seq " << i;
    prev = entry.chain;
  }
}

TEST(AuditPipelineTest, BackpressureTimesOutLoudlyAndCountsTheLoss) {
  StoreFixture fx;
  sentinel::AuditPipelineOptions options = SmallPipelineOptions();
  options.queue_capacity = 2;
  options.backpressure_deadline_micros = 20'000;
  auto pipeline = sentinel::DurableAuditPipeline::Create(
      fx.store.get(), fx.manifest, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  (*pipeline)->SetWriterPausedForTest(true);

  sentinel::AuditSink sink;
  sink.AttachPipeline(pipeline->get());
  EXPECT_TRUE((*pipeline)->Enqueue(MakeAuditEntry(0)));
  EXPECT_TRUE((*pipeline)->Enqueue(MakeAuditEntry(1)));
  // Queue full, writer frozen: the third Record must time out, count the
  // loss at the pipeline AND at the sink — never silently vanish.
  sink.Record(MakeAuditEntry(2));
  EXPECT_GE((*pipeline)->backpressure_timeouts(), 1u);
  EXPECT_GE((*pipeline)->lost_entries(), 1u);
  EXPECT_EQ(sink.dropped_count(), 1u);

  (*pipeline)->SetWriterPausedForTest(false);
  ASSERT_TRUE((*pipeline)->Flush().ok());
  EXPECT_EQ((*pipeline)->durable_entries(), 2u);
  sink.AttachPipeline(nullptr);
}

TEST(AuditPipelineTest, BackpressureUnblocksWhenWriterResumes) {
  StoreFixture fx;
  sentinel::AuditPipelineOptions options = SmallPipelineOptions();
  options.queue_capacity = 1;
  options.backpressure_deadline_micros = 5'000'000;
  auto pipeline = sentinel::DurableAuditPipeline::Create(
      fx.store.get(), fx.manifest, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  (*pipeline)->SetWriterPausedForTest(true);
  EXPECT_TRUE((*pipeline)->Enqueue(MakeAuditEntry(0)));  // fills the queue

  bool accepted = false;
  std::thread producer([&] {
    accepted = (*pipeline)->Enqueue(MakeAuditEntry(1));  // blocks
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*pipeline)->SetWriterPausedForTest(false);
  producer.join();
  EXPECT_TRUE(accepted) << "producer should unblock, not time out";
  EXPECT_GE((*pipeline)->backpressure_waits(), 1u);
  EXPECT_EQ((*pipeline)->backpressure_timeouts(), 0u);
  ASSERT_TRUE((*pipeline)->Flush().ok());
  EXPECT_EQ((*pipeline)->durable_entries(), 2u);
}

TEST(AuditPipelineTest, ZeroDeadlineFailsFastWhenFull) {
  StoreFixture fx;
  sentinel::AuditPipelineOptions options = SmallPipelineOptions();
  options.queue_capacity = 1;
  options.backpressure_deadline_micros = 0;
  auto pipeline = sentinel::DurableAuditPipeline::Create(
      fx.store.get(), fx.manifest, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  (*pipeline)->SetWriterPausedForTest(true);
  EXPECT_TRUE((*pipeline)->Enqueue(MakeAuditEntry(0)));
  EXPECT_FALSE((*pipeline)->Enqueue(MakeAuditEntry(1)));
  EXPECT_GE((*pipeline)->backpressure_timeouts(), 1u);
  (*pipeline)->SetWriterPausedForTest(false);
}

// ---- ProcessingLog over the segmented store --------------------------------

void AppendLogEntries(core::ProcessingLog& log, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    log.Append("proc-" + std::to_string(i % 3), "purpose-" + std::to_string(i % 2),
               /*subject=*/1 + (i % 2), /*record=*/100 + i,
               core::LogOutcome::kProcessed, "detail-" + std::to_string(i));
  }
}

TEST(ProcessingLogSegmentedTest, HotWindowTrimsButQueriesSeeFullHistory) {
  StoreFixture fx;
  core::ProcessingLog log(&fx.clock);
  ASSERT_TRUE(
      log.AttachSegmentedStore(fx.store.get(), fx.manifest, TinySegments())
          .ok());
  log.SetHotWindow(4);
  AppendLogEntries(log, 0, 20);

  EXPECT_EQ(log.entry_count(), 4u);
  EXPECT_EQ(log.total_entries(), 20u);
  EXPECT_TRUE(log.VerifyChain()) << "window chain must verify from its anchor";
  ASSERT_TRUE(log.VerifyDurableChain().ok());

  // Queries reach past the trimmed window into the sealed history.
  const auto subject1 = log.ForSubject(1);
  EXPECT_EQ(subject1.size(), 10u);
  const auto rec = log.ForRecord(100);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.front().seq, 0u);

  std::uint64_t seen = 0;
  ASSERT_TRUE(log.ForEach([&](const core::LogEntry& entry) {
                   EXPECT_EQ(entry.seq, seen);
                   ++seen;
                 })
                  .ok());
  EXPECT_EQ(seen, 20u);
}

TEST(ProcessingLogSegmentedTest, ReloadContinuesChainAcrossRemount) {
  StoreFixture fx;
  {
    core::ProcessingLog log(&fx.clock);
    ASSERT_TRUE(
        log.AttachSegmentedStore(fx.store.get(), fx.manifest, TinySegments())
            .ok());
    AppendLogEntries(log, 0, 30);
  }
  fx.Remount();
  core::ProcessingLog log(&fx.clock);
  ASSERT_TRUE(
      log.LoadFromStore(fx.store.get(), fx.manifest, TinySegments()).ok());
  EXPECT_EQ(log.total_entries(), 30u);
  AppendLogEntries(log, 30, 10);
  EXPECT_EQ(log.total_entries(), 40u);
  ASSERT_TRUE(log.VerifyDurableChain().ok());
  std::uint64_t seen = 0;
  ASSERT_TRUE(log.ForEach([&](const core::LogEntry& entry) {
                   EXPECT_EQ(entry.seq, seen);
                   ++seen;
                 })
                  .ok());
  EXPECT_EQ(seen, 40u);
}

/// Corruption matrix over a persisted segmented log: every case builds a
/// fresh image, mutilates it one way, and must get kCorruption back —
/// never a clean load of tampered evidence.
class ProcessingLogCorruptionTest : public ::testing::Test {
 protected:
  /// Returns the active-tail inode; fills fx_ with a log that has >= 2
  /// sealed segments and a non-empty active tail.
  inodefs::InodeId Build() {
    core::ProcessingLog log(&fx_.clock);
    EXPECT_TRUE(
        log.AttachSegmentedStore(fx_.store.get(), fx_.manifest, TinySegments())
            .ok());
    AppendLogEntries(log, 0, 30);
    auto mounted = auditlog::SegmentedLog::Mount(fx_.store.get(), fx_.manifest,
                                                 TinySegments());
    EXPECT_TRUE(mounted.ok()) << mounted.status().ToString();
    EXPECT_GE((*mounted)->sealed().size(), 2u);
    EXPECT_GT((*mounted)->active_raw_bytes(), 0u);
    sealed_ = (*mounted)->sealed();
    return (*mounted)->active_inode();
  }

  Status Reload() {
    core::ProcessingLog log(&fx_.clock);
    return log.LoadFromStore(fx_.store.get(), fx_.manifest, TinySegments());
  }

  StoreFixture fx_;
  std::vector<auditlog::SealedSegment> sealed_;
};

TEST_F(ProcessingLogCorruptionTest, TailTruncationMidEntry) {
  const inodefs::InodeId active = Build();
  auto tail = fx_.store->ReadAll(active);
  ASSERT_TRUE(tail.ok());
  ASSERT_GT(tail->size(), 3u);
  // Cut inside the last entry's chain digest.
  ASSERT_TRUE(
      fx_.store->Truncate(active, tail->size() - 3, /*scrub=*/false).ok());
  EXPECT_EQ(Reload().code(), StatusCode::kCorruption);
}

TEST_F(ProcessingLogCorruptionTest, MiddleSpliceInActiveTail) {
  const inodefs::InodeId active = Build();
  auto tail = fx_.store->ReadAll(active);
  ASSERT_TRUE(tail.ok());
  ASSERT_GT(tail->size(), 24u);
  // Excise a byte run from the middle — a splice the chain must expose.
  Bytes spliced(tail->begin(), tail->begin() + 8);
  spliced.insert(spliced.end(), tail->begin() + 20, tail->end());
  ASSERT_TRUE(
      fx_.store->WriteAll(active, ByteSpan(spliced.data(), spliced.size()))
          .ok());
  EXPECT_EQ(Reload().code(), StatusCode::kCorruption);
}

TEST_F(ProcessingLogCorruptionTest, SingleBitFlipInSealedSegment) {
  Build();
  auto segment = fx_.store->ReadAll(sealed_.front().inode);
  ASSERT_TRUE(segment.ok());
  Bytes tampered = *segment;
  tampered[tampered.size() / 2] ^= 0x04;
  ASSERT_TRUE(fx_.store
                  ->WriteAll(sealed_.front().inode,
                             ByteSpan(tampered.data(), tampered.size()))
                  .ok());
  EXPECT_EQ(Reload().code(), StatusCode::kCorruption);
}

TEST_F(ProcessingLogCorruptionTest, SingleBitFlipInActiveTail) {
  const inodefs::InodeId active = Build();
  auto tail = fx_.store->ReadAll(active);
  ASSERT_TRUE(tail.ok());
  Bytes tampered = *tail;
  tampered[tampered.size() / 2] ^= 0x40;
  ASSERT_TRUE(fx_.store
                  ->WriteAll(active, ByteSpan(tampered.data(), tampered.size()))
                  .ok());
  EXPECT_EQ(Reload().code(), StatusCode::kCorruption);
}

TEST_F(ProcessingLogCorruptionTest, FlatEntryStreamIsNotAManifest) {
  // Chain-valid entries written straight into the log inode with no
  // manifest in front of them (the retired flat format) are rejected.
  core::ProcessingLog memory_only(&fx_.clock);
  AppendLogEntries(memory_only, 0, 5);
  Bytes flat;
  for (const core::LogEntry& entry : memory_only.entries()) {
    const Bytes encoded = core::ProcessingLog::EncodeEntry(entry);
    flat.insert(flat.end(), encoded.begin(), encoded.end());
  }
  ASSERT_TRUE(
      fx_.store->WriteAll(fx_.manifest, ByteSpan(flat.data(), flat.size()))
          .ok());
  EXPECT_EQ(Reload().code(), StatusCode::kCorruption);
}

// ---- crash-at-every-write sweep over seal/rotation -------------------------

/// One deterministic pipeline run over a fault-injecting device. The
/// medium is formatted (and seeded with a few pre-crash entries) WITHOUT
/// faults; the decorated phase then mounts, appends `kCrashEntries`
/// entries through the pipeline with a Flush barrier per entry (so the
/// write schedule is deterministic), sealing several segments along the
/// way. Returns the number of entries whose Flush succeeded.
struct CrashRunResult {
  std::uint64_t acked = 0;         ///< entries durably acked pre-crash
  std::uint64_t writes_seen = 0;   ///< device writes in the faulted phase
  bool mounted = false;            ///< workload phase reached the pipeline
};

constexpr int kSeedEntries = 4;
constexpr int kCrashEntries = 20;

CrashRunResult RunAuditCrashWorkload(blockdev::MemBlockDevice& medium,
                                     SimClock& clock,
                                     inodefs::InodeId* manifest_out,
                                     const blockdev::FaultPlan& plan) {
  // Phase 1: pristine format + seed entries, no faults.
  inodefs::InodeId manifest = inodefs::kInvalidInode;
  {
    auto store = inodefs::InodeStore::Format(&medium, SmallStoreOptions(),
                                             &clock);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    auto id = (*store)->AllocInode(inodefs::InodeKind::kFile);
    EXPECT_TRUE(id.ok());
    manifest = *id;
    auto pipeline = sentinel::DurableAuditPipeline::Create(
        store->get(), manifest, SmallPipelineOptions());
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (int i = 0; i < kSeedEntries; ++i) {
      EXPECT_TRUE((*pipeline)->Enqueue(MakeAuditEntry(i)));
    }
    EXPECT_TRUE((*pipeline)->Flush().ok());
  }
  *manifest_out = manifest;

  // Phase 2: the faulted run.
  CrashRunResult result;
  blockdev::FaultInjectingBlockDevice faulty(&medium, plan);
  auto store = inodefs::InodeStore::Mount(&faulty, &clock);
  if (!store.ok()) {
    // The crash landed inside mount replay — must be kCrashed, never a
    // corruption verdict on a journaled image.
    EXPECT_EQ(store.status().code(), StatusCode::kCrashed)
        << store.status().ToString();
    result.writes_seen = faulty.fault_stats().writes_seen;
    return result;
  }
  auto pipeline = sentinel::DurableAuditPipeline::Create(
      store->get(), manifest, SmallPipelineOptions());
  if (!pipeline.ok()) {
    EXPECT_EQ(pipeline.status().code(), StatusCode::kCrashed)
        << pipeline.status().ToString();
    result.writes_seen = faulty.fault_stats().writes_seen;
    return result;
  }
  result.mounted = true;
  result.acked = kSeedEntries;
  for (int i = 0; i < kCrashEntries; ++i) {
    if (!(*pipeline)->Enqueue(MakeAuditEntry(kSeedEntries + i))) break;
    if (!(*pipeline)->Flush().ok()) break;
    result.acked = kSeedEntries + i + 1;
  }
  (*pipeline)->Stop();
  result.writes_seen = faulty.fault_stats().writes_seen;
  return result;
}

TEST(AuditPipelineRecovery, CrashAtEveryWriteRecoversAckedPrefix) {
  // Baseline: count the faulted phase's writes with no crash planned.
  std::uint64_t total_writes = 0;
  {
    SimClock clock(1000);
    blockdev::MemBlockDevice medium(512, 4096);
    inodefs::InodeId manifest = inodefs::kInvalidInode;
    const auto base = RunAuditCrashWorkload(medium, clock, &manifest,
                                            blockdev::FaultPlan{});
    ASSERT_TRUE(base.mounted);
    ASSERT_EQ(base.acked, static_cast<std::uint64_t>(kSeedEntries +
                                                     kCrashEntries));
    total_writes = base.writes_seen;
    ASSERT_GT(total_writes, 20u) << "workload too small to sweep";
  }

  for (std::uint64_t crash_at = 1; crash_at <= total_writes; ++crash_at) {
    SimClock clock(1000);
    blockdev::MemBlockDevice medium(512, 4096);
    blockdev::FaultPlan plan;
    plan.crash_at_write = crash_at;
    inodefs::InodeId manifest = inodefs::kInvalidInode;
    const auto run = RunAuditCrashWorkload(medium, clock, &manifest, plan);

    // Reboot: remount the raw medium and re-verify the whole chain.
    SimClock reboot_clock(9999);
    auto store = inodefs::InodeStore::Mount(&medium, &reboot_clock);
    ASSERT_TRUE(store.ok())
        << plan.ToString() << " remount: " << store.status().ToString();
    auto entries = sentinel::DurableAuditPipeline::LoadEntries(store->get(),
                                                               manifest);
    ASSERT_TRUE(entries.ok())
        << plan.ToString() << " load: " << entries.status().ToString();

    // Every acked entry survived; anything beyond is the in-flight batch.
    ASSERT_GE(entries->size(), run.acked) << plan.ToString();
    ASSERT_LE(entries->size(),
              static_cast<std::size_t>(kSeedEntries + kCrashEntries))
        << plan.ToString();
    for (std::size_t i = 0; i < entries->size(); ++i) {
      ASSERT_EQ((*entries)[i].seq, i) << plan.ToString();
      ASSERT_EQ((*entries)[i].request.detail, "audit-" + std::to_string(i))
          << plan.ToString();
    }
  }
}

TEST(AuditPipelineRecovery, TornCrashWritesRecoverToo) {
  // Same sweep, strided, with torn final writes — the half-sector case.
  std::uint64_t total_writes = 0;
  {
    SimClock clock(1000);
    blockdev::MemBlockDevice medium(512, 4096);
    inodefs::InodeId manifest = inodefs::kInvalidInode;
    total_writes = RunAuditCrashWorkload(medium, clock, &manifest,
                                         blockdev::FaultPlan{})
                       .writes_seen;
  }
  for (std::uint64_t crash_at = 3; crash_at <= total_writes; crash_at += 7) {
    SimClock clock(1000);
    blockdev::MemBlockDevice medium(512, 4096);
    blockdev::FaultPlan plan;
    plan.crash_at_write = crash_at;
    plan.torn_bytes = 200;
    inodefs::InodeId manifest = inodefs::kInvalidInode;
    const auto run = RunAuditCrashWorkload(medium, clock, &manifest, plan);

    SimClock reboot_clock(9999);
    auto store = inodefs::InodeStore::Mount(&medium, &reboot_clock);
    ASSERT_TRUE(store.ok())
        << plan.ToString() << " remount: " << store.status().ToString();
    auto entries = sentinel::DurableAuditPipeline::LoadEntries(store->get(),
                                                               manifest);
    ASSERT_TRUE(entries.ok())
        << plan.ToString() << " load: " << entries.status().ToString();
    ASSERT_GE(entries->size(), run.acked) << plan.ToString();
    for (std::size_t i = 0; i < entries->size(); ++i) {
      ASSERT_EQ((*entries)[i].seq, i) << plan.ToString();
    }
  }
}

// ---- regulator export -----------------------------------------------------

TEST(RegulatorExportTest, AuditTrailByteIdenticalAcrossRemount) {
  StoreFixture fx;
  {
    auto pipeline = sentinel::DurableAuditPipeline::Create(
        fx.store.get(), fx.manifest, SmallPipelineOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE((*pipeline)->Enqueue(MakeAuditEntry(i)));
    }
    ASSERT_TRUE((*pipeline)->Flush().ok());
  }
  auto before = core::RegulatorExporter::ExportAuditTrail(fx.store.get(),
                                                          fx.manifest);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_NE(before->find("\"entries\":60"), std::string::npos);

  fx.Remount();
  auto after = core::RegulatorExporter::ExportAuditTrail(fx.store.get(),
                                                         fx.manifest);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*before, *after) << "export must be byte-stable across remount";
}

TEST(RegulatorExportTest, ProcessingExportsSurviveReloadAndTrimming) {
  StoreFixture fx;
  std::string before_all;
  std::string before_subject;
  {
    core::ProcessingLog log(&fx.clock);
    ASSERT_TRUE(
        log.AttachSegmentedStore(fx.store.get(), fx.manifest, TinySegments())
            .ok());
    AppendLogEntries(log, 0, 25);
    core::RegulatorExporter exporter(&log);
    auto all = exporter.ExportAll();
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    before_all = *all;
    auto subject = exporter.ExportSubject(1);
    ASSERT_TRUE(subject.ok());
    before_subject = *subject;
    EXPECT_NE(before_all.find("\"entries\":25"), std::string::npos);
  }

  fx.Remount();
  core::ProcessingLog log(&fx.clock);
  ASSERT_TRUE(
      log.LoadFromStore(fx.store.get(), fx.manifest, TinySegments()).ok());
  // Trim the hot window hard: exports read the durable history, so the
  // output must not depend on what is cached in memory.
  log.SetHotWindow(2);
  core::RegulatorExporter exporter(&log);
  auto all = exporter.ExportAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(before_all, *all);
  auto subject = exporter.ExportSubject(1);
  ASSERT_TRUE(subject.ok());
  EXPECT_EQ(before_subject, *subject);

  auto purpose = exporter.ExportPurpose("purpose-0");
  ASSERT_TRUE(purpose.ok());
  EXPECT_NE(purpose->find("\"entries\":13"), std::string::npos);
}

}  // namespace
}  // namespace rgpdos

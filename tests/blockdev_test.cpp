// Block-device substrate tests: bounds, stats, raw-medium scans, the
// latency cost model, the traffic recorder, and the file-backed device.
#include <gtest/gtest.h>

#include <cstdio>

#include "blockdev/async.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/fault_injection.hpp"
#include "blockdev/file_block_device.hpp"
#include "blockdev/latency_model.hpp"
#include "blockdev/traffic_recorder.hpp"

namespace rgpdos::blockdev {
namespace {

Bytes BlockOf(std::uint32_t size, std::uint8_t fill) {
  return Bytes(size, fill);
}

TEST(MemBlockDeviceTest, ReadWriteRoundTrip) {
  MemBlockDevice device(512, 8);
  EXPECT_EQ(device.capacity_bytes(), 512u * 8);
  ASSERT_TRUE(device.WriteBlock(3, BlockOf(512, 0xAB)).ok());
  Bytes out;
  ASSERT_TRUE(device.ReadBlock(3, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0xAB));
  // Fresh blocks read as zeros.
  ASSERT_TRUE(device.ReadBlock(0, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x00));
}

TEST(MemBlockDeviceTest, BoundsAndSizeChecks) {
  MemBlockDevice device(512, 4);
  Bytes out;
  EXPECT_EQ(device.ReadBlock(4, out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(device.WriteBlock(4, BlockOf(512, 0)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(device.WriteBlock(0, BlockOf(100, 0)).code(),
            StatusCode::kInvalidArgument);
}

TEST(MemBlockDeviceTest, StatsAccumulate) {
  MemBlockDevice device(512, 4);
  Bytes out;
  ASSERT_TRUE(device.WriteBlock(0, BlockOf(512, 1)).ok());
  ASSERT_TRUE(device.ReadBlock(0, out).ok());
  ASSERT_TRUE(device.ReadBlock(1, out).ok());
  ASSERT_TRUE(device.Flush().ok());
  EXPECT_EQ(device.stats().writes, 1u);
  EXPECT_EQ(device.stats().reads, 2u);
  EXPECT_EQ(device.stats().bytes_written, 512u);
  EXPECT_EQ(device.stats().bytes_read, 1024u);
  EXPECT_EQ(device.stats().flushes, 1u);
}

TEST(MemBlockDeviceTest, CountBlocksContainingFindsPattern) {
  MemBlockDevice device(512, 4);
  Bytes block = BlockOf(512, 0);
  const Bytes needle = ToBytes("SECRET");
  std::copy(needle.begin(), needle.end(), block.begin() + 100);
  ASSERT_TRUE(device.WriteBlock(1, block).ok());
  ASSERT_TRUE(device.WriteBlock(3, block).ok());
  EXPECT_EQ(CountBlocksContaining(device, needle), 2u);
  EXPECT_EQ(CountBlocksContaining(device, ToBytes("ABSENT")), 0u);
}

TEST(MemBlockDeviceTest, CountBlocksContainingFindsStraddlingPattern) {
  MemBlockDevice device(512, 4);
  const Bytes needle = ToBytes("STRADDLE");
  // Split the needle across the block 0 / block 1 boundary.
  Bytes b0 = BlockOf(512, 0);
  Bytes b1 = BlockOf(512, 0);
  std::copy(needle.begin(), needle.begin() + 4, b0.end() - 4);
  std::copy(needle.begin() + 4, needle.end(), b1.begin());
  ASSERT_TRUE(device.WriteBlock(0, b0).ok());
  ASSERT_TRUE(device.WriteBlock(1, b1).ok());
  EXPECT_GE(CountBlocksContaining(device, needle), 1u);
}

TEST(LatencyModelTest, AccumulatesSimulatedTime) {
  auto inner = std::make_unique<MemBlockDevice>(512, 8);
  LatencyModelDevice device(std::move(inner), LatencyProfile::Nvme());
  Bytes out;
  ASSERT_TRUE(device.WriteBlock(0, BlockOf(512, 1)).ok());
  ASSERT_TRUE(device.ReadBlock(0, out).ok());
  ASSERT_TRUE(device.Flush().ok());
  EXPECT_EQ(device.simulated_ns(), 20'000u + 10'000u + 50'000u);
  device.ResetSimulatedTime();
  EXPECT_EQ(device.simulated_ns(), 0u);
}

TEST(LatencyModelTest, HddIsSlowerThanNvme) {
  EXPECT_GT(LatencyProfile::Hdd().read_ns, LatencyProfile::Nvme().read_ns);
  EXPECT_GT(LatencyProfile::Hdd().write_ns, LatencyProfile::Nvme().write_ns);
}

TEST(TrafficRecorderTest, RemembersOverwrittenHistory) {
  auto inner = std::make_unique<MemBlockDevice>(512, 8);
  TrafficRecorder recorder(std::move(inner));
  const Bytes secret = ToBytes("TOPSECRET");
  Bytes block = BlockOf(512, 0);
  std::copy(secret.begin(), secret.end(), block.begin());
  ASSERT_TRUE(recorder.WriteBlock(0, block).ok());
  // Overwrite in place: the current medium no longer holds the secret...
  ASSERT_TRUE(recorder.WriteBlock(0, BlockOf(512, 0)).ok());
  EXPECT_EQ(CountBlocksContaining(recorder, secret), 0u);
  // ...but the write history still does: the Fig-2 observation.
  EXPECT_EQ(recorder.CountHistoricalWritesContaining(secret), 1u);
  EXPECT_EQ(recorder.history_bytes(), 1024u);
  recorder.ClearHistory();
  EXPECT_EQ(recorder.CountHistoricalWritesContaining(secret), 0u);
}

TEST(FileBlockDeviceTest, PersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/rgpd_fbd_test.img";
  std::remove(path.c_str());
  {
    auto device = FileBlockDevice::Open(path, 512, 16);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    ASSERT_TRUE((*device)->WriteBlock(5, BlockOf(512, 0x7E)).ok());
    ASSERT_TRUE((*device)->Flush().ok());
  }
  {
    auto device = FileBlockDevice::Open(path, 512, 16);
    ASSERT_TRUE(device.ok());
    Bytes out;
    ASSERT_TRUE((*device)->ReadBlock(5, out).ok());
    EXPECT_EQ(out, BlockOf(512, 0x7E));
    // Unwritten sparse block reads as zeros.
    ASSERT_TRUE((*device)->ReadBlock(9, out).ok());
    EXPECT_EQ(out, BlockOf(512, 0x00));
  }
  std::remove(path.c_str());
}

// ---- fault injection --------------------------------------------------------

TEST(FaultInjectionTest, CrashAtWriteNFailsThatAndAllLaterIo) {
  MemBlockDevice inner(512, 32);
  FaultPlan plan;
  plan.crash_at_write = 3;
  FaultInjectingBlockDevice fault(&inner, plan);

  ASSERT_TRUE(fault.WriteBlock(1, BlockOf(512, 0x11)).ok());
  ASSERT_TRUE(fault.WriteBlock(2, BlockOf(512, 0x22)).ok());
  EXPECT_EQ(fault.WriteBlock(3, BlockOf(512, 0x33)).code(),
            StatusCode::kCrashed);
  EXPECT_TRUE(fault.crashed());

  // Everything after the crash is rejected until a power cycle.
  Bytes out;
  EXPECT_EQ(fault.ReadBlock(1, out).code(), StatusCode::kCrashed);
  EXPECT_EQ(fault.WriteBlock(4, BlockOf(512, 0x44)).code(),
            StatusCode::kCrashed);
  EXPECT_EQ(fault.Flush().code(), StatusCode::kCrashed);
  EXPECT_GE(fault.fault_stats().crashed_rejections, 3u);

  // The medium keeps what was written before the crash; the crashing
  // write (torn_bytes = 0) left nothing.
  ASSERT_TRUE(inner.ReadBlock(1, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x11));
  ASSERT_TRUE(inner.ReadBlock(3, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x00));

  fault.PowerCycle();
  EXPECT_FALSE(fault.crashed());
  ASSERT_TRUE(fault.ReadBlock(1, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x11));
}

TEST(FaultInjectionTest, TornWritePersistsOnlyPrefix) {
  MemBlockDevice inner(512, 32);
  FaultPlan plan;
  plan.crash_at_write = 1;
  plan.torn_bytes = 100;
  FaultInjectingBlockDevice fault(&inner, plan);

  ASSERT_TRUE(inner.WriteBlock(5, BlockOf(512, 0xEE)).ok());
  EXPECT_EQ(fault.WriteBlock(5, BlockOf(512, 0x77)).code(),
            StatusCode::kCrashed);
  EXPECT_EQ(fault.fault_stats().torn_writes, 1u);

  // First 100 bytes are new, the rest keeps the old image.
  Bytes out;
  ASSERT_TRUE(inner.ReadBlock(5, out).ok());
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(out[i], i < 100 ? 0x77 : 0xEE) << "byte " << i;
  }
}

TEST(FaultInjectionTest, WriteBackBufferDropsUnflushedOnCrash) {
  MemBlockDevice inner(512, 32);
  FaultPlan plan;
  plan.volatile_write_back = true;
  FaultInjectingBlockDevice fault(&inner, plan);

  // Unflushed write: visible through the device (read-your-writes), but
  // not yet on the medium.
  ASSERT_TRUE(fault.WriteBlock(1, BlockOf(512, 0x11)).ok());
  Bytes out;
  ASSERT_TRUE(fault.ReadBlock(1, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x11));
  ASSERT_TRUE(inner.ReadBlock(1, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x00));

  // Flush drains the buffer to the medium.
  ASSERT_TRUE(fault.Flush().ok());
  ASSERT_TRUE(inner.ReadBlock(1, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x11));

  // A post-flush write sits in the buffer again; the crash discards it.
  ASSERT_TRUE(fault.WriteBlock(2, BlockOf(512, 0x22)).ok());
  fault.Crash();
  EXPECT_EQ(fault.fault_stats().dropped_blocks, 1u);
  fault.PowerCycle();
  ASSERT_TRUE(fault.ReadBlock(2, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x00));  // lost: never flushed
  ASSERT_TRUE(fault.ReadBlock(1, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x11));  // survived: flushed before crash
}

TEST(FaultInjectionTest, TransientErrorsFailOnceThenSucceed) {
  MemBlockDevice inner(512, 32);
  FaultPlan plan;
  plan.transient_error_every = 3;
  FaultInjectingBlockDevice fault(&inner, plan);

  // IOs 1,2 fine; IO 3 fails once; the retry (IO counter advances past
  // the faulty index) succeeds.
  Bytes out;
  ASSERT_TRUE(fault.ReadBlock(0, out).ok());
  ASSERT_TRUE(fault.WriteBlock(1, BlockOf(512, 0x11)).ok());
  EXPECT_EQ(fault.WriteBlock(2, BlockOf(512, 0x22)).code(),
            StatusCode::kIoError);
  ASSERT_TRUE(fault.WriteBlock(2, BlockOf(512, 0x22)).ok());
  EXPECT_GE(fault.fault_stats().transient_errors, 1u);
  ASSERT_TRUE(inner.ReadBlock(2, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x22));
}

TEST(FaultInjectionTest, CrashFiresAtItsWriteEvenWhenDueATransientError) {
  MemBlockDevice inner(512, 32);
  FaultPlan plan;
  plan.crash_at_write = 2;
  plan.transient_error_every = 2;  // write 2 is also IO 2
  FaultInjectingBlockDevice fault(&inner, plan);

  ASSERT_TRUE(fault.WriteBlock(1, BlockOf(512, 0x11)).ok());
  // Power loss preempts the bus error: write 2 crashes instead of
  // failing transiently and letting its retry (write 3) through.
  EXPECT_EQ(fault.WriteBlock(2, BlockOf(512, 0x22)).code(),
            StatusCode::kCrashed);
  EXPECT_EQ(fault.fault_stats().crashes, 1u);
  EXPECT_EQ(fault.WriteBlock(2, BlockOf(512, 0x22)).code(),
            StatusCode::kCrashed);
  Bytes out;
  ASSERT_TRUE(inner.ReadBlock(2, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x00));
}

TEST(FaultInjectionTest, BitFlipCorruptsExactlyOneBit) {
  MemBlockDevice inner(512, 32);
  FaultPlan plan;
  plan.bit_flip_at_write = 2;
  plan.seed = 42;
  FaultInjectingBlockDevice fault(&inner, plan);

  ASSERT_TRUE(fault.WriteBlock(1, BlockOf(512, 0x00)).ok());
  ASSERT_TRUE(fault.WriteBlock(2, BlockOf(512, 0x00)).ok());  // flipped
  EXPECT_EQ(fault.fault_stats().bit_flips, 1u);

  Bytes out;
  ASSERT_TRUE(inner.ReadBlock(2, out).ok());
  int set_bits = 0;
  for (std::uint8_t byte : out) set_bits += __builtin_popcount(byte);
  EXPECT_EQ(set_bits, 1);
  ASSERT_TRUE(inner.ReadBlock(1, out).ok());
  EXPECT_EQ(out, BlockOf(512, 0x00));
}

TEST(FaultInjectionTest, FromSeedIsDeterministicAndBounded) {
  const FaultPlan a = FaultPlan::FromSeed(7, 100);
  const FaultPlan b = FaultPlan::FromSeed(7, 100);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_GE(a.crash_at_write, 1u);
  EXPECT_LE(a.crash_at_write, 100u);
  EXPECT_EQ(a.bit_flip_at_write, 0u);  // excluded by design
  const FaultPlan c = FaultPlan::FromSeed(8, 100);
  EXPECT_NE(a.ToString(), c.ToString());
}

// ---- async ring -------------------------------------------------------------

TEST(AsyncBlockDeviceTest, ReadNeverOvertakesQueuedWrites) {
  MemBlockDevice inner(512, 64);
  AsyncBlockDevice dev(&inner, 4);
  // Fire-and-forget a chain of writes to the same block; the sync read
  // must drain the ring first and observe the LAST write, not a stale
  // intermediate image.
  for (std::uint8_t i = 1; i <= 5; ++i) {
    dev.Submit({AsyncBlockDevice::Op::Write(3, Bytes(512, i))});
  }
  Bytes out;
  ASSERT_TRUE(dev.ReadBlock(3, out).ok());
  EXPECT_EQ(out, Bytes(512, 5));
  const AsyncDeviceStats stats = dev.async_stats();
  EXPECT_EQ(stats.ops_submitted, 5u);
  EXPECT_EQ(stats.ops_completed, 5u);
}

TEST(AsyncBlockDeviceTest, WaitReturnsPerSubmissionStatus) {
  MemBlockDevice inner(512, 8);
  AsyncBlockDevice dev(&inner, 2);
  const auto ok_ticket =
      dev.Submit({AsyncBlockDevice::Op::Write(1, Bytes(512, 0xAB))});
  const auto bad_ticket =
      dev.Submit({AsyncBlockDevice::Op::Write(999, Bytes(512, 0xCD))});
  EXPECT_TRUE(dev.Wait(ok_ticket).ok());
  EXPECT_FALSE(dev.Wait(bad_ticket).ok());  // out of range inner write
  Bytes out;
  ASSERT_TRUE(dev.ReadBlock(1, out).ok());
  EXPECT_EQ(out, Bytes(512, 0xAB));
}

TEST(AsyncBlockDeviceTest, RedundantFlushBarriersAreCoalesced) {
  MemBlockDevice inner(512, 8);
  AsyncBlockDevice dev(&inner, 4);
  ASSERT_TRUE(dev.WriteBlock(0, Bytes(512, 1)).ok());
  ASSERT_TRUE(dev.Flush().ok());  // persists the write — real sync
  const std::uint64_t after_first = inner.stats().flushes;
  ASSERT_TRUE(dev.Flush().ok());  // nothing dirty — elided
  ASSERT_TRUE(dev.Flush().ok());  // still nothing — elided
  EXPECT_EQ(inner.stats().flushes, after_first);
  EXPECT_GE(dev.async_stats().coalesced_flushes, 2u);
  // A new write re-arms the barrier: the next flush must reach the device.
  ASSERT_TRUE(dev.WriteBlock(0, Bytes(512, 2)).ok());
  ASSERT_TRUE(dev.Flush().ok());
  EXPECT_EQ(inner.stats().flushes, after_first + 1);
}

TEST(AsyncBlockDeviceTest, BatchGoesThroughRingAsOneSubmission) {
  MemBlockDevice inner(512, 16);
  AsyncBlockDevice dev(&inner, 4);
  const std::uint64_t submissions_before = dev.async_stats().submissions;
  std::vector<Bytes> payloads;
  std::vector<BatchWrite> batch;
  for (std::uint8_t i = 0; i < 6; ++i) {
    payloads.push_back(Bytes(512, static_cast<std::uint8_t>(0x10 + i)));
    batch.push_back({static_cast<BlockIndex>(i),
                     ByteSpan(payloads.back().data(), payloads.back().size())});
  }
  ASSERT_TRUE(dev.WriteBatch(batch).ok());
  EXPECT_EQ(dev.async_stats().submissions, submissions_before + 1);
  for (std::uint8_t i = 0; i < 6; ++i) {
    Bytes out;
    ASSERT_TRUE(dev.ReadBlock(i, out).ok());
    EXPECT_EQ(out, Bytes(512, static_cast<std::uint8_t>(0x10 + i)));
  }
}

}  // namespace
}  // namespace rgpdos::blockdev

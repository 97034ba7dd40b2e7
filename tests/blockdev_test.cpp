// Block-device substrate tests: bounds, stats, raw-medium scans, the
// latency cost model, the traffic recorder, and the file-backed device.
#include <gtest/gtest.h>

#include <cstdio>

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

TEST(LatencyModelTest, BatchCostAmortisesAtQueueDepth) {
  // A batch of n ops costs op_ns * (1 + (n-1)/queue_depth): the first op
  // pays full latency and the rest overlap at the queue's parallelism.
  // Single-block calls always pay full cost.
  const auto charged = [](LatencyProfile profile, auto&& io) {
    LatencyModelDevice device(std::make_unique<MemBlockDevice>(512, 32),
                              profile);
    io(device);
    return device.simulated_ns();
  };
  std::vector<Bytes> payloads(16, BlockOf(512, 0x5A));
  std::vector<BatchWrite> writes;
  std::vector<BlockIndex> indexes;
  for (BlockIndex i = 0; i < 16; ++i) {
    writes.push_back({i, payloads[i]});
    indexes.push_back(i);
  }
  const auto write_batch = [&](LatencyModelDevice& device) {
    ASSERT_TRUE(device.WriteBatch(writes).ok());
  };
  const auto read_batch = [&](LatencyModelDevice& device) {
    std::vector<Bytes> out;
    ASSERT_TRUE(device.ReadBatch(indexes, out).ok());
    EXPECT_EQ(out.size(), 16u);
  };
  const auto single_writes = [&](LatencyModelDevice& device) {
    for (const BatchWrite& w : writes) {
      ASSERT_TRUE(device.WriteBlock(w.index, w.data).ok());
    }
  };

  const LatencyProfile nvme = LatencyProfile::Nvme();
  ASSERT_EQ(nvme.queue_depth, 16u);
  EXPECT_EQ(charged(nvme, write_batch), 38'750u);  // 20000 + 20000*15/16
  EXPECT_EQ(charged(nvme, read_batch), 19'375u);
  EXPECT_EQ(charged(nvme, single_writes), 320'000u);

  // queue_depth 0 is charged like 1: a batch costs what serial ops do.
  LatencyProfile depth0 = nvme;
  depth0.queue_depth = 0;
  EXPECT_EQ(charged(depth0, write_batch), 320'000u);
  EXPECT_EQ(charged(depth0, read_batch), 160'000u);
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

}  // namespace
}  // namespace rgpdos::blockdev

#include "blockdev/fault_injection.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "metrics/metrics.hpp"

namespace rgpdos::blockdev {

FaultPlan FaultPlan::FromSeed(std::uint64_t seed, std::uint64_t max_writes) {
  Rng rng(Rng::StreamSeed(seed, 0xFA17));
  FaultPlan plan;
  plan.seed = seed;
  if (max_writes > 0) {
    plan.crash_at_write = 1 + rng.NextBelow(max_writes);
  }
  // One third clean crashes, one third torn (partial sector), one third
  // behind a volatile disk cache that drops unflushed blocks.
  switch (rng.NextBelow(3)) {
    case 0:
      break;
    case 1:
      plan.torn_bytes = static_cast<std::uint32_t>(1 + rng.NextBelow(512));
      break;
    default:
      plan.volatile_write_back = true;
      break;
  }
  // Half the plans also stress the transient-error retry path.
  if (rng.NextBool()) {
    plan.transient_error_every = 5 + rng.NextBelow(45);
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string out = "FaultPlan{seed=" + std::to_string(seed);
  out += " crash_at_write=" + std::to_string(crash_at_write);
  out += " torn_bytes=" + std::to_string(torn_bytes);
  out += std::string(" volatile_write_back=") +
         (volatile_write_back ? "true" : "false");
  out += " transient_error_every=" + std::to_string(transient_error_every);
  out += " bit_flip_at_write=" + std::to_string(bit_flip_at_write);
  out += "}";
  return out;
}

FaultInjectingBlockDevice::FaultInjectingBlockDevice(BlockDevice* inner,
                                                     FaultPlan plan)
    : inner_(inner), plan_(plan) {}

Status FaultInjectingBlockDevice::MaybeTransientLocked(const char* op) {
  ++io_seen_;
  if (plan_.transient_error_every != 0 &&
      io_seen_ % plan_.transient_error_every == 0) {
    ++stats_.transient_errors;
    RGPD_METRIC_COUNT("storage.fault.transient_errors");
    return IoError(std::string("injected transient error on ") + op);
  }
  return Status::Ok();
}

void FaultInjectingBlockDevice::CrashLocked() {
  crashed_ = true;
  ++stats_.crashes;
  stats_.dropped_blocks += write_back_.size();
  RGPD_METRIC_COUNT("storage.fault.crashes");
  RGPD_METRIC_COUNT_N("storage.fault.dropped_blocks", write_back_.size());
  // The disk cache dies with the power: unflushed blocks never existed
  // as far as the medium is concerned.
  write_back_.clear();
}

void FaultInjectingBlockDevice::Crash() {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  if (!crashed_) CrashLocked();
}

void FaultInjectingBlockDevice::PowerCycle() {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  crashed_ = false;
  write_back_.clear();
}

bool FaultInjectingBlockDevice::crashed() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  return crashed_;
}

FaultStats FaultInjectingBlockDevice::fault_stats() const {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  return stats_;
}

Status FaultInjectingBlockDevice::ReadBlock(BlockIndex index, Bytes& out) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  if (crashed_) {
    ++stats_.crashed_rejections;
    return Crashed("device crashed: read rejected");
  }
  ++stats_.reads_seen;
  RGPD_RETURN_IF_ERROR(MaybeTransientLocked("read"));
  // The disk cache services reads for blocks it still holds.
  if (auto it = write_back_.find(index); it != write_back_.end()) {
    out = it->second;
    return Status::Ok();
  }
  return inner_->ReadBlock(index, out);
}

Status FaultInjectingBlockDevice::WriteBlock(BlockIndex index,
                                             ByteSpan data) {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  if (crashed_) {
    ++stats_.crashed_rejections;
    return Crashed("device crashed: write rejected");
  }
  const std::uint64_t write_index = ++stats_.writes_seen;

  // The crash point is checked before the transient-error schedule: a
  // power loss preempts a bus error, so a plan's crash fires at its
  // write index even when that write is also due a transient error
  // (otherwise the retry would be write N+1 and the crash would never
  // fire at all).
  if (plan_.crash_at_write != 0 && write_index == plan_.crash_at_write) {
    // Power loss mid-write: the first torn_bytes of the sector made it to
    // the platter (bypassing the dying disk cache), the rest did not.
    const std::uint32_t keep =
        std::min<std::uint32_t>(plan_.torn_bytes,
                                static_cast<std::uint32_t>(data.size()));
    if (keep > 0) {
      Bytes merged;
      Status read = inner_->ReadBlock(index, merged);
      if (read.ok()) {
        std::copy(data.begin(), data.begin() + keep, merged.begin());
        (void)inner_->WriteBlock(index, merged);
        ++stats_.torn_writes;
        RGPD_METRIC_COUNT("storage.fault.torn_writes");
      }
    }
    CrashLocked();
    return Crashed("injected crash at write #" +
                   std::to_string(write_index));
  }
  RGPD_RETURN_IF_ERROR(MaybeTransientLocked("write"));

  Bytes image(data.begin(), data.end());
  if (plan_.bit_flip_at_write != 0 &&
      write_index == plan_.bit_flip_at_write && !image.empty()) {
    Rng rng(Rng::StreamSeed(plan_.seed, write_index));
    const std::uint64_t bit = rng.NextBelow(image.size() * 8);
    image[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++stats_.bit_flips;
    RGPD_METRIC_COUNT("storage.fault.bit_flips");
  }

  if (plan_.volatile_write_back) {
    write_back_[index] = std::move(image);
    return Status::Ok();
  }
  return inner_->WriteBlock(index, image);
}

Status FaultInjectingBlockDevice::Flush() {
  std::lock_guard<metrics::OrderedMutex> lock(mu_);
  if (crashed_) {
    ++stats_.crashed_rejections;
    return Crashed("device crashed: flush rejected");
  }
  ++stats_.flushes_seen;
  // Drain the disk cache to the medium, then barrier the inner device.
  for (auto& [index, image] : write_back_) {
    RGPD_RETURN_IF_ERROR(inner_->WriteBlock(index, image));
  }
  write_back_.clear();
  return inner_->Flush();
}

}  // namespace rgpdos::blockdev

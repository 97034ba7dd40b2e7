// F2 — the paper's motivating violation (Fig 2 discussion, §1): "the
// filesystem's logging mechanism can compromise the GDPR's right to be
// forgotten as data deleted by the DB engine can still be present in the
// filesystem's logs."
//
// For each population size N: insert N marked subjects, delete ALL of
// them through each system's erasure path, then scan the raw device for
// the per-subject plaintext markers. A subject counts as LEAKED if any
// marker byte survives anywhere (data region or journal).
//
// Exits non-zero when any rgpdOS row leaks a subject (erasure left
// history behind), or when the tombstone baseline leaks fewer than all
// of its subjects (the scan no longer finds the plaintext a DB-level
// delete leaves, so a clean rgpdOS row would prove nothing).
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace rgpdos;

namespace {

std::size_t CountLeakedSubjects(blockdev::BlockDevice& device,
                                std::size_t subjects) {
  std::size_t leaked = 0;
  for (std::size_t s = 1; s <= subjects; ++s) {
    const Bytes marker = ToBytes(workload::SubjectMarker(s));
    if (blockdev::CountBlocksContaining(device, marker) > 0) ++leaked;
  }
  return leaked;
}

/// Print one table row and return the leak count.
std::size_t Row(std::size_t subjects, const char* system,
                std::size_t leaked) {
  std::printf("%-10zu %-26s %16zu %13.0f%%\n", subjects, system, leaked,
              100.0 * double(leaked) / double(subjects));
  return leaked;
}

}  // namespace

int main() {
  std::printf(
      "=== Fig 2 experiment: PD recoverable from the device after a "
      "DB-level delete ===\n");
  std::printf("%-10s %-26s %16s %14s\n", "subjects", "system",
              "leaked subjects", "leak rate");

  int failures = 0;
  for (std::size_t subjects : {16u, 64u, 256u}) {
    // Baseline: tombstone delete, no compaction.
    {
      bench::BaselineWorld world = bench::MakeBaselineWorld(subjects);
      for (std::size_t s = 1; s <= subjects; ++s) {
        if (!world.engine->DeleteSubject(s, /*compact=*/false).ok()) {
          std::abort();
        }
      }
      if (Row(subjects, "baseline (tombstone)",
              CountLeakedSubjects(*world.device, subjects)) != subjects) {
        ++failures;
      }
    }
    // Baseline: delete + compaction (the engine's best effort).
    {
      bench::BaselineWorld world = bench::MakeBaselineWorld(subjects);
      for (std::size_t s = 1; s <= subjects; ++s) {
        if (!world.engine->DeleteSubject(s, /*compact=*/true).ok()) {
          std::abort();
        }
      }
      Row(subjects, "baseline (compacted)",
          CountLeakedSubjects(*world.device, subjects));
    }
    // rgpdOS: crypto-erasure (right to be forgotten).
    {
      bench::RgpdWorld world = bench::MakeRgpdWorld(subjects);
      for (std::size_t s = 1; s <= subjects; ++s) {
        if (!world.os->RightToBeForgotten(s).ok()) std::abort();
      }
      if (Row(subjects, "rgpdOS (crypto-erase)",
              CountLeakedSubjects(world.os->dbfs_device(), subjects)) != 0) {
        ++failures;
      }
    }
    // rgpdOS: hard delete.
    {
      bench::RgpdWorld world = bench::MakeRgpdWorld(subjects);
      for (dbfs::RecordId id : world.records) {
        if (!world.os->builtins().HardDelete(core::PdRef{id, "user"}).ok()) {
          std::abort();
        }
      }
      if (Row(subjects, "rgpdOS (hard delete)",
              CountLeakedSubjects(world.os->dbfs_device(), subjects)) != 0) {
        ++failures;
      }
    }
  }
  std::printf(
      "\nexpected shape: baseline leaks ~100%% of deleted subjects "
      "through freed blocks / journal; rgpdOS leaks none.\n");
  if (failures != 0) {
    std::fprintf(stderr,
                 "FAIL: %d row(s) off the expected shape (an rgpdOS row "
                 "leaked, or the tombstone baseline leaked less than "
                 "100%%)\n",
                 failures);
    return 1;
  }
  return 0;
}

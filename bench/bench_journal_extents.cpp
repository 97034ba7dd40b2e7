// Extent journal cost: a put-heavy (journal-commit-bound) workload on an
// NVMe cost model, uncached, so every journal commit reaches the device.
//
// The puts run on a bare Dbfs over its own InodeStore: no processing log
// and no durable audit pipeline (the sentinel audits into a plain
// in-memory sink), so the store's journal carries the PD puts and
// nothing else. Each journal commit writes its record blocks as ONE
// batch, which the latency model amortises across the device queue
// (queue_depth 16 for Nvme). The bench reports device-normalized puts/s,
// the extent journal's bytes per put and its write amplification
// (journal bytes per logical record byte; journal.write_amp in the
// metrics snapshot tracks the same ratio), and exits non-zero when a put
// logs more than one 4 KiB journal block, the extent format's figure
// (DESIGN.md §13).
//
// Artifact: BENCH_journal_extents.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.hpp"
#include "blockdev/latency_model.hpp"
#include "dbfs/dbfs.hpp"

namespace rgpdos::bench {
namespace {

constexpr std::size_t kSubjects = 8;  ///< population put before timing
constexpr int kPuts = 256;            ///< timed journal commits
constexpr double kMaxJournalBytesPerPut = 4096;

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

int Main() {
  SystemClock clock;
  sentinel::AuditSink audit;
  sentinel::Sentinel sentinel(sentinel::SecurityPolicy::RgpdDefault(),
                              &clock, &audit);
  blockdev::MemBlockDevice medium(4096, 2048 + kPuts * 14);
  blockdev::LatencyModelDevice device(&medium,
                                      blockdev::LatencyProfile::Nvme());
  inodefs::InodeStore::Options options;
  options.inode_count = 512 + kPuts * 6;
  options.journal_blocks = 512;
  auto store = inodefs::InodeStore::Format(&device, options, &clock);
  Check(store.status(), "store format");
  auto fs = dbfs::Dbfs::Format(store->get(), &sentinel, &clock);
  Check(fs.status(), "dbfs format");
  const dsl::TypeDecl decl = BenchUserDecl();
  Check((*fs)->CreateType(sentinel::Domain::kSysadmin, decl), "create type");

  std::uint64_t puts_done = 0;
  const auto put = [&](dbfs::SubjectId subject) {
    const std::uint64_t i = puts_done++;
    auto id = (*fs)->Put(
        sentinel::Domain::kDed, subject, "user",
        db::Row{db::Value(std::string("name") + std::to_string(i)),
                db::Value(std::string("pw")),
                db::Value(std::int64_t(1960 + i % 60))},
        decl.DefaultMembrane(subject, clock.Now()));
    Check(id.status(), "put");
  };
  // Every subject gets its root before timing starts, so the timed loop
  // measures steady-state puts.
  for (std::size_t s = 1; s <= kSubjects; ++s) put(s);

  const inodefs::Journal& journal = (*store)->journal();
  const std::uint64_t journal_before = journal.bytes_logged();
  const auto logical_counter = []() -> double {
    const auto snapshot = metrics::MetricsRegistry::Instance().Snapshot();
    const std::uint64_t* v = snapshot.FindCounter("dbfs.put.logical_bytes");
    return v != nullptr ? double(*v) : 0.0;
  };
  const double logical_before = logical_counter();
  const std::uint64_t sim_before = device.simulated_ns();

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPuts; ++i) put(1 + i % kSubjects);
  const double wall_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count();
  const double sim_ns = double(device.simulated_ns() - sim_before);

  const double puts_per_sec = double(kPuts) / ((wall_ns + sim_ns) / 1e9);
  const double journal_bytes_per_put =
      double(journal.bytes_logged() - journal_before) / double(kPuts);
  const double logical = logical_counter() - logical_before;
  const double write_amp =
      logical > 0 ? journal_bytes_per_put * double(kPuts) / logical : 0;

  std::printf("=== extent journal, put workload (NVMe cost model) ===\n");
  std::printf("%14s %16s %11s\n", "puts/s(dev)", "jnl bytes/put",
              "write_amp");
  std::printf("%14.0f %16.0f %10.2fx\n", puts_per_sec, journal_bytes_per_put,
              write_amp);

  DumpBenchArtifact("journal_extents",
                    {{"puts", double(kPuts)},
                     {"puts_per_sec", puts_per_sec},
                     {"journal_bytes_per_put", journal_bytes_per_put},
                     {"write_amp", write_amp}});
  if (journal_bytes_per_put > kMaxJournalBytesPerPut) {
    std::fprintf(stderr,
                 "FAIL: %.0f journal bytes/put exceeds the extent format's "
                 "%.0f\n",
                 journal_bytes_per_put, kMaxJournalBytesPerPut);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rgpdos::bench

int main() { return rgpdos::bench::Main(); }

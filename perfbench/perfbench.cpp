// perfbench — the wall-clock benchmark of rgpdOS.
//
//   perfbench --workload controller|invoke|rights_audit --seed N
//             --seconds S --trace 0|1
//
// Drives one workload on real threads through the public API of
// core::RgpdOs, checks every output, and prints one JSON result line last.
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice on one world, untraced then traced, and prints the per-layer
// breakdown: spans the driver records around each call it makes into a
// layer, plus deltas of the counters the layers export through
// metrics::MetricsRegistry. Spans are written to
// .perfbench_out/trace-<workload>.json when the run ends.
//
// Every workload reports the same end-to-end metric names (see
// README.md for what "main" and "side" are on each):
//   setup_s      median wall time of kSetups boots + populations
//   ops_s        throughput of the main stream
//   main_p50_us  main_tail_us   latency of the main op class
//   side_ops_s   side_p50_us  side_tail_us   the side op class
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/rgpdos.hpp"
#include "dsl/parser.hpp"
#include "harness.hpp"
#include "trace.hpp"
#include "workload/workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace rgpdos;
using dbfs::RecordId;
using dbfs::SubjectId;
using sentinel::Domain;

// ---- configuration ---------------------------------------------------------

/// Setups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 3;
/// Untimed warm-up before each measured window, as a share of --seconds.
constexpr double kWarmupShare = 0.05;
/// Throughputs are the median over this many equal sub-windows of the
/// measured window, so a short stall of the host moves one sub-window and
/// not the result.
constexpr int kSubwindows = 4;

constexpr std::size_t kControllerSubjects = 8000;  ///< 2x the record cache
constexpr std::size_t kInvokeSubjects = 250;       ///< fits the record cache
constexpr std::size_t kRightsAuditSubjects = 2000;
/// Open-loop rights requests per second on `invoke`. A sweep of the
/// offered rate (README.md) puts the knee of the rights path between
/// 320/s and 640/s; this rate keeps the stream far below it.
constexpr double kRightsRate = 40;
/// A send issued later than this after its due time fails the request:
/// the generator, not the system, would then set the offered load.
constexpr double kLateSendNs = 1e9;
/// rights_audit ages the processing log this far past its hot window.
constexpr std::uint64_t kAgedBeyondWindow = 2048;
/// rights_audit customer clients (each owns the subjects of one parity).
constexpr unsigned kCustomers = 2;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <class T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---- world -----------------------------------------------------------------

/// Shipped BootConfig with only population sizing, the simulated NVMe
/// cost model and the DED lane count changed.
core::BootConfig SizedConfig(std::size_t records, unsigned worker_threads) {
  core::BootConfig config;
  // A record takes its row and membrane inodes plus a share of its
  // subject's root, about 2.5 blocks; the slack holds the audit and
  // processing-log segments.
  config.inode_count = static_cast<std::uint32_t>(records * 3 + 4096);
  config.dbfs_blocks = records * 4 + 16384;
  // Boot formats the NPD store with the same inode_count, so its device
  // must hold that inode table and the journal.
  const std::uint64_t inodes_per_block = config.block_size / 256;
  config.npd_blocks = (config.inode_count + inodes_per_block - 1) /
                          inodes_per_block +
                      config.journal_blocks + 1024;
  config.latency = blockdev::LatencyProfile::Nvme();
  config.worker_threads = worker_threads;
  return config;
}

void PrintConfig(const core::BootConfig& c) {
  std::printf(
      "boot config: shards=%zu worker_threads=%u cache_blocks=%llu "
      "cache_record_entries=%zu cache_decisions=%d journal_extents=%d "
      "audit_durable=%d audit_hot_window=%zu audit_queue_entries=%zu "
      "dbfs_blocks=%llu npd_blocks=%llu inode_count=%u journal_blocks=%llu "
      "latency(read/write/flush ns)=%llu/%llu/%llu (simulated only)\n",
      c.shards, c.worker_threads,
      static_cast<unsigned long long>(c.cache_blocks), c.cache_record_entries,
      c.cache_decisions ? 1 : 0, c.journal_extents ? 1 : 0,
      c.audit_durable ? 1 : 0, c.audit_hot_window, c.audit_queue_entries,
      static_cast<unsigned long long>(c.dbfs_blocks),
      static_cast<unsigned long long>(c.npd_blocks), c.inode_count,
      static_cast<unsigned long long>(c.journal_blocks),
      static_cast<unsigned long long>(c.latency.read_ns),
      static_cast<unsigned long long>(c.latency.write_ns),
      static_cast<unsigned long long>(c.latency.flush_ns));
}

struct World {
  core::BootConfig config;
  std::unique_ptr<core::RgpdOs> os;
  dsl::TypeDecl user;
  /// Live record of each subject (index subject - 1).
  std::vector<RecordId> record;
  /// Expected `name` field of that record.
  std::vector<std::string> name;
  /// Acked `analytics` consent withdrawal and objection, per subject
  /// (bytes, not vector<bool>: clients write different subjects
  /// concurrently).
  std::vector<std::uint8_t> revoked;
  std::vector<std::uint8_t> objected;
  core::ProcessingId analytics = 0;
  /// A non-deriving `analytics` processing for the invoke workload's
  /// probes, which only need to observe whether a record is served.
  core::ProcessingId probe = 0;
  /// Records derived so far (written by the invoking thread only).
  std::size_t derived = 0;
};

db::Row FreshRow(Rng& rng, SubjectId subject, std::string* name) {
  *name = "name_" + std::to_string(subject) + "_" + rng.NextName(8);
  return db::Row{db::Value(*name), db::Value(std::string("pw")),
                 db::Value(rng.NextInRange(1940, 2010))};
}

/// Boot and populate one user record per subject.
World Populate(std::size_t subjects, std::uint64_t seed,
               unsigned worker_threads, bool derive,
               std::size_t derived_capacity = 0) {
  World w;
  w.config = SizedConfig(subjects + derived_capacity, worker_threads);
  w.os = Must(core::RgpdOs::Boot(w.config), "boot");
  Must(w.os->DeclareTypes(bench::kBenchTypes), "declare types");
  w.user = bench::BenchUserDecl();
  w.analytics = bench::RegisterAnalytics(*w.os, derive);
  w.record.resize(subjects);
  w.name.resize(subjects);
  w.revoked.assign(subjects, 0);
  w.objected.assign(subjects, 0);
  Rng rng(seed);
  for (SubjectId s = 1; s <= subjects; ++s) {
    w.record[s - 1] = Must(
        w.os->dbfs().Put(Domain::kDed, s, "user", FreshRow(rng, s, &w.name[s - 1]),
                         w.user.DefaultMembrane(s, w.os->clock().Now())),
        "populate");
  }
  return w;
}

/// GDPRBench's role mix dealt from a 100-card deck (see Deck).
Deck<workload::GdprOp> DeckOf(const workload::OpMix& mix, std::uint64_t seed) {
  std::vector<std::pair<workload::GdprOp, double>> weights;
  double previous = 0;
  for (const auto& [op, cumulative] : mix.weights()) {  // stored cumulative
    weights.emplace_back(op, cumulative - previous);
    previous = cumulative;
  }
  return Deck<workload::GdprOp>(weights, 100, seed);
}

// ---- op accounting -----------------------------------------------------------

/// One client thread's outcomes over a measured window.
struct OpLog {
  std::map<std::string, std::vector<double>> latency_ns;  ///< by op class
  /// Completion offset of each of those samples, in the same order.
  /// Throughput share of each of those samples, in the same order.
  struct Tally {
    double done_ns;  ///< completion offset from the window start
    double work;     ///< ops, or records an invoke processed
    double busy_ns;  ///< time the program spent on it
  };
  std::map<std::string, std::vector<Tally>> tallies;
  std::vector<double> done_ns;  ///< completion offsets, every op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failed_by_class;

  /// `busy_ns` < 0 means the op's latency: the program was busy with it
  /// from `from` to `done`.
  void Record(const char* op_class, SteadyClock::time_point start,
              SteadyClock::time_point from, SteadyClock::time_point done,
              bool ok, double work = 1, double busy_ns = -1) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++failed_by_class[op_class];
      return;
    }
    const double latency = NanosBetween(from, done);
    latency_ns[op_class].push_back(latency);
    tallies[op_class].push_back({NanosBetween(start, done), work,
                                 busy_ns < 0 ? latency : busy_ns});
    done_ns.push_back(NanosBetween(start, done));
  }
  void Merge(const OpLog& other) {
    for (const auto& [cls, v] : other.latency_ns) {
      auto& mine = latency_ns[cls];
      mine.insert(mine.end(), v.begin(), v.end());
    }
    for (const auto& [cls, v] : other.tallies) {
      auto& mine = tallies[cls];
      mine.insert(mine.end(), v.begin(), v.end());
    }
    done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& [cls, n] : other.failed_by_class) failed_by_class[cls] += n;
  }
};

/// What one measured window produced. The invoke workload measures its
/// window in several segments, each on a fresh world; everything below
/// sums over them.
struct Phase {
  OpLog ops;
  double window_ns = 0;  ///< measured time, summed over segments
  std::vector<std::unique_ptr<Lane>> lanes;
  RegistryDelta registry;
  std::vector<double> lateness_ns;  ///< open-loop sends only
  core::StageTimings stage_sum;     ///< summed over full-scan invokes
  std::uint64_t invokes = 0;
  std::uint64_t considered = 0;
  std::uint64_t processed = 0;
  /// Live records and processing-log entries at the window's two ends.
  std::size_t live_start = 0, live_end = 0;
  std::uint64_t log_start = 0, log_end = 0;
  blockdev::DeviceStats device;  ///< raw PD device traffic
  std::uint64_t sim_ns = 0;      ///< simulated device time
  std::vector<std::string> gate_failures;

  Lane& NewLane(bool traced) {
    lanes.push_back(
        std::make_unique<Lane>(traced, static_cast<std::uint32_t>(lanes.size())));
    return *lanes.back();
  }
};

struct Workload {
  const char* name;
  const char* main_class;
  const char* side_class;
  /// Tail percentile reported for each class; a run with too few samples
  /// beyond it fails.
  double main_tail_q;
  double side_tail_q;
  /// The op classes whose work ops_s counts.
  std::vector<std::string> ops_classes;
  /// false: ops_s and side_ops_s divide work by wall time (closed-loop
  /// clients). true: by the time the program spent on that work, so an
  /// open-loop stream's rate measures the program, not its offered load.
  bool per_busy_time;
  World (*setup)(std::uint64_t seed);
  void (*run)(World& w, std::uint64_t seed, double seconds, bool traced,
              Phase& phase);
};

blockdev::DeviceStats DeviceStatsOf(core::RgpdOs& os) {
  // The raw device's counters are unsynchronised: read them only while no
  // client runs and the audit writer has drained.
  if (auto* pipeline = os.audit_pipeline()) {
    Must(pipeline->Flush(), "flush audit pipeline");
  }
  return os.dbfs_device(0).stats();
}

/// Measure one segment of at most `budget_ns` on `w`. `body(origin,
/// deadline)` runs the clients; `origin` lies `phase.window_ns` before the
/// segment start, so completion offsets continue across segments.
template <class Body>
void Segment(World& w, Phase& phase, double budget_ns, Body&& body) {
  core::RgpdOs& os = *w.os;
  const bool first = phase.window_ns == 0;
  if (first) {
    phase.live_start = os.dbfs().record_count();
    phase.log_start = os.processing_log().total_entries();
  }
  const blockdev::DeviceStats device_before = DeviceStatsOf(os);
  const std::uint64_t sim_before = bench::SimulatedDeviceNanos(os);
  phase.registry.Begin();
  const auto start = SteadyClock::now();
  body(start - std::chrono::nanoseconds(std::int64_t(phase.window_ns)),
       start + std::chrono::nanoseconds(std::int64_t(budget_ns)));
  phase.window_ns += NanosBetween(start, SteadyClock::now());
  phase.registry.End();
  const blockdev::DeviceStats after = DeviceStatsOf(os);
  phase.device.reads += after.reads - device_before.reads;
  phase.device.writes += after.writes - device_before.writes;
  phase.device.bytes_written += after.bytes_written - device_before.bytes_written;
  phase.device.flushes += after.flushes - device_before.flushes;
  phase.sim_ns += bench::SimulatedDeviceNanos(os) - sim_before;
  phase.live_end = os.dbfs().record_count();
  phase.log_end = os.processing_log().total_entries();
}

// ---- controller ----------------------------------------------------------------
//
// Two closed-loop clients run the GDPRBench controller mix with zipf 0.9
// over 8 000 subjects, twice the record cache and far beyond the block
// cache. Each client owns the subjects of one parity, so no two requests
// race on a subject and every op has one correct outcome. Every subject
// holds exactly one record at rest: a create replaces it and a delete is
// followed by the subject re-registering, so live records stay flat.
// Main = reads, side = writes (create/update/delete/withdraw).

World ControllerSetup(std::uint64_t seed) {
  return Populate(kControllerSubjects, seed, 1, /*derive=*/false);
}

void ControllerClient(World& w, std::uint64_t seed, unsigned client,
                      SteadyClock::time_point start,
                      SteadyClock::time_point deadline, Lane& lane,
                      OpLog& log) {
  core::RgpdOs& os = *w.os;
  const std::size_t owned = kControllerSubjects / 2;
  Rng rng(seed * 1000003 + client);
  Zipf zipf(owned, 0.9, seed * 7919 + client);
  Deck<workload::GdprOp> mix =
      DeckOf(workload::OpMix::Controller(), seed * 31 + client);
  const auto replace = [&](SubjectId s, bool delete_first) {
    const std::size_t i = s - 1;
    std::string name;
    const db::Row row = FreshRow(rng, s, &name);
    if (delete_first && !lane.Call("builtins.hard_delete", [&] {
          return os.builtins().HardDelete(core::PdRef{w.record[i], "user"});
        }).ok()) {
      return false;
    }
    auto id = lane.Call("dbfs.put", [&] {
      return os.dbfs().Put(Domain::kDed, s, "user", row,
                           w.user.DefaultMembrane(s, os.clock().Now()));
    });
    if (!id.ok()) return false;
    if (!delete_first && !lane.Call("builtins.hard_delete", [&] {
          return os.builtins().HardDelete(core::PdRef{w.record[i], "user"});
        }).ok()) {
      return false;
    }
    w.record[i] = *id;
    w.name[i] = name;
    return true;
  };

  while (SteadyClock::now() < deadline) {
    const std::uint64_t local = zipf.Next();
    const SubjectId s = 1 + 2 * local + client;
    const std::size_t i = s - 1;
    const core::PdRef ref{w.record[i], "user"};
    const workload::GdprOp op = mix.Next();
    const char* cls = "write";
    bool ok = false;
    lane.BeginOp(workload::GdprOpName(op).data());
    const auto t0 = SteadyClock::now();
    switch (op) {
      case workload::GdprOp::kCreateRecord:
        ok = replace(s, /*delete_first=*/true);
        w.revoked[i] = 0;
        break;
      case workload::GdprOp::kDeleteRecord:
        ok = replace(s, /*delete_first=*/false);
        w.revoked[i] = 0;
        break;
      case workload::GdprOp::kReadRecord: {
        cls = "read";
        auto ids = lane.Call("dbfs.records_of_subject", [&] {
          return os.dbfs().RecordsOfSubject(Domain::kDed, s);
        });
        if (ids.ok() && ids->size() == 1 && ids->front() == w.record[i]) {
          auto record = lane.Call("dbfs.get", [&] {
            return os.dbfs().Get(Domain::kDed, ids->front());
          });
          ok = record.ok() && record->subject_id == s &&
               record->row[0].AsString().ok() &&
               *record->row[0].AsString() == w.name[i];
        }
        break;
      }
      case workload::GdprOp::kUpdateRecord: {
        std::string name;
        const db::Row row = FreshRow(rng, s, &name);
        ok = lane.Call("builtins.update", [&] {
          return os.builtins().Update(ref, row);
        }).ok();
        if (ok) w.name[i] = name;
        break;
      }
      case workload::GdprOp::kConsentWithdrawal:
        if (w.revoked[i] != 0) {
          ok = lane.Call("builtins.grant_consent", [&] {
            return os.builtins().GrantConsent(
                ref, "analytics", membrane::Consent::ForView("v_ano"));
          }).ok();
        } else {
          ok = lane.Call("builtins.revoke_consent", [&] {
            return os.builtins().RevokeConsent(ref, "analytics");
          }).ok();
        }
        if (ok) w.revoked[i] ^= 1;
        break;
      case workload::GdprOp::kRightOfAccess: {
        cls = "access";
        auto doc = lane.Call("rights.access",
                             [&] { return os.rights().Access(s); });
        ok = doc.ok() && doc->find("\"subject_id\":" + std::to_string(s) +
                                   ",") != std::string::npos;
        break;
      }
      default:
        Die("controller mix produced an unexpected op");
    }
    const auto t1 = SteadyClock::now();
    lane.EndOp();
    log.Record(cls, start, t0, t1, ok);
  }
}

void ControllerRun(World& w, std::uint64_t seed, double seconds, bool traced,
                   Phase& phase) {
  Segment(w, phase, seconds * 1e9, [&](SteadyClock::time_point start,
                                       SteadyClock::time_point deadline) {
    OpLog logs[2];
    Lane* lanes[2] = {&phase.NewLane(traced), &phase.NewLane(traced)};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        ControllerClient(w, seed, c, start, deadline, *lanes[c], logs[c]);
      });
    }
    for (std::thread& t : clients) t.join();
    for (const OpLog& l : logs) phase.ops.Merge(l);
  });
  // Every subject still holds exactly the record its client tracked.
  ++phase.ops.attempted;
  for (SubjectId s = 1; s <= kControllerSubjects; ++s) {
    auto ids = w.os->dbfs().RecordsOfSubject(Domain::kDed, s);
    if (!ids.ok() || ids->size() != 1 || ids->front() != w.record[s - 1]) {
      ++phase.ops.failed;
      phase.gate_failures.push_back("subject " + std::to_string(s) +
                                    " lost track of its record");
      break;
    }
  }
}

// ---- invoke ------------------------------------------------------------------
//
// One closed-loop application thread invokes the deriving `analytics`
// purpose (the Fig-4 pipeline including ded_store) over 250 subjects
// with a 2-lane DED executor. Beside it an open-loop Poisson generator
// toggles consent and objections on random subjects; after each ack a
// targeted probe invoke must filter or process the record exactly as the
// acked state says. Main = full-scan invokes (ops_s counts records per
// second of invoke wall time), side = rights requests: latency timed from
// the scheduled send, side_ops_s = acked requests per second of service
// time (issue to ack), so it falls when the rights path slows down.
//
// Derived records pile up in the subject trees. Erasing one costs a full
// journal scrub (about 8 ms on the seed), far more than deriving it, so
// the window is measured in segments instead: a segment ends when its
// world holds kDerivedPerWorld derived records, and the next segment runs
// on a freshly populated world, set up outside the measured time.

constexpr std::size_t kDerivedPerWorld = 12000;  ///< 24 full-scan invokes

World InvokeSetup(std::uint64_t seed) {
  // Room for the settle invoke after the last full scan, too.
  World w = Populate(kInvokeSubjects, seed, 2, /*derive=*/true,
                     kDerivedPerWorld + kInvokeSubjects);
  w.probe = bench::RegisterAnalytics(*w.os, /*derive_output=*/false);
  return w;
}

struct InvokeSegment {
  OpLog app_log, gen_log, probe_log;
  std::vector<double> lateness_ns;
};

/// Runs the post-ack probes off the generator's thread: a probe can wait
/// behind a full-scan invoke for the executor, and the next send must not
/// wait with it. The generator never toggles a subject whose probe is
/// still pending, so each probe knows the one state it must observe.
class Prober {
 public:
  explicit Prober(std::size_t subjects) : pending_(subjects, 0) {}

  struct Probe {
    std::size_t subject = 0;
    std::uint64_t expect_processed = 0;
  };

  void Push(Probe probe) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[probe.subject] = 1;
    queue_.push_back(probe);
    cv_.notify_all();
  }
  void WaitIdle(std::size_t subject) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_[subject] == 0; });
  }
  /// Next probe; false once Finish() was called and the queue is empty.
  bool Pop(Probe* probe) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty() || finished_; });
    if (queue_.empty()) return false;
    *probe = queue_.front();
    queue_.pop_front();
    return true;
  }
  void Done(std::size_t subject) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[subject] = 0;
    cv_.notify_all();
  }
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Probe> queue_;
  std::vector<std::uint8_t> pending_;
  bool finished_ = false;
};

void InvokeApp(World& w, Phase& phase, InvokeSegment& seg, Lane& lane,
               SteadyClock::time_point origin,
               SteadyClock::time_point deadline, std::atomic<bool>& stop) {
  core::RgpdOs& os = *w.os;
  while (SteadyClock::now() < deadline &&
         w.derived + kInvokeSubjects <= kDerivedPerWorld) {
    lane.BeginOp("invoke");
    const auto t0 = SteadyClock::now();
    auto result = lane.Call("ps.invoke", [&] {
      return os.ps().Invoke(Domain::kApplication, w.analytics);
    });
    const auto t1 = SteadyClock::now();
    lane.EndOp();
    const bool ok =
        result.ok() && result->records_considered == kInvokeSubjects &&
        result->records_processed + result->records_filtered_out ==
            kInvokeSubjects &&
        result->derived.size() == result->records_processed;
    seg.app_log.Record("invoke", origin, t0, t1, ok,
                       ok ? double(result->records_processed) : 0);
    if (!result.ok()) continue;
    w.derived += result->derived.size();
    ++phase.invokes;
    phase.considered += result->records_considered;
    phase.processed += result->records_processed;
    const core::StageTimings& t = result->timings;
    core::StageTimings& sum = phase.stage_sum;
    sum.type2req_ns += t.type2req_ns;
    sum.load_membrane_ns += t.load_membrane_ns;
    sum.filter_ns += t.filter_ns;
    sum.load_data_ns += t.load_data_ns;
    sum.execute_ns += t.execute_ns;
    sum.build_membrane_ns += t.build_membrane_ns;
    sum.store_ns += t.store_ns;
    sum.return_ns += t.return_ns;
  }
  stop.store(true);
}

void InvokeGenerator(World& w, std::uint64_t seed, InvokeSegment& seg,
                     Lane& lane, Prober& prober,
                     SteadyClock::time_point origin,
                     SteadyClock::time_point deadline,
                     const std::atomic<bool>& stop) {
  core::RgpdOs& os = *w.os;
  Rng rng(seed);
  PoissonSchedule schedule(kRightsRate, seed, SteadyClock::now());
  RunOpenLoop(schedule, deadline, [&](SteadyClock::time_point due,
                                      SteadyClock::time_point sent) {
    const std::size_t i = rng.NextBelow(kInvokeSubjects);
    const bool toggle_consent = rng.NextBool();
    const double late = NanosBetween(due, sent);
    seg.lateness_ns.push_back(late);
    prober.WaitIdle(i);
    const core::PdRef ref{w.record[i], "user"};
    lane.BeginOp("rights");
    const auto issued = SteadyClock::now();
    Status status;
    if (toggle_consent && w.revoked[i] != 0) {
      status = lane.Call("builtins.grant_consent", [&] {
        return os.builtins().GrantConsent(
            ref, "analytics", membrane::Consent::ForView("v_ano"));
      });
    } else if (toggle_consent) {
      status = lane.Call("builtins.revoke_consent", [&] {
        return os.builtins().RevokeConsent(ref, "analytics");
      });
    } else if (w.objected[i] != 0) {
      status = lane.Call("builtins.withdraw_objection", [&] {
        return os.builtins().WithdrawObjection(ref, "analytics");
      });
    } else {
      status = lane.Call("builtins.object", [&] {
        return os.builtins().Object(ref, "analytics");
      });
    }
    const auto acked = SteadyClock::now();
    lane.EndOp();
    // Latency runs from the due time; the program was busy from issue.
    seg.gen_log.Record("rights", origin, due, acked,
                       status.ok() && late <= kLateSendNs, 1,
                       NanosBetween(issued, acked));
    if (status.ok()) {
      (toggle_consent ? w.revoked : w.objected)[i] ^= 1;
      prober.Push({i, (w.revoked[i] | w.objected[i]) != 0 ? 0u : 1u});
    }
    return !stop.load();
  });
  prober.Finish();
}

/// The acked state must hold for the very next invoke of the record.
void InvokeProber(World& w, InvokeSegment& seg, Lane& lane, Prober& prober,
                  SteadyClock::time_point origin) {
  core::RgpdOs& os = *w.os;
  Prober::Probe probe;
  while (prober.Pop(&probe)) {
    core::InvokeOptions options;
    options.target = core::PdRef{w.record[probe.subject], "user"};
    lane.BeginOp("probe");
    const auto t0 = SteadyClock::now();
    auto result = lane.Call("ps.invoke", [&] {
      return os.ps().Invoke(Domain::kApplication, w.probe, options);
    });
    const auto t1 = SteadyClock::now();
    lane.EndOp();
    seg.probe_log.Record(
        "probe", origin, t0, t1,
        result.ok() && result->records_processed == probe.expect_processed);
    prober.Done(probe.subject);
  }
}

void InvokeRun(World& w, std::uint64_t seed, double seconds, bool traced,
               Phase& phase) {
  Lane& app_lane = phase.NewLane(traced);
  Lane& gen_lane = phase.NewLane(traced);
  Lane& probe_lane = phase.NewLane(traced);
  for (std::uint64_t segment = 0; phase.window_ns < seconds * 1e9;
       ++segment) {
    if (w.derived + kInvokeSubjects > kDerivedPerWorld) {
      w = InvokeSetup(seed);
    }
    InvokeSegment seg;
    Segment(w, phase, seconds * 1e9 - phase.window_ns,
            [&](SteadyClock::time_point origin,
                SteadyClock::time_point deadline) {
              std::atomic<bool> stop{false};
              Prober prober(kInvokeSubjects);
              std::thread app([&] {
                InvokeApp(w, phase, seg, app_lane, origin, deadline, stop);
              });
              std::thread generator([&] {
                InvokeGenerator(w, seed * 1000003 + segment, seg, gen_lane,
                                prober, origin, deadline, stop);
              });
              std::thread probes([&] {
                InvokeProber(w, seg, probe_lane, prober, origin);
              });
              app.join();
              generator.join();
              probes.join();
            });
    for (const OpLog* log : {&seg.app_log, &seg.gen_log, &seg.probe_log}) {
      phase.ops.Merge(*log);
    }
    phase.lateness_ns.insert(phase.lateness_ns.end(), seg.lateness_ns.begin(),
                             seg.lateness_ns.end());

    // Settle: with the stream stopped, one full scan must process exactly
    // the subjects whose acked state allows `analytics`.
    core::RgpdOs& os = *w.os;
    std::set<SubjectId> expected;
    for (SubjectId s = 1; s <= kInvokeSubjects; ++s) {
      if ((w.revoked[s - 1] | w.objected[s - 1]) == 0) expected.insert(s);
    }
    auto settle = os.ps().Invoke(Domain::kApplication, w.analytics);
    std::set<SubjectId> got;
    if (settle.ok()) {
      w.derived += settle->derived.size();
      for (const core::PdRef& ref : settle->derived) {
        auto record = os.dbfs().Get(Domain::kDed, ref.record_id);
        if (record.ok()) got.insert(record->subject_id);
      }
    }
    ++phase.ops.attempted;
    if (!settle.ok() || got != expected ||
        settle->records_processed != expected.size()) {
      ++phase.ops.failed;
      phase.gate_failures.push_back("settle invoke processed a different set");
    }
  }
}

// ---- rights_audit --------------------------------------------------------------
//
// One closed-loop customer client (GDPRBench customer mix) and one
// closed-loop regulator client (audit_subject = ProcessingLog::ForSubject,
// audit_purpose = RecordsOfType) over 2 000 subjects, on a processing log
// that setup aged past its hot window with read-only full-scan invokes, as
// in any long-running deployment. An erasure is followed by the subject
// re-registering. Main = right of access, side = audit_subject; ops_s is
// the customer's throughput, side_ops_s the regulator's.

World RightsAuditSetup(std::uint64_t seed) {
  World w = Populate(kRightsAuditSubjects, seed, 1, /*derive=*/false);
  core::ProcessingLog& log = w.os->processing_log();
  while (log.total_entries() <
         w.config.audit_hot_window + kAgedBeyondWindow) {
    auto r = w.os->ps().Invoke(Domain::kApplication, w.analytics);
    if (!r.ok() || r->records_processed != kRightsAuditSubjects) {
      Die("ageing invoke failed");
    }
  }
  return w;
}

void CustomerClient(World& w, std::uint64_t seed, unsigned client,
                    SteadyClock::time_point start,
                    SteadyClock::time_point deadline, Lane& lane, OpLog& log) {
  core::RgpdOs& os = *w.os;
  Rng rng(seed * 1000003 + 29 + client);
  Deck<workload::GdprOp> mix =
      DeckOf(workload::OpMix::Customer(), seed * 37 + client);
  while (SteadyClock::now() < deadline) {
    const SubjectId s =
        1 + 2 * rng.NextBelow(kRightsAuditSubjects / 2) + client;
    const std::size_t i = s - 1;
    const core::PdRef ref{w.record[i], "user"};
    const workload::GdprOp op = mix.Next();
    const std::string tag = "\"subject_id\":" + std::to_string(s) + ",";
    const char* cls = "customer";
    bool ok = false;
    lane.BeginOp(workload::GdprOpName(op).data());
    const auto t0 = SteadyClock::now();
    switch (op) {
      case workload::GdprOp::kRightOfAccess: {
        cls = "access";
        auto doc = lane.Call("rights.access",
                             [&] { return os.rights().Access(s); });
        ok = doc.ok() && doc->find(tag) != std::string::npos &&
             doc->find(w.name[i]) != std::string::npos;
        break;
      }
      case workload::GdprOp::kRightToPortability: {
        auto doc = lane.Call("rights.portability",
                             [&] { return os.rights().Portability(s); });
        ok = doc.ok() && doc->find(tag) != std::string::npos &&
             doc->find(w.name[i]) != std::string::npos;
        break;
      }
      case workload::GdprOp::kConsentWithdrawal:
        if (w.revoked[i] != 0) {
          ok = lane.Call("builtins.grant_consent", [&] {
            return os.builtins().GrantConsent(
                ref, "analytics", membrane::Consent::ForView("v_ano"));
          }).ok();
        } else {
          ok = lane.Call("builtins.revoke_consent", [&] {
            return os.builtins().RevokeConsent(ref, "analytics");
          }).ok();
        }
        if (ok) w.revoked[i] ^= 1;
        break;
      case workload::GdprOp::kRightToErasure: {
        auto erased = lane.Call("rights.forget", [&] {
          return os.rights().Forget(s, os.authority().public_key());
        });
        ok = erased.ok() && *erased == 1;
        // The subject re-registers: the sealed envelope goes, a fresh
        // record with default consent arrives.
        ok = ok && lane.Call("builtins.hard_delete", [&] {
          return os.builtins().HardDelete(ref);
        }).ok();
        if (ok) {
          std::string name;
          const db::Row row = FreshRow(rng, s, &name);
          auto id = lane.Call("dbfs.put", [&] {
            return os.dbfs().Put(Domain::kDed, s, "user", row,
                                 w.user.DefaultMembrane(s, os.clock().Now()));
          });
          ok = id.ok();
          if (ok) {
            w.record[i] = *id;
            w.name[i] = name;
            w.revoked[i] = 0;
          }
        }
        break;
      }
      default:
        Die("customer mix produced an unexpected op");
    }
    const auto t1 = SteadyClock::now();
    lane.EndOp();
    log.Record(cls, start, t0, t1, ok);
  }
}

void RegulatorClient(World& w, std::uint64_t seed,
                     SteadyClock::time_point start,
                     SteadyClock::time_point deadline, Lane& lane,
                     OpLog& log) {
  core::RgpdOs& os = *w.os;
  Rng rng(seed * 1000003 + 31);
  Deck<workload::GdprOp> mix = DeckOf(workload::OpMix::Regulator(), seed * 41);
  while (SteadyClock::now() < deadline) {
    const SubjectId s = 1 + rng.NextBelow(kRightsAuditSubjects);
    const workload::GdprOp op = mix.Next();
    const char* cls = "audit_purpose";
    bool ok = false;
    lane.BeginOp(workload::GdprOpName(op).data());
    const auto t0 = SteadyClock::now();
    if (op == workload::GdprOp::kAuditSubject) {
      cls = "audit_subject";
      const std::vector<core::LogEntry> history =
          lane.Call("processing_log.for_subject",
                    [&] { return os.processing_log().ForSubject(s); });
      ok = !history.empty();
      for (const core::LogEntry& e : history) ok = ok && e.subject_id == s;
    } else {
      auto ids = lane.Call("dbfs.records_of_type", [&] {
        return os.dbfs().RecordsOfType(Domain::kDed, "user");
      });
      // Each customer's erasure in flight may briefly take a record away.
      ok = ids.ok() && ids->size() + kCustomers >= kRightsAuditSubjects &&
           ids->size() <= kRightsAuditSubjects;
    }
    const auto t1 = SteadyClock::now();
    lane.EndOp();
    log.Record(cls, start, t0, t1, ok);
  }
}

void RightsAuditRun(World& w, std::uint64_t seed, double seconds, bool traced,
                    Phase& phase) {
  OpLog customer_logs[kCustomers];
  Segment(w, phase, seconds * 1e9, [&](SteadyClock::time_point start,
                                       SteadyClock::time_point deadline) {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kCustomers; ++c) {
      Lane& lane = phase.NewLane(traced);
      clients.emplace_back([&, c, &lane = lane] {
        CustomerClient(w, seed, c, start, deadline, lane, customer_logs[c]);
      });
    }
    Lane& regulator_lane = phase.NewLane(traced);
    OpLog regulator_log;
    clients.emplace_back([&] {
      RegulatorClient(w, seed, start, deadline, regulator_lane,
                      regulator_log);
    });
    for (std::thread& t : clients) t.join();
    for (const OpLog& log : customer_logs) phase.ops.Merge(log);
    phase.ops.Merge(regulator_log);
  });
}

const Workload kWorkloads[] = {
    {"controller", "read", "write", 0.95, 0.95, {"read", "write", "access"},
     false, ControllerSetup, ControllerRun},
    {"invoke", "invoke", "rights", 0.75, 0.95, {"invoke"}, true, InvokeSetup,
     InvokeRun},
    {"rights_audit", "access", "audit_subject", 0.5, 0.75,
     {"access", "customer"}, false, RightsAuditSetup, RightsAuditRun},
};

// ---- reporting ---------------------------------------------------------------

/// Percentile `q` of `samples`; the run fails when fewer than
/// kMinSamplesBeyond samples lie beyond it.
double PercentileOrDie(const std::vector<double>& samples, double q,
                       const std::string& metric) {
  const std::optional<double> v = Percentile(samples, q);
  if (!v) {
    Die("too few samples for " + metric + " (" +
        std::to_string(samples.size()) + " at q=" + std::to_string(q) + ")");
  }
  return *v;
}

std::vector<Metric> EndToEnd(const Workload& wl, const Phase& phase) {
  static const std::vector<double> kNone;
  const auto samples = [&](const char* cls) -> const std::vector<double>& {
    auto it = phase.ops.latency_ns.find(cls);
    return it == phase.ops.latency_ns.end() ? kNone : it->second;
  };
  const auto& main = samples(wl.main_class);
  const auto& side = samples(wl.side_class);
  const double us = 1e-3;
  // Throughput is the median over equal sub-windows; percentiles take the
  // whole window, as a sub-window holds too few samples beyond a tail.
  std::vector<double> ops_s, side_ops_s;
  const double sub_ns = phase.window_ns / kSubwindows;
  for (int k = 0; k < kSubwindows; ++k) {
    const auto rate = [&](const std::vector<std::string>& classes,
                          bool count_ops, const char* metric) {
      double work = 0, busy_ns = 0;
      for (const std::string& cls : classes) {
        auto it = phase.ops.tallies.find(cls);
        if (it == phase.ops.tallies.end()) continue;
        for (const OpLog::Tally& t : it->second) {
          if (t.done_ns < k * sub_ns || t.done_ns >= (k + 1) * sub_ns) {
            continue;
          }
          work += count_ops ? 1 : t.work;
          busy_ns += t.busy_ns;
        }
      }
      const double per_ns = wl.per_busy_time ? busy_ns : sub_ns;
      if (!(per_ns > 0)) {
        Die(std::string("no work for ") + metric + " in a sub-window");
      }
      return work / (per_ns / 1e9);
    };
    ops_s.push_back(rate(wl.ops_classes, false, "ops_s"));
    side_ops_s.push_back(rate({wl.side_class}, true, "side_ops_s"));
  }
  std::printf("  sub-window ops_s:");
  for (const double v : ops_s) std::printf(" %.1f", v);
  std::printf("  side_ops_s:");
  for (const double v : side_ops_s) std::printf(" %.1f", v);
  std::printf("\n");
  return {
      {"ops_s", Median(ops_s), "1/s"},
      {"main_p50_us", PercentileOrDie(main, 0.5, "main_p50_us") * us, "us"},
      {"main_tail_us",
       PercentileOrDie(main, wl.main_tail_q, "main_tail_us") * us, "us"},
      {"side_ops_s", Median(side_ops_s), "1/s"},
      {"side_p50_us", PercentileOrDie(side, 0.5, "side_p50_us") * us, "us"},
      {"side_tail_us",
       PercentileOrDie(side, wl.side_tail_q, "side_tail_us") * us, "us"},
  };
}

void PrintClasses(const Phase& phase) {
  for (const auto& [cls, n] : phase.ops.failed_by_class) {
    std::printf("  FAILED %-9s %llu ops\n", cls.c_str(),
                static_cast<unsigned long long>(n));
  }
  for (const auto& [cls, samples] : phase.ops.latency_ns) {
    const auto p50 = Percentile(samples, 0.5);
    const auto p99 = Percentile(samples, 0.99);
    std::printf("  %-16s n=%-7zu p50=%10.1fus p99=%s\n", cls.c_str(),
                samples.size(), p50.value_or(0) / 1e3,
                p99 ? (std::to_string(*p99 / 1e3) + "us").c_str()
                    : "(too few samples)");
  }
}

std::vector<Metric> PerLayer(const Phase& phase,
                             const std::vector<Metric>& untraced,
                             const std::vector<Metric>& traced) {
  std::vector<Metric> out;
  const auto add = [&](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  const RegistryDelta& r = phase.registry;
  const double ops = std::max<double>(1, double(phase.ops.done_ns.size()));
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  // core.ps / core.ded: stage time per full-scan invoke.
  const double inv = std::max<double>(1, double(phase.invokes));
  const core::StageTimings& st = phase.stage_sum;
  add("ded.type2req_ns", double(st.type2req_ns) / inv, "ns");
  add("ded.load_membrane_ns", double(st.load_membrane_ns) / inv, "ns");
  add("ded.filter_ns", double(st.filter_ns) / inv, "ns");
  add("ded.load_data_ns", double(st.load_data_ns) / inv, "ns");
  add("ded.execute_ns", double(st.execute_ns) / inv, "ns");
  add("ded.build_membrane_ns", double(st.build_membrane_ns) / inv, "ns");
  add("ded.store_ns", double(st.store_ns) / inv, "ns");
  add("ded.return_ns", double(st.return_ns) / inv, "ns");
  add("ded.processed_ratio",
      ratio(double(phase.processed), double(phase.considered)), "ratio");
  add("cache.decision.hit_ratio",
      ratio(r.Counter("cache.decision.hit"),
            r.Counter("cache.decision.hit") + r.Counter("cache.decision.miss")),
      "ratio");
  add("core.consent.stale_revoked", r.Counter("core.consent.stale_revoked"),
      "count");

  // Driver-timed layer calls.
  std::vector<const Lane*> lanes;
  for (const auto& lane : phase.lanes) lanes.push_back(lane.get());
  const SpanSummary spans = Summarize(lanes);
  static const char* const kCalls[] = {
      "ps.invoke",          "builtins.update",
      "builtins.hard_delete", "builtins.revoke_consent",
      "builtins.grant_consent", "builtins.object",
      "builtins.withdraw_objection", "rights.access",
      "rights.portability", "rights.forget",
      "processing_log.for_subject", "dbfs.put",
      "dbfs.get",           "dbfs.records_of_subject",
      "dbfs.records_of_type"};
  for (const char* call : kCalls) {
    auto it = spans.calls.find(call);
    const CallStats none;
    const CallStats& c = it == spans.calls.end() ? none : it->second;
    add(std::string(call) + ".count", double(c.count), "count");
    add(std::string(call) + ".total_ms", c.total_ns / 1e6, "ms");
    add(std::string(call) + ".p50_us",
        c.durations_ns.empty() ? 0 : Median(c.durations_ns) / 1e3, "us");
  }

  // core.processing_log / auditlog.
  add("processing_log.entries_start", double(phase.log_start), "count");
  add("processing_log.entries_end", double(phase.log_end), "count");
  add("processing_log.hot_window",
      double(core::BootConfig{}.audit_hot_window), "count");
  add("core.processing_log.window_evictions",
      r.Counter("core.processing_log.window_evictions"), "count");
  add("auditlog.segments.sealed", r.Counter("auditlog.segments.sealed"),
      "count");
  add("auditlog.raw_per_stored_byte",
      ratio(r.Counter("auditlog.segments.raw_bytes"),
            r.Counter("auditlog.segments.stored_bytes")),
      "ratio");
  {
    auto fs = spans.calls.find("processing_log.for_subject");
    auto ac = spans.calls.find("rights.access");
    add("for_subject_share_of_access",
        fs == spans.calls.end() || ac == spans.calls.end()
            ? 0
            : ratio(Median(fs->second.durations_ns),
                    Median(ac->second.durations_ns)),
        "ratio");
  }

  // dbfs.
  add("cache.record.hit_ratio",
      ratio(r.Counter("cache.record.hit"),
            r.Counter("cache.record.hit") + r.Counter("cache.record.miss")),
      "ratio");
  add("cache.record.evict", r.Counter("cache.record.evict"), "count");
  add("dbfs.live_records_start", double(phase.live_start), "count");
  add("dbfs.live_records_end", double(phase.live_end), "count");

  // inodefs.
  const auto commit = r.Histogram("inodefs.txn.commit_latency_ns");
  add("inodefs.txn.commits", r.Counter("inodefs.txn.commits"), "count");
  add("inodefs.txn.commit_ms", double(commit.sum) / 1e6, "ms");
  add("inodefs.txn.commit_p50_us", commit.ApproxQuantile(0.5) / 1e3, "us");
  add("inodefs.journal.commits", r.Counter("inodefs.journal.commits"),
      "count");
  add("inodefs.journal.bytes", r.Counter("inodefs.journal.bytes"), "B");
  add("journal_write_amp",
      ratio(r.Counter("inodefs.journal.bytes"),
            r.Counter("dbfs.put.logical_bytes")),
      "ratio");
  add("inodefs.group_commit.flushes", r.Counter("inodefs.group_commit.flushes"),
      "count");
  add("inodefs.group_commit.blocks_per_flush",
      ratio(r.Counter("inodefs.group_commit.blocks"),
            r.Counter("inodefs.group_commit.flushes")),
      "ratio");
  add("inodefs.io.retries", r.Counter("inodefs.io.retries"), "count");

  // blockdev.
  const double hits = r.Counter("cache.block.hit");
  const double misses = r.Counter("cache.block.miss");
  add("cache.block.hits", hits, "count");
  add("cache.block.misses", misses, "count");
  add("cache.block.hit_ratio", ratio(hits, hits + misses), "ratio");
  add("cache.block.evict", r.Counter("cache.block.evict"), "count");
  add("cache.block.misses_per_op", misses / ops, "1/op");
  add("blockdev.async.submitted", r.Counter("blockdev.async.submitted"),
      "count");
  add("blockdev.async.completed", r.Counter("blockdev.async.completed"),
      "count");
  add("blockdev.async.coalesced_flushes",
      r.Counter("blockdev.async.coalesced_flushes"), "count");
  const blockdev::DeviceStats& d = phase.device;
  add("device.reads_per_op", double(d.reads) / ops, "1/op");
  add("device.writes_per_op", double(d.writes) / ops, "1/op");
  add("device.bytes_written_per_op", double(d.bytes_written) / ops, "B/op");
  add("device.flushes_per_op", double(d.flushes) / ops, "1/op");
  add("device.simulated_ns_per_op", double(phase.sim_ns) / ops, "sim_ns/op");

  // sentinel.
  add("sentinel.enforce.allowed", r.Counter("sentinel.enforce.allowed"),
      "count");
  add("sentinel.enforce.denied", r.Counter("sentinel.enforce.denied"),
      "count");
  add("sentinel.audit.entries", r.Counter("sentinel.audit.entries"), "count");
  add("sentinel.audit.persisted", r.Counter("sentinel.audit.persisted"),
      "count");
  add("sentinel.audit.dropped", r.Counter("sentinel.audit.dropped"), "count");
  add("sentinel.audit.backpressure.blocked",
      r.Counter("sentinel.audit.backpressure.blocked"), "count");
  add("sentinel.audit.backpressure.wait_ms",
      double(r.Histogram("sentinel.audit.backpressure.wait_us").sum) / 1e3,
      "ms");
  {
    const auto snapshot = metrics::MetricsRegistry::Instance().Snapshot();
    const std::int64_t* depth = snapshot.FindGauge("sentinel.audit.queue_depth");
    add("sentinel.audit.queue_depth_end", depth == nullptr ? 0 : double(*depth),
        "count");
  }

  // metrics locks.
  add("lock.contention.total_per_op", r.Counter("lock.contention.total") / ops,
      "1/op");
  const auto top = r.TopLocks(5);
  for (std::size_t k = 0; k < 5; ++k) {
    add("lock.top" + std::to_string(k + 1) + "_per_op",
        k < top.size() ? top[k].second / ops : 0, "1/op");
  }

  // Benchmark driver health.
  // 0 on closed-loop workloads; p90 because a run's few hundred sends
  // leave too few beyond a p99.
  add("driver.lateness_p90_us",
      Percentile(phase.lateness_ns, 0.9).value_or(0) / 1e3, "us");
  add("driver.drift_ratio", DriftRatio(phase.ops.done_ns, phase.window_ns),
      "ratio");
  add("driver.unattributed_pct",
      spans.op_ns > 0 ? 100.0 * (spans.op_ns - spans.attributed_ns) /
                            spans.op_ns
                      : 0,
      "%");
  for (std::size_t k = 0; k < untraced.size(); ++k) {
    add("overhead." + untraced[k].name, ratio(traced[k].value, untraced[k].value),
        "ratio");
  }

  std::printf("lock contention (top): ");
  for (const auto& [name, count] : top) {
    std::printf("%s=%.0f ", name.c_str(), count);
  }
  std::printf("\n");
  return out;
}

// ---- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      args.workload = value;
      continue;
    }
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (errno != 0 || end == value || *end != '\0') {
      Die("bad value for " + key + ": " + value);
    }
    if (key == "--seed") {
      args.seed = n;
    } else if (key == "--seconds") {
      if (n == 0) Die("--seconds must be positive");
      args.seconds = double(n);
    } else if (key == "--trace") {
      args.trace = n != 0;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (argc % 2 != 1) Die("flags come in --name value pairs");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) wl = &candidate;
  }
  if (wl == nullptr) Die("unknown --workload '" + args.workload + "'");
  // RgpdOs::Boot applies RGPDOS_* overrides (CI presets export several);
  // a measurement must run the shipped configuration.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "RGPDOS_", 7) == 0) {
      Die(std::string("refusing to measure with ") + *env + " set");
    }
  }

  std::vector<double> setup_s;
  World world;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    world = World{};  // tear the previous world down before timing
    const auto t0 = SteadyClock::now();
    world = wl->setup(args.seed);
    setup_s.push_back(NanosBetween(t0, SteadyClock::now()) / 1e9);
  }
  PrintConfig(world.config);

  // One measured window after an untimed warm-up that fills the caches.
  const double warmup = std::max(1.0, args.seconds * kWarmupShare);
  const auto run = [&](bool traced) {
    Phase warm;
    wl->run(world, args.seed, warmup, false, warm);
    auto phase = std::make_unique<Phase>();
    wl->run(world, args.seed, args.seconds, traced, *phase);
    return phase;
  };

  std::unique_ptr<Phase> measured = run(false);
  std::vector<Metric> metrics = EndToEnd(*wl, *measured);
  for (const Metric& m : metrics) {
    if (!(m.value > 0)) Die(m.name + " measured no work");
  }
  std::uint64_t attempted = measured->ops.attempted;
  std::uint64_t failed = measured->ops.failed;
  std::vector<std::string> gates = measured->gate_failures;
  std::printf("workload %s, seed %llu, %.0f s measured (untraced)\n",
              wl->name, static_cast<unsigned long long>(args.seed),
              measured->window_ns / 1e9);
  PrintClasses(*measured);
  std::printf("  live records %zu -> %zu, log entries %llu -> %llu, "
              "second/first-half ops %.3f, open-loop sends %zu, latest "
              "%.1f us late\n",
              measured->live_start, measured->live_end,
              static_cast<unsigned long long>(measured->log_start),
              static_cast<unsigned long long>(measured->log_end),
              DriftRatio(measured->ops.done_ns, measured->window_ns),
              measured->lateness_ns.size(),
              measured->lateness_ns.empty()
                  ? 0.0
                  : *std::max_element(measured->lateness_ns.begin(),
                                      measured->lateness_ns.end()) /
                        1e3);

  if (args.trace) {
    world = wl->setup(args.seed);
    std::unique_ptr<Phase> traced = run(true);
    std::printf("traced window:\n");
    PrintClasses(*traced);
    const std::vector<Metric> traced_e2e = EndToEnd(*wl, *traced);
    attempted += traced->ops.attempted;
    failed += traced->ops.failed;
    gates.insert(gates.end(), traced->gate_failures.begin(),
                 traced->gate_failures.end());
    std::vector<Metric> per_layer =
        PerLayer(*traced, metrics, traced_e2e);
    metrics = std::move(per_layer);
    std::vector<const Lane*> lanes;
    for (const auto& lane : traced->lanes) lanes.push_back(lane.get());
    std::filesystem::create_directories(".perfbench_out");
    const std::string path =
        std::string(".perfbench_out/trace-") + wl->name + ".json";
    if (!WriteChromeTrace(path, lanes)) Die("cannot write " + path);
    std::printf("spans written to %s\n", path.c_str());
  } else {
    metrics.insert(metrics.begin(), {"setup_s", Median(setup_s), "s"});
  }
  const double dropped =
      double(metrics::MetricsRegistry::Instance()
                 .GetCounter("sentinel.audit.dropped")
                 .Value());
  if (dropped > 0) {
    gates.push_back("audit entries dropped");
    ++failed;
    ++attempted;
  }
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& g : gates) std::printf("GATE FAILED: %s\n", g.c_str());
  const bool correct = gates.empty() && failed == 0;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }


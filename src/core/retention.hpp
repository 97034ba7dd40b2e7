// Sentinel retention sweeper — proactive enforcement of the GDPR's
// storage-limitation principle (Art. 5(1)(e)).
//
// The membrane carries a time-to-live, but Membrane::Evaluate enforces
// it only *lazily*: PD that is never accessed again would outlive its
// TTL indefinitely on the raw medium, in the caches and in the audit
// trail. The sweeper converts expiry from a read-path check into a
// system invariant: a background compliance daemon incrementally scans
// the DBFS subject tree and proactively erases every record whose TTL
// has elapsed — a journaled hard delete (or crypto-erasure envelope, in
// crypto mode), which structurally invalidates the block cache
// (InvalidateCached on every scrubbed block) and the decoded-record
// cache (generation bump) before it acknowledges, exactly like a
// subject-initiated erasure. With the daemon running, expired PD bytes
// are absent from the medium within one sweep period.
//
// Pacing: the scan is paged (one page = one subject's subtree) under a
// token bucket refilled with `pages_per_sweep` tokens per sweep, and it
// yields between pages while foreground ps_invoke traffic is in flight
// (the `foreground_busy` hook), so compliance work never starves the
// application. A sweep that runs out of tokens simply resumes from its
// cursor at the next tick.
//
// Crash safety: each expiry is an ordinary journaled DBFS transaction
// (the same HardDelete / ReplaceWithEnvelope paths the rights engine
// uses), so the every-write crash harness applies unchanged — a crash
// mid-sweep leaves each expiry either fully applied (plaintext
// unrecoverable) or fully absent, never half-done, and the next sweep
// re-finds whatever was not reaped.
//
// Metrics: sentinel.retention.{scanned,expired,erased,deferred,sweeps,
// errors,yields} counters and a sentinel.retention.sweep_latency_ns
// histogram.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "common/clock.hpp"
#include "core/executor.hpp"
#include "core/processing_log.hpp"
#include "crypto/rsa.hpp"
#include "crypto/secure_random.hpp"
#include "dbfs/sharded_dbfs.hpp"
#include "metrics/lock.hpp"
#include "sentinel/audit.hpp"

namespace rgpdos::core {

struct RetentionOptions {
  /// Daemon period between sweeps (wall time; expiry itself is judged
  /// against the injected Clock, which may be simulated).
  std::uint64_t sweep_interval_micros = 1'000'000;
  /// Token-bucket refill per sweep: how many pages (one page = one
  /// subject's subtree) a single sweep may scan. 0 = unlimited.
  std::size_t pages_per_sweep = 64;
  /// Token-bucket capacity; unused budget carries over up to this burst.
  /// 0 = 2 * pages_per_sweep.
  std::size_t burst_pages = 0;
  /// Erase flavour: false = journaled hard delete (physical scrub),
  /// true = crypto-erasure (seal to the authority, like EraseWithHold).
  /// Crypto mode requires authority_key + rng deps.
  bool crypto_erase = false;
};

/// What one sweep did (also accumulated on the sweeper's totals).
struct SweepReport {
  std::uint64_t pages = 0;     ///< subjects scanned
  std::uint64_t scanned = 0;   ///< live membranes inspected
  std::uint64_t expired = 0;   ///< live records found past their TTL
  std::uint64_t erased = 0;    ///< expiries applied end-to-end
  std::uint64_t deferred = 0;  ///< expired but held back (Art. 18
                               ///< restriction, or a transient erase error)
  bool yielded = false;        ///< stopped early for foreground traffic
  bool wrapped = false;        ///< the cursor completed a full cycle
};

class RetentionSweeper {
 public:
  /// Borrowed collaborators. `audit`, `log`, `foreground_busy` are
  /// optional; `authority_key` + `rng` are required only in crypto mode
  /// (the crash harness runs the sweeper bare: dbfs + clock only).
  struct Deps {
    dbfs::ShardedDbfs* dbfs = nullptr;
    const Clock* clock = nullptr;
    sentinel::AuditSink* audit = nullptr;
    ProcessingLog* log = nullptr;
    const crypto::RsaPublicKey* authority_key = nullptr;
    crypto::SecureRandom* rng = nullptr;
    /// Optional DED worker pool: a sweep then fans its page batch over
    /// the pool's lanes (the sweeping thread helps drain, like any
    /// ParallelFor caller). Null = pages sweep sequentially.
    DedExecutor* executor = nullptr;
    /// Returns true while foreground work (ps_invoke) is in flight; the
    /// sweeper then yields the rest of its sweep.
    std::function<bool()> foreground_busy;
  };

  RetentionSweeper(Deps deps, RetentionOptions options);
  ~RetentionSweeper();
  RetentionSweeper(const RetentionSweeper&) = delete;
  RetentionSweeper& operator=(const RetentionSweeper&) = delete;

  /// One incremental sweep, inline on the calling thread (the daemon
  /// calls exactly this). Scans pages until the token bucket runs dry,
  /// the cursor wraps, or foreground traffic demands a yield.
  Result<SweepReport> SweepOnce();

  /// Start / stop the background daemon (idempotent). Boot starts it
  /// when BootConfig::retention_enabled is set.
  void Start();
  void Stop();
  [[nodiscard]] bool running() const;

  [[nodiscard]] const RetentionOptions& options() const { return options_; }

  // Lifetime totals (all sweeps), for tests and benches to poll.
  [[nodiscard]] std::uint64_t total_scanned() const {
    return total_scanned_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_expired() const {
    return total_expired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_erased() const {
    return total_erased_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_deferred() const {
    return total_deferred_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sweep_count() const {
    return sweep_count_.load(std::memory_order_relaxed);
  }

 private:
  /// Scan one subject's subtree; erases expired records as it goes.
  Status SweepSubject(dbfs::SubjectId subject, TimeMicros now,
                      SweepReport& report);
  /// Apply one expiry end-to-end (erase + audit + processing log).
  Status EraseExpired(const dbfs::PdRecord& record);
  void Audit(bool allowed, const std::string& rule, std::string detail);
  void DaemonLoop();

  const Deps deps_;
  const RetentionOptions options_;

  /// Serialises sweeps (daemon vs. manual SweepOnce) and guards cursor_
  /// + tokens_. Outermost rank: held across the whole page, which takes
  /// every lock on the erasure path underneath.
  mutable metrics::OrderedMutex sweep_mu_{metrics::LockRank::kRetention,
                                          "sentinel.retention"};
  dbfs::SubjectId cursor_ = 0;  // last subject swept; 0 = start of cycle
  std::size_t tokens_ = 0;

  std::atomic<std::uint64_t> total_scanned_{0};
  std::atomic<std::uint64_t> total_expired_{0};
  std::atomic<std::uint64_t> total_erased_{0};
  std::atomic<std::uint64_t> total_deferred_{0};
  std::atomic<std::uint64_t> sweep_count_{0};

  // Daemon plumbing (plain mutex: never held while sweeping).
  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace rgpdos::core

// RgpdOs — the machine facade. Boots the whole stack of Fig. 4:
//
//   block devices (simulated)  ->  inode stores (journaled)
//     ├─ DBFS device  -> DBFS (schema tree + subject tree, PD only)
//     └─ NPD device   -> file-granularity filesystem (ext4 stand-in)
//   sentinel (LSM analogue) + audit sink
//   ProcessingStore (ps_register / ps_invoke)  ->  DED pipeline
//   built-ins (update/delete/copy/acquisition), rights, processing log
//   supervisory authority (escrow keypair; operator sees only the
//   public key)
//
// Examples and benches talk to this class; tests mostly target the
// individual components underneath.
#pragma once

#include <memory>
#include <vector>

#include "blockdev/block_cache.hpp"
#include "blockdev/block_device.hpp"
#include "blockdev/fault_injection.hpp"
#include "blockdev/latency_model.hpp"
#include "core/anonymize.hpp"
#include "core/authority.hpp"
#include "core/builtins.hpp"
#include "core/processing_store.hpp"
#include "core/receipts.hpp"
#include "core/retention.hpp"
#include "core/rights.hpp"
#include "dbfs/sharded_dbfs.hpp"
#include "inodefs/filesystem.hpp"
#include "sentinel/audit_pipeline.hpp"

namespace rgpdos::core {

struct BootConfig {
  std::uint32_t block_size = 4096;
  std::uint64_t dbfs_blocks = 16384;  ///< 64 MiB DBFS device
  std::uint64_t npd_blocks = 4096;    ///< 16 MiB NPD device
  std::uint32_t inode_count = 16384;
  std::uint64_t journal_blocks = 256;
  std::size_t authority_key_bits = 1024;
  /// Deterministic seed for key generation and envelopes (tests/benches);
  /// 0 draws entropy.
  std::uint64_t seed = 42;
  /// Use a manually advanced clock (TTL tests) instead of wall time.
  bool use_sim_clock = false;
  /// Physically segregate high-sensitivity PD onto a dedicated second
  /// device/store (paper §2's storage-separation prescription).
  bool split_sensitive = false;
  std::uint64_t sensitive_blocks = 4096;
  /// DED worker pool size. 1 (default) runs every pipeline inline on
  /// the invoking thread — the historical behaviour; 0 sizes the pool
  /// from the kernel's CPU partition (kernel::CpuPartition::Plan); N > 1
  /// spawns N-1 pool threads so an invoke uses N lanes total.
  unsigned worker_threads = 1;
  /// PD read-path caching (see DESIGN.md "Caching & invalidation").
  /// Setting every cache_* knob to 0/false restores the uncached
  /// behaviour; the env var RGPDOS_CACHE=0 does the same at runtime.
  /// Block-cache capacity in blocks, per PD store (the primary and the
  /// split sensitive store each get their own cache). 0 = no block cache.
  std::uint64_t cache_blocks = 1024;
  /// Lock shards per block cache.
  std::size_t cache_shards = 8;
  /// Decoded-record cache capacity in records. 0 = no record cache.
  std::size_t cache_record_entries = 4096;
  /// Memoize per-invoke consent decisions in the DED.
  bool cache_decisions = true;
  /// Simulated device cost model applied to the PD devices (benches
  /// normalise throughput by wall + simulated time). Zero = no model.
  /// Its queue_depth amortises the batches the journal, group commit
  /// and batched reads issue (DESIGN.md §13).
  blockdev::LatencyProfile latency = blockdev::LatencyProfile::Zero();
  /// Every journal logs only the dirty byte ranges of each block (extent
  /// records, the only format). A constant, not a knob; it stays a
  /// member because perfbench's config banner prints it.
  static constexpr bool journal_extents = true;
  /// Fault injection on the PD devices (crash/torn-write/transient-error
  /// testing). When enabled, each PD raw device is wrapped in a
  /// FaultInjectingBlockDevice (innermost decorator) running `fault_plan`.
  /// RGPDOS_FAULT_SEED=N forces it on with FaultPlan::FromSeed(N, 4096).
  bool fault_inject = false;
  blockdev::FaultPlan fault_plan;
  /// Transient-IO retry policy handed to every inode store.
  inodefs::RetryPolicy io_retry;
  /// Retention sweeper (storage limitation, Art. 5(1)(e)): proactively
  /// erase PD whose membrane TTL has elapsed. When enabled, Boot starts
  /// the background daemon; disabled, the sweeper is still constructed
  /// so tests/benches can drive SweepOnce by hand. See DESIGN.md
  /// "Retention & storage limitation".
  bool retention_enabled = false;
  /// Daemon period between sweeps, in milliseconds.
  std::uint64_t retention_interval_ms = 1000;
  /// Token-bucket refill: subjects scanned per sweep. 0 = unlimited.
  std::size_t retention_pages_per_sweep = 64;
  /// Token-bucket cap (burst). 0 = 2 * retention_pages_per_sweep.
  std::size_t retention_burst_pages = 0;
  /// Expiry flavour: false = journaled hard delete (physical scrub),
  /// true = crypto-erasure sealed to the supervisory authority.
  bool retention_crypto_erase = false;
  /// Audit-sink ring capacity (the in-memory hot window; entries kept,
  /// oldest evicted beyond this with exact evicted/dropped counters).
  /// sentinel::AuditSink::kUnbounded = never evict; 0 = retain nothing.
  std::size_t audit_entries = sentinel::AuditSink::kDefaultCapacity;
  /// Durable tamper-evident audit pipeline (DESIGN.md §14): every
  /// enforcement decision is hash-chained and persisted to sealed,
  /// compressed segments on shard 0's store by a background writer, and
  /// the processing log lives in the same segmented format with a
  /// bounded in-memory hot window. Always on: a constant, not a knob,
  /// kept as a member for perfbench's config banner like
  /// journal_extents.
  static constexpr bool audit_durable = true;
  /// Producer-side bounded queue in front of the audit writer thread.
  /// When full, producers BLOCK (backpressure) up to
  /// audit_backpressure_ms before the entry is counted dropped.
  /// RGPDOS_AUDIT_QUEUE overrides.
  std::size_t audit_queue_entries = 8192;
  /// Max entries the writer persists per batch (one journaled append).
  std::size_t audit_batch_entries = 256;
  /// Backpressure deadline, milliseconds. 0 = fail immediately when the
  /// queue is full.
  std::uint64_t audit_backpressure_ms = 2000;
  /// Seal threshold for audit/processing-log segments (raw bytes).
  /// RGPDOS_AUDIT_SEGMENT_BYTES overrides.
  std::uint64_t audit_segment_bytes = 256 * 1024;
  /// Bounded in-memory window of the processing log (0 = unbounded).
  /// Trimmed history stays durable and queryable.
  std::size_t audit_hot_window = 65536;
  /// Attach existing DBFS images instead of formatting fresh in-memory
  /// ones, one medium per shard (device i backs shard i): Boot mounts
  /// them (replaying each journal — the boot-time crash-recovery entry
  /// point) rather than formatting. The devices are borrowed and must
  /// outlive the instance; they still get the latency/cache decorators,
  /// which come up cold. `shards` must equal the device count, and
  /// split_sensitive is refused (the images carry no sensitive
  /// siblings); either mismatch is kInvalidArgument.
  std::vector<blockdev::BlockDevice*> attach_dbfs_devices;
  /// Number of independent PD store shards (DESIGN.md §12). Boot
  /// replicates the whole vertical stack N times — device, fault
  /// injector, latency model, block cache, journaled inode store (and,
  /// with split_sensitive, a sensitive sibling per shard) — behind the
  /// dbfs::ShardedDbfs facade routing subjects by `subject % N`; 1 is a
  /// one-shard facade. Each shard gets the full dbfs_blocks /
  /// inode_count / journal_blocks / cache_blocks budget. RGPDOS_SHARDS
  /// overrides on fresh boots only (an attached image keeps its shards).
  std::size_t shards = 1;
};

class RgpdOs {
 public:
  static Result<std::unique_ptr<RgpdOs>> Boot(const BootConfig& config);
  /// Orderly teardown: stops the retention daemon, detaches + stops the
  /// audit pipeline (draining its queue to the store), then lets the
  /// members unwind.
  ~RgpdOs();

  // ---- components ------------------------------------------------------------
  /// The PD store: the ShardedDbfs facade over shard_count() shards.
  [[nodiscard]] dbfs::ShardedDbfs& dbfs() { return *dbfs_; }
  [[nodiscard]] ProcessingStore& ps() { return *ps_; }
  [[nodiscard]] ProcessingLog& processing_log() { return *log_; }
  [[nodiscard]] Builtins& builtins() { return *builtins_; }
  [[nodiscard]] Rights& rights() { return *rights_; }
  [[nodiscard]] Anonymizer& anonymizer() { return *anonymizer_; }
  [[nodiscard]] ReceiptIssuer& receipts() { return *receipts_; }
  [[nodiscard]] Authority& authority() { return *authority_; }
  /// Always non-null; the daemon inside is running iff retention_enabled.
  [[nodiscard]] RetentionSweeper& retention() { return *retention_; }
  [[nodiscard]] sentinel::Sentinel& sentinel() { return *sentinel_; }
  [[nodiscard]] sentinel::AuditSink& audit() { return audit_; }
  /// Non-null after every successful Boot.
  [[nodiscard]] sentinel::DurableAuditPipeline* audit_pipeline() {
    return audit_pipeline_.get();
  }
  [[nodiscard]] inodefs::FileSystem& npd_fs() { return *npd_fs_; }
  /// Number of PD store shards this instance booted with (>= 1).
  [[nodiscard]] std::size_t shard_count() const { return pd_shards_.size(); }
  /// Shard `shard`'s journaled inode store (0 = the first/only shard,
  /// which also carries the processing log).
  [[nodiscard]] inodefs::InodeStore& dbfs_store(std::size_t shard = 0) {
    return *pd_shards_[shard].store;
  }
  /// Shard `shard`'s raw PD device, as the BlockDevice interface (it may
  /// be an owned MemBlockDevice or a caller-attached medium).
  [[nodiscard]] blockdev::BlockDevice& dbfs_device(std::size_t shard = 0) {
    return *pd_shards_[shard].raw;
  }
  /// Non-null iff booted with split_sensitive (per shard).
  [[nodiscard]] blockdev::BlockDevice* sensitive_device(
      std::size_t shard = 0) {
    return sensitive_shards_.empty() ? nullptr : sensitive_shards_[shard].raw;
  }
  /// Non-null iff booted with cache_blocks != 0.
  [[nodiscard]] blockdev::BlockCacheDevice* dbfs_cache(std::size_t shard = 0) {
    return pd_shards_[shard].cache.get();
  }
  [[nodiscard]] blockdev::BlockCacheDevice* sensitive_cache(
      std::size_t shard = 0) {
    return sensitive_shards_.empty() ? nullptr
                                     : sensitive_shards_[shard].cache.get();
  }
  /// Non-null iff booted with a non-zero latency profile.
  [[nodiscard]] blockdev::LatencyModelDevice* dbfs_latency(
      std::size_t shard = 0) {
    return pd_shards_[shard].latency.get();
  }
  [[nodiscard]] blockdev::LatencyModelDevice* sensitive_latency(
      std::size_t shard = 0) {
    return sensitive_shards_.empty() ? nullptr
                                     : sensitive_shards_[shard].latency.get();
  }
  /// Non-null iff booted with fault_inject (config or RGPDOS_FAULT_SEED).
  [[nodiscard]] blockdev::FaultInjectingBlockDevice* dbfs_fault(
      std::size_t shard = 0) {
    return pd_shards_[shard].fault.get();
  }
  [[nodiscard]] blockdev::FaultInjectingBlockDevice* sensitive_fault(
      std::size_t shard = 0) {
    return sensitive_shards_.empty() ? nullptr
                                     : sensitive_shards_[shard].fault.get();
  }
  [[nodiscard]] const Clock& clock() const { return *clock_; }
  /// Non-null iff booted with use_sim_clock.
  [[nodiscard]] SimClock* sim_clock() { return sim_clock_; }
  [[nodiscard]] crypto::SecureRandom& rng() { return rng_; }
  /// Non-null iff the DED runs on more than one lane: worker_threads > 1,
  /// or 0 on a host whose CPU partition plans several lanes (a host with
  /// 2 or fewer CPUs plans one, so it boots no executor).
  [[nodiscard]] DedExecutor* executor() { return executor_.get(); }

  // ---- sysadmin conveniences ---------------------------------------------------
  /// Parse a Listing-1 source and create every declared type; returns
  /// the number of types created. Purposes in the source are ignored
  /// here (register them with RegisterProcessingSource).
  Result<std::size_t> DeclareTypes(std::string_view dsl_source);
  /// Parse a purpose declaration and register a processing under it.
  Result<ProcessingId> RegisterProcessingSource(std::string_view dsl_source,
                                                ProcessingFn fn,
                                                ImplManifest manifest);

  // ---- subject-facing conveniences ----------------------------------------------
  Result<std::string> RightOfAccess(dbfs::SubjectId subject) {
    return rights_->Access(subject);
  }
  Result<std::size_t> RightToBeForgotten(dbfs::SubjectId subject) {
    return rights_->Forget(subject, authority_->public_key());
  }
  Result<std::string> RightToPortability(dbfs::SubjectId subject) {
    return rights_->Portability(subject);
  }
  /// Art. 21: object to / withdraw the objection against one purpose,
  /// across every record (and copy) of the subject.
  Result<std::size_t> RightToObject(dbfs::SubjectId subject,
                                    const std::string& purpose) {
    return rights_->Object(subject, purpose);
  }
  Result<std::size_t> WithdrawObjection(dbfs::SubjectId subject,
                                        const std::string& purpose) {
    return rights_->WithdrawObjection(subject, purpose);
  }
  /// Art. 22: opt the subject out of solely-automated decisions.
  Result<std::size_t> OptOutAutomatedDecisions(dbfs::SubjectId subject,
                                               bool opt_out = true) {
    return rights_->OptOutAutomatedDecisions(subject, opt_out);
  }
  /// Consent withdrawal with an Art. 7 receipt: revokes group-wide and
  /// hands back a signed receipt the subject can retain.
  Result<ConsentReceipt> RevokeConsentWithReceipt(const PdRef& ref,
                                                  const std::string& purpose);

 private:
  RgpdOs() : rng_(0) {}

  /// One shard's vertical storage stack — the composition unit the
  /// sharded spine replicates. Members are declared raw-device first and
  /// store last, so the implicit reverse-order destruction tears down
  /// store -> cache -> latency -> fault -> device (inner before outer,
  /// exactly the order the old singleton members guaranteed).
  struct StoreStack {
    std::unique_ptr<blockdev::MemBlockDevice> owned_device;  // null if attached
    blockdev::BlockDevice* raw = nullptr;  ///< owned_device or attached medium
    std::unique_ptr<blockdev::FaultInjectingBlockDevice> fault;
    std::unique_ptr<blockdev::LatencyModelDevice> latency;
    std::unique_ptr<blockdev::BlockCacheDevice> cache;
    blockdev::BlockDevice* top = nullptr;  ///< outermost decorator
    std::unique_ptr<inodefs::InodeStore> store;
  };
  /// Build one shard's stack over `attached` and Mount the inode store
  /// on top, replaying its journal — or, when `attached` is null, over a
  /// fresh MemBlockDevice of `blocks`, and Format it.
  static Result<StoreStack> BuildStack(const BootConfig& config,
                                       blockdev::BlockDevice* attached,
                                       std::uint64_t blocks,
                                       metrics::LockRank lock_rank,
                                       const Clock* clock);

  std::unique_ptr<Clock> clock_;
  SimClock* sim_clock_ = nullptr;  // aliases clock_ when simulated
  crypto::SecureRandom rng_;

  sentinel::AuditSink audit_;
  std::unique_ptr<sentinel::Sentinel> sentinel_;

  // PD shard stacks (declared before dbfs_, which borrows the stores and
  // must be destroyed first). pd_shards_[i] and sensitive_shards_[i]
  // together back DBFS shard i; sensitive_shards_ is empty unless booted
  // with split_sensitive.
  std::vector<StoreStack> pd_shards_;
  std::vector<StoreStack> sensitive_shards_;
  std::unique_ptr<blockdev::MemBlockDevice> npd_device_;
  std::unique_ptr<inodefs::InodeStore> npd_store_;
  std::unique_ptr<inodefs::FileSystem> npd_fs_;
  std::unique_ptr<dbfs::ShardedDbfs> dbfs_;

  /// Declared after pd_shards_ so it is destroyed (writer stopped and
  /// drained) before the store it appends to; the explicit destructor
  /// detaches it from audit_ first.
  std::unique_ptr<sentinel::DurableAuditPipeline> audit_pipeline_;

  std::unique_ptr<ProcessingLog> log_;
  std::unique_ptr<DedExecutor> executor_;
  std::unique_ptr<ProcessingStore> ps_;
  std::unique_ptr<Builtins> builtins_;
  std::unique_ptr<Rights> rights_;
  std::unique_ptr<Anonymizer> anonymizer_;
  std::unique_ptr<ReceiptIssuer> receipts_;
  std::unique_ptr<Authority> authority_;
  /// Last member: destroyed first, which joins the sweep daemon before
  /// anything it borrows (dbfs, audit, log, authority) goes away.
  std::unique_ptr<RetentionSweeper> retention_;
};

}  // namespace rgpdos::core

#include "core/rgpdos.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/rng.hpp"
#include "dbfs/sharded_dbfs.hpp"
#include "dsl/parser.hpp"
#include "kernel/placement.hpp"

namespace rgpdos::core {

namespace {

/// Env knob as u64; returns `fallback` when unset or unparsable.
std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return fallback;
  return v;
}

/// The environment overrides the CI presets and the recovery matrix set,
/// so the whole suite runs in those configurations without a code
/// change. Nothing else in Boot reads the environment.
void ApplyEnvOverrides(BootConfig& config) {
  // RGPDOS_CACHE=0 forces every cache level off (release-nocache).
  if (const char* env = std::getenv("RGPDOS_CACHE");
      env != nullptr && std::string_view(env) == "0") {
    config.cache_blocks = 0;
    config.cache_record_entries = 0;
    config.cache_decisions = false;
  }
  // RGPDOS_SHARDS splits a fresh spine N ways (asan-ubsan-shards); an
  // attached image keeps the shard count it was formatted with.
  if (config.attach_dbfs_devices.empty()) {
    config.shards =
        static_cast<std::size_t>(EnvU64("RGPDOS_SHARDS", config.shards));
  }
  // Tiny audit queues and segments force backpressure and sealing
  // (tsan-audit).
  config.audit_queue_entries = static_cast<std::size_t>(
      EnvU64("RGPDOS_AUDIT_QUEUE", config.audit_queue_entries));
  config.audit_segment_bytes =
      EnvU64("RGPDOS_AUDIT_SEGMENT_BYTES", config.audit_segment_bytes);
  // RGPDOS_FAULT_SEED derives a whole fault plan (the recovery matrix).
  if (const std::uint64_t seed = EnvU64("RGPDOS_FAULT_SEED", 0); seed != 0) {
    config.fault_plan =
        blockdev::FaultPlan::FromSeed(seed, /*max_writes=*/4096);
    config.fault_inject = true;
  }
}

}  // namespace

Result<RgpdOs::StoreStack> RgpdOs::BuildStack(const BootConfig& config,
                                              blockdev::BlockDevice* attached,
                                              std::uint64_t blocks,
                                              metrics::LockRank lock_rank,
                                              const Clock* clock) {
  // Stack order, inner to outer: raw device -> optional fault injector
  // (it models the medium plus its volatile disk cache, so it must be
  // the closest decorator to the raw device) -> optional latency model
  // (simulated IO cost; batches are charged at the profile's queue
  // depth) -> optional block cache (level 1 of the caching stack; on
  // the OUTSIDE so a cache hit pays neither device nor simulated-latency
  // cost, exactly like a page-cache hit skips a real disk). Every call
  // runs synchronously on the caller's thread.
  StoreStack stack;
  if (attached != nullptr) {
    stack.raw = attached;
  } else {
    stack.owned_device = std::make_unique<blockdev::MemBlockDevice>(
        config.block_size, blocks);
    stack.raw = stack.owned_device.get();
  }
  blockdev::BlockDevice* dev = stack.raw;
  if (config.fault_inject) {
    stack.fault = std::make_unique<blockdev::FaultInjectingBlockDevice>(
        dev, config.fault_plan);
    dev = stack.fault.get();
  }
  if (!config.latency.IsZero()) {
    stack.latency =
        std::make_unique<blockdev::LatencyModelDevice>(dev, config.latency);
    dev = stack.latency.get();
  }
  if (config.cache_blocks != 0) {
    stack.cache = std::make_unique<blockdev::BlockCacheDevice>(
        dev, config.cache_blocks, config.cache_shards);
    dev = stack.cache.get();
  }
  stack.top = dev;
  if (attached != nullptr) {
    // Boot-time crash recovery: mount the surviving image. Replay,
    // checkpoint and the inodefs.recovery.* metrics happen inside Mount;
    // the freshly built cache above starts cold, so nothing pre-crash
    // can be served from RAM.
    RGPD_ASSIGN_OR_RETURN(
        stack.store,
        inodefs::InodeStore::Mount(dev, clock, lock_rank, config.io_retry));
  } else {
    inodefs::InodeStore::Options options;
    options.inode_count = config.inode_count;
    options.journal_blocks = config.journal_blocks;
    options.io_retry = config.io_retry;
    options.lock_rank = lock_rank;
    RGPD_ASSIGN_OR_RETURN(
        stack.store, inodefs::InodeStore::Format(dev, options, clock));
  }
  return stack;
}

Result<std::unique_ptr<RgpdOs>> RgpdOs::Boot(const BootConfig& boot_config) {
  BootConfig config = boot_config;
  ApplyEnvOverrides(config);
  if (config.audit_queue_entries == 0) config.audit_queue_entries = 1;
  const std::vector<blockdev::BlockDevice*>& attached =
      config.attach_dbfs_devices;
  if (!attached.empty()) {
    if (config.split_sensitive) {
      return InvalidArgument(
          "attach_dbfs_devices carry PD images only; split_sensitive needs "
          "a sensitive device per shard");
    }
    if (config.shards != attached.size() ||
        std::find(attached.begin(), attached.end(), nullptr) !=
            attached.end()) {
      return InvalidArgument(
          "attach mode needs one non-null device per shard (shards = " +
          std::to_string(config.shards) + ", devices = " +
          std::to_string(attached.size()) + ")");
    }
  }
  if (config.shards == 0) config.shards = 1;
  std::unique_ptr<RgpdOs> os(new RgpdOs());

  if (config.use_sim_clock) {
    auto sim = std::make_unique<SimClock>();
    os->sim_clock_ = sim.get();
    os->clock_ = std::move(sim);
  } else {
    os->clock_ = std::make_unique<SystemClock>();
  }
  if (config.seed != 0) {
    os->rng_.Reseed(config.seed);
  } else {
    os->rng_.ReseedFromEntropy();
  }

  os->sentinel_ = std::make_unique<sentinel::Sentinel>(
      sentinel::SecurityPolicy::RgpdDefault(), os->clock_.get(),
      &os->audit_);

  // DBFS on its own device(s) (paper: DBFS is reachable only through
  // rgpdOS components; the NPD filesystem is a separate, generally
  // accessible store). Each shard is a full vertical StoreStack — see
  // BuildStack for the decorator order — replicated `shards` times;
  // with split_sensitive every shard also gets a sensitive sibling
  // (paper §2's storage separation: its own blocks, inodes and journal,
  // its own cache/latency stack, so sensitive PD never shares cache
  // lines with ordinary PD; its mutex ranks just below the primary
  // store's so DBFS can nest sensitive-store writes inside a
  // primary-store group-commit scope).
  std::vector<inodefs::InodeStore*> stores;
  std::vector<inodefs::InodeStore*> sensitive_stores;
  os->pd_shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    RGPD_ASSIGN_OR_RETURN(
        StoreStack stack,
        BuildStack(config, attached.empty() ? nullptr : attached[i],
                   config.dbfs_blocks, metrics::LockRank::kInodefs,
                   os->clock_.get()));
    stores.push_back(stack.store.get());
    os->pd_shards_.push_back(std::move(stack));
  }
  if (config.split_sensitive) {
    os->sensitive_shards_.reserve(config.shards);
    for (std::size_t i = 0; i < config.shards; ++i) {
      RGPD_ASSIGN_OR_RETURN(
          StoreStack stack,
          BuildStack(config, /*attached=*/nullptr, config.sensitive_blocks,
                     metrics::LockRank::kInodefsSensitive, os->clock_.get()));
      sensitive_stores.push_back(stack.store.get());
      os->sensitive_shards_.push_back(std::move(stack));
    }
  }
  if (attached.empty()) {
    RGPD_ASSIGN_OR_RETURN(
        os->dbfs_,
        dbfs::ShardedDbfs::Format(stores, os->sentinel_.get(),
                                  os->clock_.get(), sensitive_stores));
  } else {
    RGPD_ASSIGN_OR_RETURN(os->dbfs_,
                          dbfs::ShardedDbfs::Mount(stores, os->sentinel_.get(),
                                                   os->clock_.get()));
  }
  // Level 2: decoded-record cache with generation invalidation (the
  // facade splits the budget across shards).
  if (config.cache_record_entries != 0) {
    os->dbfs_->EnableRecordCache(config.cache_record_entries);
  }

  os->npd_device_ = std::make_unique<blockdev::MemBlockDevice>(
      config.block_size, config.npd_blocks);
  inodefs::InodeStore::Options npd_options;
  npd_options.inode_count = config.inode_count;
  npd_options.journal_blocks = config.journal_blocks;
  npd_options.io_retry = config.io_retry;
  RGPD_ASSIGN_OR_RETURN(
      os->npd_store_,
      inodefs::InodeStore::Format(os->npd_device_.get(), npd_options,
                                  os->clock_.get()));
  RGPD_ASSIGN_OR_RETURN(inodefs::FileSystem npd_fs,
                        inodefs::FileSystem::Create(os->npd_store_.get()));
  os->npd_fs_ = std::make_unique<inodefs::FileSystem>(std::move(npd_fs));

  os->log_ = std::make_unique<ProcessingLog>(os->clock_.get());
  // The processing log lives on shard 0's store at any shard count.
  {
    inodefs::InodeStore* log_store = os->pd_shards_[0].store.get();
    const inodefs::InodeId log_inode = os->dbfs_->processing_log_inode();
    auditlog::SegmentedLogOptions log_segments;
    log_segments.segment_bytes = config.audit_segment_bytes;
    RGPD_ASSIGN_OR_RETURN(Bytes log_raw, log_store->ReadAll(log_inode));
    if (!log_raw.empty()) {
      // Attach-mode boot over a populated image: RELOAD the persisted
      // log (chain-verified) so appends continue the chain instead of
      // restarting at seq 0 on top of the old entries, which would
      // corrupt the durable chain.
      RGPD_RETURN_IF_ERROR(
          os->log_->LoadFromStore(log_store, log_inode, log_segments));
    } else {
      RGPD_RETURN_IF_ERROR(os->log_->AttachSegmentedStore(
          log_store, log_inode, log_segments));
    }
    os->log_->SetHotWindow(config.audit_hot_window);

    // Durable audit pipeline on the same store.
    sentinel::AuditPipelineOptions audit_options;
    audit_options.queue_capacity = config.audit_queue_entries;
    audit_options.batch_entries = config.audit_batch_entries;
    audit_options.backpressure_deadline_micros =
        config.audit_backpressure_ms * 1000;
    audit_options.segments = log_segments;
    RGPD_ASSIGN_OR_RETURN(
        os->audit_pipeline_,
        sentinel::DurableAuditPipeline::Create(
            log_store, os->dbfs_->audit_manifest_inode(), audit_options));
    os->audit_.AttachPipeline(os->audit_pipeline_.get());
  }

  // DED worker pool. worker_threads == 1 keeps the historical inline
  // execution (no pool, no executor); 0 lets the kernel's CPU partition
  // decide how many cores the PD path gets.
  unsigned lanes = config.worker_threads;
  if (lanes == 0) {
    lanes = kernel::CpuPartition::Plan().ded_workers;
  }
  if (lanes > 1) {
    os->executor_ = std::make_unique<DedExecutor>(lanes - 1, config.seed);
  }
  // The boot thread is stream 0 of the boot seed; executor workers took
  // streams 1..N-1.
  SeedThreadRng(config.seed, 0);

  os->ps_ = std::make_unique<ProcessingStore>(
      os->dbfs_.get(), os->sentinel_.get(), os->log_.get(),
      os->clock_.get(), os->executor_.get(), config.cache_decisions);
  os->builtins_ = std::make_unique<Builtins>(os->dbfs_.get(), os->log_.get(),
                                             &os->rng_);
  os->rights_ = std::make_unique<Rights>(os->dbfs_.get(), os->log_.get(),
                                         os->builtins_.get());
  os->anonymizer_ = std::make_unique<Anonymizer>(
      os->dbfs_.get(), os->log_.get(), os->clock_.get());
  os->receipts_ = std::make_unique<ReceiptIssuer>(
      os->rng_.NextBytes(32), os->clock_.get());
  RGPD_ASSIGN_OR_RETURN(Authority authority,
                        Authority::Create(os->rng_,
                                          config.authority_key_bits));
  os->authority_ = std::make_unique<Authority>(std::move(authority));

  os->audit_.SetCapacity(config.audit_entries);
  RetentionOptions retention_options;
  retention_options.sweep_interval_micros =
      config.retention_interval_ms * 1000;
  retention_options.pages_per_sweep = config.retention_pages_per_sweep;
  retention_options.burst_pages = config.retention_burst_pages;
  retention_options.crypto_erase = config.retention_crypto_erase;
  RetentionSweeper::Deps retention_deps;
  retention_deps.dbfs = os->dbfs_.get();
  retention_deps.clock = os->clock_.get();
  retention_deps.audit = &os->audit_;
  retention_deps.log = os->log_.get();
  retention_deps.authority_key = &os->authority_->public_key();
  retention_deps.rng = &os->rng_;
  retention_deps.executor = os->executor_.get();
  // Yield to any in-flight ps_invoke: compliance background work must
  // not contend with application traffic for the store locks.
  ProcessingStore* ps = os->ps_.get();
  retention_deps.foreground_busy = [ps] {
    return ps->invokes_in_flight() > 0;
  };
  os->retention_ = std::make_unique<RetentionSweeper>(
      std::move(retention_deps), retention_options);
  if (config.retention_enabled) {
    os->retention_->Start();
  }
  return os;
}

RgpdOs::~RgpdOs() {
  // Stop producers first (the sweep daemon audits every expiry), then
  // detach and stop the pipeline so its queue drains to the store while
  // the store is still alive. The remaining members unwind implicitly.
  retention_.reset();
  if (audit_pipeline_ != nullptr) {
    audit_.AttachPipeline(nullptr);
    audit_pipeline_->Stop();
  }
}

Result<ConsentReceipt> RgpdOs::RevokeConsentWithReceipt(
    const PdRef& ref, const std::string& purpose) {
  RGPD_RETURN_IF_ERROR(builtins_->RevokeConsent(ref, purpose));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        dbfs_->GetMembrane(sentinel::Domain::kDed,
                                           ref.record_id));
  return receipts_->Issue(m.subject_id, ref.record_id, purpose, "revoke",
                          "none", m.version);
}

Result<std::size_t> RgpdOs::DeclareTypes(std::string_view dsl_source) {
  RGPD_ASSIGN_OR_RETURN(dsl::Program program, dsl::Parse(dsl_source));
  for (const dsl::TypeDecl& decl : program.types) {
    RGPD_RETURN_IF_ERROR(
        dbfs_->CreateType(sentinel::Domain::kSysadmin, decl));
  }
  return program.types.size();
}

Result<ProcessingId> RgpdOs::RegisterProcessingSource(
    std::string_view dsl_source, ProcessingFn fn, ImplManifest manifest) {
  RGPD_ASSIGN_OR_RETURN(dsl::PurposeDecl purpose,
                        dsl::ParsePurpose(dsl_source));
  return ps_->Register(sentinel::Domain::kApplication, std::move(purpose),
                       std::move(fn), std::move(manifest));
}

}  // namespace rgpdos::core

// ShardedDbfs — the machine's DBFS: N >= 1 independent single-store
// Dbfs instances behind one routing facade. RgpdOs::Boot builds it at
// every shard count, so every consumer (DED, rights engine, retention
// sweeper, processing store, builtins, anonymizer) sees this class and
// nothing else. At N = 1 the one shard mints ids IdAllocation{0, 1},
// gets the whole record-cache budget and needs no catalog
// reconciliation, so it behaves exactly like a standalone Dbfs.
//
// Partitioning. Subjects are routed by `subject % N`: one shard owns a
// subject's whole subtree (records, membranes, exports, generations).
// Record ids and copy groups are minted per shard from disjoint strided
// progressions (IdAllocation{s, N}: s+1, s+1+N, …), so record-routed
// calls recover the owner as `(id - 1) % N` with no directory lookup,
// and ids stay globally unique and monotonic per shard across remounts.
// The schema tree is REPLICATED: CreateType applies to every shard, so
// any shard can validate rows and serve type lookups locally.
//
// Isolation. Each shard is a full vertical stack — its own block
// device, fault injector, latency model, block cache, its own
// journaled InodeStore (private group commit, private replay), its own
// record cache and generation domain. A journal stall, crash replay, or
// cache invalidation storm on one shard never touches another.
//
// Audit discipline. Single-target calls (Put, Get, HardDelete, …)
// forward to the owning shard, whose own sentinel gate fires exactly
// once — identical to a single-store boot. Fan-out calls (CreateType,
// RecordsOfType, SubjectsAfter, CopyGroupMembers, ReportSensitivity)
// gate ONCE here at the facade with the same request the single-store
// path would submit, then use the shards' sentinel-free internals
// (friend access) — so the audit trail for a workload is byte-identical
// at any shard count. The shard-count invariance test pins this.
//
// Crash semantics. Every shard journals and replays independently at
// Mount; the facade's Mount additionally reconciles the replicated type
// catalog (a crash mid-CreateType can leave a suffix of shards without
// the newest type — the union is re-applied, which is idempotent and
// safe because CreateType is the only catalog mutation and types are
// never dropped). No cross-shard transaction exists by construction:
// every mutating API call touches exactly one shard's stores.
//
// Thread-safety: the facade itself is stateless after construction
// (routing is pure arithmetic on the immutable shard vector); all
// synchronisation lives inside the per-shard Dbfs instances. Calls on
// different shards proceed with zero shared locking.
#pragma once

#include <memory>
#include <vector>

#include "dbfs/dbfs.hpp"

namespace rgpdos::dbfs {

class ShardedDbfs final {
 public:
  /// Format every store as an empty shard (shard i gets stores[i] and
  /// id progression {i, N}) and assemble the facade. When
  /// `sensitive_stores` is non-empty it must be N-long: shard i then
  /// segregates its high-sensitivity records onto sensitive_stores[i].
  static Result<std::unique_ptr<ShardedDbfs>> Format(
      const std::vector<inodefs::InodeStore*>& stores,
      sentinel::Sentinel* sentinel, const Clock* clock,
      const std::vector<inodefs::InodeStore*>& sensitive_stores = {});
  /// Mount every shard (each replays its own journal) with the same
  /// topology it was formatted with, then reconcile the replicated type
  /// catalog across shards (crash mid-CreateType tolerance).
  static Result<std::unique_ptr<ShardedDbfs>> Mount(
      const std::vector<inodefs::InodeStore*>& stores,
      sentinel::Sentinel* sentinel, const Clock* clock,
      const std::vector<inodefs::InodeStore*>& sensitive_stores = {});

  // ---- schema tree (replicated; facade-gated fan-out) -----------------------
  Status CreateType(sentinel::Domain caller, const dsl::TypeDecl& decl);
  Result<const dsl::TypeDecl*> GetType(sentinel::Domain caller,
                                       std::string_view name) const;
  [[nodiscard]] std::vector<std::string> TypeNames() const;

  // ---- record surface (routed to the owning shard) --------------------------
  Result<RecordId> Put(sentinel::Domain caller, SubjectId subject,
                       std::string_view type_name, const db::Row& row,
                       membrane::Membrane membrane);
  Result<PdRecord> Get(sentinel::Domain caller, RecordId id) const;
  Result<membrane::Membrane> GetMembrane(sentinel::Domain caller,
                                         RecordId id) const;
  /// Batched fetch: one Result per id, in order. Semantically identical
  /// to calling Get/GetMembrane per id — same sentinel gating and audit
  /// trail per record — but store IO is amortised across the batch: ids
  /// are grouped by owning shard ((id-1) % N), each shard serves its ids
  /// through ONE Dbfs::GetMany/GetMembraneMany call (a handful of batched
  /// device submissions), and results scatter back into request order.
  std::vector<Result<PdRecord>> GetMany(
      sentinel::Domain caller, const std::vector<RecordId>& ids) const;
  std::vector<Result<membrane::Membrane>> GetMembraneMany(
      sentinel::Domain caller, const std::vector<RecordId>& ids) const;
  Status UpdateRow(sentinel::Domain caller, RecordId id, const db::Row& row);
  Status UpdateMembrane(sentinel::Domain caller, RecordId id,
                        const membrane::Membrane& membrane);
  Status HardDelete(sentinel::Domain caller, RecordId id);
  Status ReplaceWithEnvelope(sentinel::Domain caller, RecordId id,
                             ByteSpan envelope);
  Result<Bytes> GetEnvelope(sentinel::Domain caller, RecordId id) const;

  // ---- queries --------------------------------------------------------------
  Result<std::vector<RecordId>> RecordsOfType(
      sentinel::Domain caller, std::string_view type) const;
  Result<std::vector<RecordId>> RecordsOfSubject(
      sentinel::Domain caller, SubjectId subject) const;
  /// Paged subject enumeration: up to `limit` subject ids STRICTLY
  /// GREATER than `after`, ascending, across every shard. The retention
  /// sweeper's cursor primitive. An empty result means the cursor passed
  /// the last subject (wrap to `after = 0` for a new cycle). Each shard
  /// contributes its own ascending page; the facade merges and truncates
  /// to `limit`.
  Result<std::vector<SubjectId>> SubjectsAfter(
      sentinel::Domain caller, SubjectId after, std::size_t limit) const;
  Result<std::vector<RecordId>> CopyGroupMembers(
      sentinel::Domain caller, std::uint64_t group) const;
  Result<SubjectExport> ExportSubject(sentinel::Domain caller,
                                      SubjectId subject) const;

  // ---- decoded-record cache -------------------------------------------------
  /// Attach the decoded-record cache (see record_cache.hpp for the
  /// generation protocol). Boot-time only: must not race record traffic.
  /// `capacity` is the TOTAL entry budget, split evenly across shards
  /// (each shard keeps its own cache + generation domain); 0 leaves
  /// caching off.
  void EnableRecordCache(std::size_t capacity);
  /// Null when caching is off; otherwise shard 0's cache. Tests and
  /// introspection.
  [[nodiscard]] RecordCache* record_cache() {
    return shards_.front()->record_cache();
  }
  /// Decoded records held across EVERY shard's cache (0 when caching is
  /// off) — the shard-count-invariant warmth signal for tests.
  [[nodiscard]] std::size_t cached_record_count() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->cached_record_count();
    return total;
  }
  /// Mutation generation of the subject's shard. Every acknowledged
  /// membrane/row mutation advances it by 2; an unchanged value between
  /// two reads proves no mutation of that subject's shard was
  /// acknowledged in between (caching on or off).
  [[nodiscard]] std::uint64_t SubjectGeneration(SubjectId subject) const {
    return ShardFor(subject).SubjectGeneration(subject);
  }

  /// Inode reserved for the (hash-chained) processing log, on shard 0's
  /// store: one log per machine. The log names subjects and purposes, so
  /// it must not be readable through the NPD filesystem.
  [[nodiscard]] inodefs::InodeId processing_log_inode() const {
    return shards_.front()->processing_log_inode();
  }

  /// Inode reserved for the durable audit pipeline's segment manifest
  /// (same store and confidentiality argument as the processing log).
  [[nodiscard]] inodefs::InodeId audit_manifest_inode() const {
    return shards_.front()->audit_manifest_inode();
  }

  // ---- stats ----------------------------------------------------------------
  Result<SensitivityReport> ReportSensitivity(sentinel::Domain caller) const;
  [[nodiscard]] std::size_t record_count() const;
  [[nodiscard]] std::size_t subject_count() const;

  // ---- sharding introspection -----------------------------------------------
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Dbfs& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] std::size_t ShardIndexOfSubject(SubjectId subject) const {
    return subject % shards_.size();
  }
  /// Id 0 is never minted; it routes to shard 0 for its NotFound verdict.
  [[nodiscard]] std::size_t ShardIndexOfRecord(RecordId id) const {
    return id == 0 ? 0 : (id - 1) % shards_.size();
  }

 private:
  ShardedDbfs(std::vector<std::unique_ptr<Dbfs>> shards,
              sentinel::Sentinel* sentinel)
      : shards_(std::move(shards)), sentinel_(sentinel) {}

  [[nodiscard]] Dbfs& ShardFor(SubjectId subject) const {
    return *shards_[ShardIndexOfSubject(subject)];
  }
  [[nodiscard]] Dbfs& ShardForRecord(RecordId id) const {
    return *shards_[ShardIndexOfRecord(id)];
  }

  /// One sentinel decision for a fan-out call — same request a
  /// single-store Dbfs would submit for the same API call.
  Status Gate(sentinel::Domain caller, sentinel::Operation op,
              std::string detail) const;

  std::vector<std::unique_ptr<Dbfs>> shards_;  // immutable after boot
  sentinel::Sentinel* sentinel_;               // borrowed
};

}  // namespace rgpdos::dbfs

// DBFS — the database-oriented filesystem (paper Idea 3 and §3(1)).
//
// Layout follows the implementation section literally: PD is represented
// by two major inode trees on a dedicated InodeStore (its own device,
// separate from the NPD filesystem):
//
//   * the SUBJECT TREE gathers every PD from all subjects, "with a
//     separate set of inodes for each of them, grouping not only their
//     personal data but also the membrane": one kSubjectRoot inode per
//     subject listing its records; each record is a (kPdRecord inode,
//     kMembrane inode) pair;
//   * the SCHEMA TREE "provides the database structure, with a core
//     inode … for each table describing the structure of the contained
//     data … and a list of subject's inodes, providing an easy link to
//     quickly fetch the corresponding pieces of information": one
//     kTableSchema inode per type (the encoded TypeDecl) plus one
//     kSubjectIndex inode (append-only log of (record, subject) links);
//   * a dedicated kFormatHint inode "describes the general structure of
//     the data encoded in the inode subtree of each subject: meant to be
//     accessed only once by the filesystem during a given live session".
//
// Every mutating or reading entry point takes the caller's security
// domain and is gated by the sentinel (enforcement rule 4: only the DED
// accesses DBFS directly; the sysadmin may only administer types), and
// every stored record provably carries a membrane (enforcement rule 3).
//
// Thread-safety (see metrics/lock.hpp for the stack-wide order): three
// lock families guard the mutable state, always acquired in this order —
//   schema_mu_ (rank 52, reader-writer): the type catalog. CreateType
//     writes; every query takes it shared. TypeDecl pointers handed out
//     by GetType stay valid for the filesystem's lifetime (map nodes are
//     stable and types are never dropped).
//   subject shards (rank 51, one of kSubjectShards mutexes keyed by
//     subject id): serialise all structural work on one subject's
//     subtree — Put, erasure, export. A thread holds at most one shard.
//   index_mu_ (rank 50, reader-writer): the record-id B+tree and the
//     subjects map. Held only across in-memory operations, never across
//     store IO.
// Record ids and copy groups come from atomics. Format/Mount are
// boot-time (single-threaded by contract).
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/btree.hpp"
#include "db/schema.hpp"
#include "dbfs/record_cache.hpp"
#include "dsl/ast.hpp"
#include "inodefs/inode_store.hpp"
#include "membrane/membrane.hpp"
#include "metrics/lock.hpp"
#include "sentinel/policy.hpp"

namespace rgpdos::dbfs {

using RecordId = std::uint64_t;
using SubjectId = std::uint64_t;

/// A full PD record as handed to the DED.
struct PdRecord {
  RecordId record_id = 0;
  SubjectId subject_id = 0;
  std::string type_name;
  db::Row row;
  membrane::Membrane membrane;
  bool erased = false;  ///< crypto-erased: row bytes are an Envelope
};

/// Structured export of one subject's data (right of access / portability).
struct SubjectExport {
  SubjectId subject_id = 0;
  std::vector<PdRecord> records;
};

/// Identifier-space carve-up for one Dbfs instance. A standalone
/// filesystem uses {0, 1} — ids 1, 2, 3, … exactly as before. Shard s of
/// an N-way ShardedDbfs uses {s, N}: it mints record ids and copy groups
/// from the arithmetic progression s+1, s+1+N, s+1+2N, …, so ids from
/// different shards interleave without colliding and the owning shard of
/// any id is recoverable as (id - 1) % N with no directory lookup.
struct IdAllocation {
  std::uint64_t offset = 0;
  std::uint64_t stride = 1;
};

/// Sensitivity segregation report (paper §2: "sensitive data … be
/// stored separately from less sensitive data"): live record counts per
/// sensitivity level and per type, for the sysadmin/regulator.
struct SensitivityReport {
  std::array<std::size_t, 3> by_level{};  ///< [low, medium, high]
  std::map<std::string, std::size_t> high_by_type;
};

class ShardedDbfs;  // fwd (sharded_dbfs.hpp); befriended for ungated fan-out

/// One store's filesystem. The machine boots N >= 1 of them behind the
/// ShardedDbfs facade (sharded_dbfs.hpp), which is what every consumer
/// sees; standalone, it is driven by its own tests and examples.
class Dbfs final {
 public:
  /// Format the store as an empty DBFS and mount it. When
  /// `sensitive_store` is non-null, records of high-sensitivity types
  /// are physically segregated onto it ("the GDPR prescribes that
  /// sensitive data … be stored separately from less sensitive data",
  /// paper §2) — a separate device, separate journal, separate blast
  /// radius. The schema tree and subject tree stay on the primary store.
  /// `ids` carves the record-id / copy-group space (shard stride).
  static Result<std::unique_ptr<Dbfs>> Format(
      inodefs::InodeStore* store, sentinel::Sentinel* sentinel,
      const Clock* clock, inodefs::InodeStore* sensitive_store = nullptr,
      IdAllocation ids = {});
  /// Mount an existing DBFS: loads the schema tree, walks the subject
  /// tree to rebuild the in-memory record index. Pass the same
  /// `sensitive_store` topology and `ids` carve-up the filesystem was
  /// formatted with.
  static Result<std::unique_ptr<Dbfs>> Mount(
      inodefs::InodeStore* store, sentinel::Sentinel* sentinel,
      const Clock* clock, inodefs::InodeStore* sensitive_store = nullptr,
      IdAllocation ids = {});

  // ---- schema tree (sysadmin surface) ---------------------------------------

  Status CreateType(sentinel::Domain caller, const dsl::TypeDecl& decl);
  Result<const dsl::TypeDecl*> GetType(sentinel::Domain caller,
                                       std::string_view name) const;
  [[nodiscard]] std::vector<std::string> TypeNames() const;

  // ---- record surface (DED only) --------------------------------------------

  /// Store a row with its membrane. Fails kFailedPrecondition if the
  /// membrane does not name this type/subject (rule 3 is structural:
  /// there is no membrane-less insertion path at all).
  Result<RecordId> Put(sentinel::Domain caller, SubjectId subject,
                       std::string_view type_name, const db::Row& row,
                       membrane::Membrane membrane);
  Result<PdRecord> Get(sentinel::Domain caller, RecordId id) const;
  /// Membrane-only fetch — the DED's ded_load_membrane step reads this
  /// BEFORE any PD bytes leave the store.
  Result<membrane::Membrane> GetMembrane(sentinel::Domain caller,
                                         RecordId id) const;
  /// Optimistic batched reads: record-cache hits are served per id, the
  /// misses' inodes go to InodeStore::ReadAllBatch in one amortised
  /// submission, and each result is validated against the subject's
  /// mutation seqlock (ShardGen below). Any id whose subject mutated
  /// mid-read falls back to the locked per-id path, so the results are
  /// always ones a plain Get at some point during the call could have
  /// returned.
  std::vector<Result<PdRecord>> GetMany(
      sentinel::Domain caller, const std::vector<RecordId>& ids) const;
  std::vector<Result<membrane::Membrane>> GetMembraneMany(
      sentinel::Domain caller, const std::vector<RecordId>& ids) const;
  Status UpdateRow(sentinel::Domain caller, RecordId id, const db::Row& row);
  Status UpdateMembrane(sentinel::Domain caller, RecordId id,
                        const membrane::Membrane& membrane);

  /// Physical destruction: scrub the record's blocks, then scrub the
  /// journal history. After this returns no plaintext byte of the record
  /// survives anywhere on the device (invariant E8's hard-delete arm).
  Status HardDelete(sentinel::Domain caller, RecordId id);

  /// Crypto-erasure: replace the row bytes with `envelope` (sealed to the
  /// authority), revoke all consents, scrub old blocks + journal.
  Status ReplaceWithEnvelope(sentinel::Domain caller, RecordId id,
                             ByteSpan envelope);
  /// Raw envelope bytes of an erased record (authority recovery path).
  Result<Bytes> GetEnvelope(sentinel::Domain caller, RecordId id) const;

  // ---- queries ---------------------------------------------------------------

  Result<std::vector<RecordId>> RecordsOfType(
      sentinel::Domain caller, std::string_view type) const;
  Result<std::vector<RecordId>> RecordsOfSubject(
      sentinel::Domain caller, SubjectId subject) const;
  /// Paged subject enumeration: up to `limit` subject ids STRICTLY
  /// GREATER than `after`, ascending. The retention sweeper's cursor
  /// primitive — an incremental scan that never holds the index lock
  /// across more than one page. An empty result means the cursor passed
  /// the last subject (wrap to `after = 0` to start a new cycle).
  Result<std::vector<SubjectId>> SubjectsAfter(
      sentinel::Domain caller, SubjectId after, std::size_t limit) const;
  /// All records sharing a copy group (membrane-consistency propagation).
  Result<std::vector<RecordId>> CopyGroupMembers(
      sentinel::Domain caller, std::uint64_t group) const;
  Result<SubjectExport> ExportSubject(sentinel::Domain caller,
                                      SubjectId subject) const;

  // ---- decoded-record cache ---------------------------------------------------

  /// Attach the decoded-record cache (see record_cache.hpp for the
  /// generation protocol). Boot-time only: must not race record traffic.
  /// `capacity` == 0 leaves caching off (the historical read path).
  void EnableRecordCache(std::size_t capacity);
  /// Null when caching is off. Exposed for tests and introspection.
  [[nodiscard]] RecordCache* record_cache() {
    return record_cache_.get();
  }
  [[nodiscard]] std::size_t cached_record_count() const {
    return record_cache_ == nullptr ? 0 : record_cache_->size();
  }
  /// Mutation generation of the subject's shard. Every acknowledged
  /// membrane/row mutation advances it by 2 (odd while in flight).
  /// Backed by the shard seqlock, so it works with caching off too —
  /// the DED's execute-time freshness check relies on that.
  [[nodiscard]] std::uint64_t SubjectGeneration(SubjectId subject) const {
    return ShardGen(subject).load(std::memory_order_acquire);
  }

  /// Inode reserved for the (hash-chained) processing log. Lives on the
  /// DBFS store: the log names subjects and purposes, so it must not be
  /// readable through the NPD filesystem.
  [[nodiscard]] inodefs::InodeId processing_log_inode() const {
    return processing_log_inode_;
  }

  /// Inode reserved for the durable audit pipeline's segment manifest.
  [[nodiscard]] inodefs::InodeId audit_manifest_inode() const {
    return audit_manifest_inode_;
  }

  // ---- stats -----------------------------------------------------------------

  Result<SensitivityReport> ReportSensitivity(sentinel::Domain caller) const;

  [[nodiscard]] std::size_t record_count() const;
  [[nodiscard]] std::size_t subject_count() const;

 private:
  /// ShardedDbfs gates fan-out operations ONCE at the facade and then
  /// calls the *Ungated internals on every shard, so the audit trail is
  /// identical to a single-store boot (one sentinel decision per call).
  friend class ShardedDbfs;

  struct TypeEntry {
    dsl::TypeDecl decl;
    db::Schema schema;
    inodefs::InodeId schema_inode = inodefs::kInvalidInode;
    inodefs::InodeId subject_index_inode = inodefs::kInvalidInode;
  };

  /// In-memory location of a record (rebuilt from the subject tree).
  struct RecordLoc {
    SubjectId subject_id = 0;
    std::string type_name;
    inodefs::InodeId pd_inode = inodefs::kInvalidInode;
    inodefs::InodeId membrane_inode = inodefs::kInvalidInode;
    std::uint64_t copy_group = 0;
    bool erased = false;
    std::uint8_t store_id = 0;  ///< 0 = primary, 1 = sensitive
  };

  Dbfs(inodefs::InodeStore* store, sentinel::Sentinel* sentinel,
       const Clock* clock, inodefs::InodeStore* sensitive_store,
       IdAllocation ids)
      : store_(store),
        sensitive_store_(sensitive_store),
        sentinel_(sentinel),
        clock_(clock),
        ids_(ids),
        next_record_id_(ids.offset + 1),
        next_copy_group_(ids.offset + 1) {}

  /// The store a record's data inodes live on.
  [[nodiscard]] inodefs::InodeStore* StoreById(std::uint8_t store_id) const {
    return store_id == 1 && sensitive_store_ != nullptr ? sensitive_store_
                                                        : store_;
  }
  /// Which store new records of `level` go to.
  [[nodiscard]] std::uint8_t StoreIdFor(membrane::Sensitivity level) const {
    return level == membrane::Sensitivity::kHigh &&
                   sensitive_store_ != nullptr
               ? 1
               : 0;
  }

  Status Gate(sentinel::Domain caller, sentinel::Operation op,
              std::string detail) const;

  // Sentinel-free internals behind the gated fan-out surface (facade
  // audit discipline above). Each is exactly its public method minus the
  // Gate line.
  Status CreateTypeUngated(const dsl::TypeDecl& decl);
  Result<std::vector<RecordId>> RecordsOfTypeUngated(
      std::string_view type) const;
  Result<std::vector<SubjectId>> SubjectsAfterUngated(SubjectId after,
                                                      std::size_t limit) const;
  Result<std::vector<RecordId>> CopyGroupMembersUngated(
      std::uint64_t group) const;
  Result<SensitivityReport> ReportSensitivityUngated() const;

  /// Smallest id ≥ max(v, offset+1) inside this shard's progression —
  /// Mount's high-water marks come from raw on-disk ids and must be
  /// re-aligned to the stride before the first allocation.
  [[nodiscard]] std::uint64_t AlignNext(std::uint64_t v) const {
    const std::uint64_t base = ids_.offset + 1;
    if (v <= base) return base;
    const std::uint64_t rem = (v - base) % ids_.stride;
    return rem == 0 ? v : v + (ids_.stride - rem);
  }

  // Subject-tree persistence: each subject root holds the encoded list
  // of its record entries.
  struct SubjectEntry {
    RecordId record_id = 0;
    std::string type_name;
    inodefs::InodeId pd_inode = inodefs::kInvalidInode;
    inodefs::InodeId membrane_inode = inodefs::kInvalidInode;
    std::uint64_t copy_group = 0;
    bool erased = false;
    std::uint8_t store_id = 0;
  };
  Result<std::vector<SubjectEntry>> LoadSubjectRoot(
      inodefs::InodeId root) const;
  Status StoreSubjectRoot(inodefs::InodeId root,
                          const std::vector<SubjectEntry>& entries);
  Result<inodefs::InodeId> GetOrCreateSubjectRoot(SubjectId subject);

  Status PersistTypesMap();
  Status PersistSubjectsMap();
  Status PersistFormatHint();
  /// Thread-safe lookup (takes index_mu_ shared); returns a copy. A loc
  /// read here can go stale the moment the lock drops — mutators re-run
  /// Locate after taking the record's subject shard.
  Result<RecordLoc> Locate(RecordId id) const;
  /// subjects_ lookup under index_mu_ shared.
  Result<inodefs::InodeId> SubjectRootOf(SubjectId subject) const;

  static constexpr std::size_t kSubjectShards = 16;
  [[nodiscard]] metrics::OrderedMutex& SubjectShard(SubjectId subject) const {
    return shards_[subject % kSubjectShards].mu;
  }
  /// Per-subject-shard mutation seqlock, independent of the record cache
  /// (which has its own generation domain): odd while a mutator holds
  /// the shard, bumped to even before it releases. GetMany's optimistic
  /// batched reads validate against it — a snapshot that is even before
  /// the read and unchanged after proves no mutation overlapped.
  [[nodiscard]] std::atomic<std::uint64_t>& ShardGen(SubjectId subject) const {
    return shards_[subject % kSubjectShards].gen;
  }

  /// RAII mutation bracket: flips the shard seqlock odd on construction
  /// and even on destruction, and (when caching is on) mirrors that into
  /// the record cache's generation protocol, erasing the mutated entry —
  /// all BEFORE the mutator returns (and before it releases the subject
  /// shard mutex, which the caller must hold for the whole lifetime).
  class CacheMutationGuard {
   public:
    CacheMutationGuard(const Dbfs& db, SubjectId subject, RecordId id)
        : cache_(db.record_cache_.get()),
          gen_(db.ShardGen(subject)),
          subject_(subject),
          id_(id) {
      gen_.fetch_add(1, std::memory_order_acq_rel);  // -> odd
      if (cache_ != nullptr) cache_->BeginMutation(subject_);
    }
    ~CacheMutationGuard() {
      if (cache_ != nullptr) {
        cache_->Erase(id_);
        cache_->EndMutation(subject_);
      }
      gen_.fetch_add(1, std::memory_order_acq_rel);  // -> even
    }
    CacheMutationGuard(const CacheMutationGuard&) = delete;
    CacheMutationGuard& operator=(const CacheMutationGuard&) = delete;

   private:
    RecordCache* cache_;
    std::atomic<std::uint64_t>& gen_;
    SubjectId subject_;
    RecordId id_;
  };

  /// Fill the cache with a freshly decoded record (caller holds the
  /// subject shard mutex). Membrane-only when `row` is null.
  void FillRecordCache(RecordId id, const RecordLoc& loc,
                       const membrane::Membrane& membrane,
                       const db::Row* row) const;

  inodefs::InodeStore* store_;            // borrowed (primary)
  inodefs::InodeStore* sensitive_store_;  // borrowed; may be null
  sentinel::Sentinel* sentinel_;          // borrowed
  const Clock* clock_;                    // borrowed
  IdAllocation ids_;

  inodefs::InodeId master_inode_ = inodefs::kInvalidInode;
  inodefs::InodeId processing_log_inode_ = inodefs::kInvalidInode;
  inodefs::InodeId audit_manifest_inode_ = inodefs::kInvalidInode;
  inodefs::InodeId types_map_inode_ = inodefs::kInvalidInode;
  inodefs::InodeId subjects_map_inode_ = inodefs::kInvalidInode;
  inodefs::InodeId format_hint_inode_ = inodefs::kInvalidInode;

  mutable metrics::OrderedSharedMutex schema_mu_{
      metrics::LockRank::kDbfsSchema, "dbfs.schema"};
  struct Shard {
    metrics::OrderedMutex mu{metrics::LockRank::kDbfsSubjectShard,
                             "dbfs.subject_shard"};
    /// Mutation seqlock (see ShardGen). Written only under mu.
    mutable std::atomic<std::uint64_t> gen{0};
  };
  mutable std::array<Shard, kSubjectShards> shards_;
  mutable metrics::OrderedSharedMutex index_mu_{
      metrics::LockRank::kDbfsRecordIndex, "dbfs.record_index"};

  std::map<std::string, TypeEntry, std::less<>> types_;   // schema_mu_
  std::map<SubjectId, inodefs::InodeId> subjects_;        // index_mu_
  db::BPlusTree<RecordId, RecordLoc> records_;            // index_mu_
  std::unique_ptr<RecordCache> record_cache_;             // null = off
  std::atomic<RecordId> next_record_id_;
  std::atomic<std::uint64_t> next_copy_group_;
};

}  // namespace rgpdos::dbfs

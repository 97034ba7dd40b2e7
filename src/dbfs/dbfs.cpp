#include "dbfs/dbfs.hpp"

#include <algorithm>

#include "dsl/codec.hpp"
#include "metrics/metrics.hpp"

namespace rgpdos::dbfs {

namespace {
constexpr std::uint32_t kFormatHintMagic = 0x44424653;  // "DBFS"
constexpr std::uint32_t kFormatHintVersion = 1;

// Boot-time helper: raise an atomic high-water mark (Mount is
// single-threaded by contract, so a plain load/store race is fine).
template <typename T>
void Raise(std::atomic<T>& mark, T candidate) {
  if (mark.load(std::memory_order_relaxed) < candidate) {
    mark.store(candidate, std::memory_order_relaxed);
  }
}
}  // namespace

Status Dbfs::Gate(sentinel::Domain caller, sentinel::Operation op,
                  std::string detail) const {
  sentinel::AccessRequest request;
  request.subject = caller;
  request.object = sentinel::Domain::kDbfs;
  request.op = op;
  request.detail = std::move(detail);
  Status status = sentinel_->Enforce(request);
  if (!status.ok()) {
    RGPD_METRIC_COUNT("dbfs.denied.count");
  }
  return status;
}

Result<std::unique_ptr<Dbfs>> Dbfs::Format(
    inodefs::InodeStore* store, sentinel::Sentinel* sentinel,
    const Clock* clock, inodefs::InodeStore* sensitive_store,
    IdAllocation ids) {
  if (ids.stride == 0) return InvalidArgument("id stride must be >= 1");
  std::unique_ptr<Dbfs> fs(new Dbfs(store, sentinel, clock,
                                    sensitive_store, ids));
  RGPD_ASSIGN_OR_RETURN(fs->master_inode_,
                        store->AllocInode(inodefs::InodeKind::kFile));
  RGPD_ASSIGN_OR_RETURN(fs->types_map_inode_,
                        store->AllocInode(inodefs::InodeKind::kFile));
  RGPD_ASSIGN_OR_RETURN(fs->subjects_map_inode_,
                        store->AllocInode(inodefs::InodeKind::kFile));
  RGPD_ASSIGN_OR_RETURN(fs->format_hint_inode_,
                        store->AllocInode(inodefs::InodeKind::kFormatHint));
  RGPD_ASSIGN_OR_RETURN(fs->processing_log_inode_,
                        store->AllocInode(inodefs::InodeKind::kFile));
  RGPD_ASSIGN_OR_RETURN(fs->audit_manifest_inode_,
                        store->AllocInode(inodefs::InodeKind::kFile));
  RGPD_RETURN_IF_ERROR(fs->PersistFormatHint());

  ByteWriter master;
  master.PutU32(fs->types_map_inode_);
  master.PutU32(fs->subjects_map_inode_);
  master.PutU32(fs->format_hint_inode_);
  master.PutU32(fs->processing_log_inode_);
  master.PutU32(fs->audit_manifest_inode_);
  RGPD_RETURN_IF_ERROR(store->WriteAll(fs->master_inode_, master.buffer()));
  store->SetRootDir(fs->master_inode_);
  RGPD_RETURN_IF_ERROR(store->Sync());
  return fs;
}

Result<std::unique_ptr<Dbfs>> Dbfs::Mount(
    inodefs::InodeStore* store, sentinel::Sentinel* sentinel,
    const Clock* clock, inodefs::InodeStore* sensitive_store,
    IdAllocation ids) {
  if (ids.stride == 0) return InvalidArgument("id stride must be >= 1");
  std::unique_ptr<Dbfs> fs(new Dbfs(store, sentinel, clock,
                                    sensitive_store, ids));
  fs->master_inode_ = store->superblock().root_dir;
  if (fs->master_inode_ == inodefs::kInvalidInode) {
    return FailedPrecondition("store holds no DBFS (format it first)");
  }
  RGPD_ASSIGN_OR_RETURN(Bytes master_bytes,
                        store->ReadAll(fs->master_inode_));
  ByteReader master(master_bytes);
  RGPD_ASSIGN_OR_RETURN(fs->types_map_inode_, master.GetU32());
  RGPD_ASSIGN_OR_RETURN(fs->subjects_map_inode_, master.GetU32());
  RGPD_ASSIGN_OR_RETURN(fs->format_hint_inode_, master.GetU32());
  RGPD_ASSIGN_OR_RETURN(fs->processing_log_inode_, master.GetU32());
  RGPD_ASSIGN_OR_RETURN(fs->audit_manifest_inode_, master.GetU32());
  if (!master.exhausted()) {
    return Corruption("DBFS master record has trailing bytes");
  }

  // Format hint: read once per live session (paper §3) to learn the
  // subject-subtree encoding before touching any subject inode.
  RGPD_ASSIGN_OR_RETURN(Bytes hint, store->ReadAll(fs->format_hint_inode_));
  ByteReader hint_reader(hint);
  RGPD_ASSIGN_OR_RETURN(std::uint32_t magic, hint_reader.GetU32());
  RGPD_ASSIGN_OR_RETURN(std::uint32_t version, hint_reader.GetU32());
  if (magic != kFormatHintMagic || version != kFormatHintVersion) {
    return Corruption("DBFS format hint mismatch");
  }

  // Schema tree.
  RGPD_ASSIGN_OR_RETURN(Bytes types_log, store->ReadAll(fs->types_map_inode_));
  ByteReader types_reader(types_log);
  while (!types_reader.exhausted()) {
    TypeEntry entry;
    RGPD_ASSIGN_OR_RETURN(std::string name, types_reader.GetString());
    RGPD_ASSIGN_OR_RETURN(entry.schema_inode, types_reader.GetU32());
    RGPD_ASSIGN_OR_RETURN(entry.subject_index_inode, types_reader.GetU32());
    RGPD_ASSIGN_OR_RETURN(Bytes decl_bytes,
                          store->ReadAll(entry.schema_inode));
    RGPD_ASSIGN_OR_RETURN(entry.decl, dsl::DecodeTypeDecl(decl_bytes));
    entry.schema = entry.decl.ToSchema();
    // The subject-index log is append-only and keeps links of deleted
    // records too; scanning it keeps record ids monotonic across
    // delete + remount, so a stale PdRef can never alias a new record.
    RGPD_ASSIGN_OR_RETURN(Bytes index_log,
                          store->ReadAll(entry.subject_index_inode));
    ByteReader index_reader(index_log);
    while (!index_reader.exhausted()) {
      RGPD_ASSIGN_OR_RETURN(RecordId id, index_reader.GetU64());
      RGPD_ASSIGN_OR_RETURN(SubjectId subject, index_reader.GetU64());
      (void)subject;
      Raise(fs->next_record_id_, id + 1);
    }
    fs->types_.emplace(std::move(name), std::move(entry));
  }

  // Subject tree: subjects map, then each subject root.
  RGPD_ASSIGN_OR_RETURN(Bytes subjects_log,
                        store->ReadAll(fs->subjects_map_inode_));
  ByteReader subjects_reader(subjects_log);
  while (!subjects_reader.exhausted()) {
    RGPD_ASSIGN_OR_RETURN(SubjectId subject, subjects_reader.GetU64());
    RGPD_ASSIGN_OR_RETURN(std::uint32_t root, subjects_reader.GetU32());
    fs->subjects_[subject] = root;
  }
  for (const auto& [subject, root] : fs->subjects_) {
    RGPD_ASSIGN_OR_RETURN(std::vector<SubjectEntry> entries,
                          fs->LoadSubjectRoot(root));
    for (const SubjectEntry& e : entries) {
      RecordLoc loc;
      loc.subject_id = subject;
      loc.type_name = e.type_name;
      loc.pd_inode = e.pd_inode;
      loc.membrane_inode = e.membrane_inode;
      loc.copy_group = e.copy_group;
      loc.erased = e.erased;
      loc.store_id = e.store_id;
      fs->records_.Insert(e.record_id, std::move(loc));
      Raise(fs->next_record_id_, e.record_id + 1);
      Raise(fs->next_copy_group_, e.copy_group + 1);
    }
  }
  // The high-water marks above come from raw on-disk ids (which, on a
  // shard, include strides of the OTHER shards' copy groups via
  // propagated membranes); snap them back onto this shard's progression.
  fs->next_record_id_.store(
      fs->AlignNext(fs->next_record_id_.load(std::memory_order_relaxed)),
      std::memory_order_relaxed);
  fs->next_copy_group_.store(
      fs->AlignNext(fs->next_copy_group_.load(std::memory_order_relaxed)),
      std::memory_order_relaxed);
  return fs;
}

Status Dbfs::PersistFormatHint() {
  ByteWriter w;
  w.PutU32(kFormatHintMagic);
  w.PutU32(kFormatHintVersion);
  // Self-description of the subject-entry encoding, for forward compat.
  w.PutString(
      "subject_entry := record_id:u64 type:str pd:u32 membrane:u32 "
      "copy_group:u64 erased:bool store:u8");
  return store_->WriteAll(format_hint_inode_, w.buffer());
}

Status Dbfs::PersistTypesMap() {
  ByteWriter w;
  for (const auto& [name, entry] : types_) {
    w.PutString(name);
    w.PutU32(entry.schema_inode);
    w.PutU32(entry.subject_index_inode);
  }
  return store_->WriteAll(types_map_inode_, w.buffer());
}

Status Dbfs::PersistSubjectsMap() {
  ByteWriter w;
  for (const auto& [subject, root] : subjects_) {
    w.PutU64(subject);
    w.PutU32(root);
  }
  return store_->WriteAll(subjects_map_inode_, w.buffer());
}

Result<std::vector<Dbfs::SubjectEntry>> Dbfs::LoadSubjectRoot(
    inodefs::InodeId root) const {
  RGPD_ASSIGN_OR_RETURN(Bytes raw, store_->ReadAll(root));
  std::vector<SubjectEntry> entries;
  ByteReader r(raw);
  RGPD_ASSIGN_OR_RETURN(std::uint64_t count, r.GetVarint());
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SubjectEntry e;
    RGPD_ASSIGN_OR_RETURN(e.record_id, r.GetU64());
    RGPD_ASSIGN_OR_RETURN(e.type_name, r.GetString());
    RGPD_ASSIGN_OR_RETURN(e.pd_inode, r.GetU32());
    RGPD_ASSIGN_OR_RETURN(e.membrane_inode, r.GetU32());
    RGPD_ASSIGN_OR_RETURN(e.copy_group, r.GetU64());
    RGPD_ASSIGN_OR_RETURN(e.erased, r.GetBool());
    RGPD_ASSIGN_OR_RETURN(e.store_id, r.GetU8());
    entries.push_back(std::move(e));
  }
  return entries;
}

Status Dbfs::StoreSubjectRoot(inodefs::InodeId root,
                              const std::vector<SubjectEntry>& entries) {
  ByteWriter w;
  w.PutVarint(entries.size());
  for (const SubjectEntry& e : entries) {
    w.PutU64(e.record_id);
    w.PutString(e.type_name);
    w.PutU32(e.pd_inode);
    w.PutU32(e.membrane_inode);
    w.PutU64(e.copy_group);
    w.PutBool(e.erased);
    w.PutU8(e.store_id);
  }
  return store_->WriteAll(root, w.buffer());
}

Result<inodefs::InodeId> Dbfs::GetOrCreateSubjectRoot(SubjectId subject) {
  // Caller holds the subject's shard mutex, so no other thread can be
  // creating THIS subject concurrently; index_mu_ only protects the map
  // itself against other subjects' inserts.
  {
    std::shared_lock<metrics::OrderedSharedMutex> lock(index_mu_);
    const auto it = subjects_.find(subject);
    if (it != subjects_.end()) return it->second;
  }
  RGPD_ASSIGN_OR_RETURN(inodefs::InodeId root,
                        store_->AllocInode(inodefs::InodeKind::kSubjectRoot));
  RGPD_RETURN_IF_ERROR(StoreSubjectRoot(root, {}));
  {
    std::lock_guard<metrics::OrderedSharedMutex> lock(index_mu_);
    subjects_[subject] = root;
  }
  // Append-only subjects map: one small write per NEW subject.
  ByteWriter w;
  w.PutU64(subject);
  w.PutU32(root);
  RGPD_RETURN_IF_ERROR(store_->Append(subjects_map_inode_, w.buffer()));
  return root;
}

// ---- schema tree --------------------------------------------------------------

Status Dbfs::CreateType(sentinel::Domain caller, const dsl::TypeDecl& decl) {
  RGPD_RETURN_IF_ERROR(
      Gate(caller, sentinel::Operation::kCreate, "type=" + decl.name));
  return CreateTypeUngated(decl);
}

Status Dbfs::CreateTypeUngated(const dsl::TypeDecl& decl) {
  RGPD_RETURN_IF_ERROR(decl.Validate());
  std::lock_guard<metrics::OrderedSharedMutex> lock(schema_mu_);
  if (types_.count(decl.name) != 0) {
    return AlreadyExists("type exists: " + decl.name);
  }
  TypeEntry entry;
  entry.decl = decl;
  entry.schema = decl.ToSchema();
  RGPD_ASSIGN_OR_RETURN(entry.schema_inode,
                        store_->AllocInode(inodefs::InodeKind::kTableSchema));
  RGPD_ASSIGN_OR_RETURN(
      entry.subject_index_inode,
      store_->AllocInode(inodefs::InodeKind::kSubjectIndex));
  RGPD_RETURN_IF_ERROR(
      store_->WriteAll(entry.schema_inode, dsl::EncodeTypeDecl(decl)));
  types_.emplace(decl.name, std::move(entry));
  return PersistTypesMap();
}

Result<const dsl::TypeDecl*> Dbfs::GetType(sentinel::Domain caller,
                                           std::string_view name) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kReadSchema,
                            "type=" + std::string(name)));
  std::shared_lock<metrics::OrderedSharedMutex> lock(schema_mu_);
  const auto it = types_.find(name);
  if (it == types_.end()) {
    return NotFound("no type: " + std::string(name));
  }
  // Map nodes are stable and types are never erased, so the pointer
  // outlives the lock.
  return &it->second.decl;
}

std::vector<std::string> Dbfs::TypeNames() const {
  std::shared_lock<metrics::OrderedSharedMutex> lock(schema_mu_);
  std::vector<std::string> names;
  names.reserve(types_.size());
  for (const auto& [name, entry] : types_) names.push_back(name);
  return names;
}

// ---- decoded-record cache -----------------------------------------------------

void Dbfs::EnableRecordCache(std::size_t capacity) {
  if (capacity == 0) {
    record_cache_.reset();
    return;
  }
  // Generation shards MUST mirror the subject shards: the seqlock
  // protocol needs "same generation shard => same subject shard mutex".
  record_cache_ = std::make_unique<RecordCache>(capacity, kSubjectShards);
}

void Dbfs::FillRecordCache(RecordId id, const RecordLoc& loc,
                           const membrane::Membrane& membrane,
                           const db::Row* row) const {
  if (record_cache_ == nullptr) return;
  RecordCache::Entry entry;
  entry.subject_id = loc.subject_id;
  entry.type_name = loc.type_name;
  entry.membrane = membrane;
  if (row != nullptr) {
    entry.row = *row;
    entry.has_row = true;
  }
  entry.erased = loc.erased;
  // The caller holds the subject shard mutex, so no mutation of this
  // subject is in flight and the generation is even (stable).
  entry.generation = record_cache_->generation(loc.subject_id);
  record_cache_->Insert(id, std::move(entry));
}

// ---- record surface ------------------------------------------------------------

Result<Dbfs::RecordLoc> Dbfs::Locate(RecordId id) const {
  std::shared_lock<metrics::OrderedSharedMutex> lock(index_mu_);
  const RecordLoc* loc = records_.Find(id);
  if (loc == nullptr) {
    return NotFound("no PD record " + std::to_string(id));
  }
  return *loc;
}

Result<inodefs::InodeId> Dbfs::SubjectRootOf(SubjectId subject) const {
  std::shared_lock<metrics::OrderedSharedMutex> lock(index_mu_);
  const auto it = subjects_.find(subject);
  if (it == subjects_.end()) {
    return NotFound("no subject " + std::to_string(subject));
  }
  return it->second;
}

Result<RecordId> Dbfs::Put(sentinel::Domain caller, SubjectId subject,
                           std::string_view type_name, const db::Row& row,
                           membrane::Membrane membrane) {
  RGPD_METRIC_COUNT("dbfs.put.count");
  RGPD_METRIC_SCOPED_LATENCY("dbfs.put.latency_ns");
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kCreate,
                            "put type=" + std::string(type_name)));
  std::shared_lock<metrics::OrderedSharedMutex> schema_lock(schema_mu_);
  const auto type_it = types_.find(type_name);
  if (type_it == types_.end()) {
    return NotFound("no type: " + std::string(type_name));
  }
  RGPD_RETURN_IF_ERROR(type_it->second.schema.ValidateRow(row));
  // Enforcement rule (3): the membrane must be present and coherent.
  if (membrane.type_name != type_name) {
    return FailedPrecondition("membrane names type '" + membrane.type_name +
                              "', record is '" + std::string(type_name) +
                              "'");
  }
  if (membrane.subject_id != subject) {
    return FailedPrecondition("membrane subject does not match record");
  }
  if (membrane.copy_group == 0) {
    membrane.copy_group =
        next_copy_group_.fetch_add(ids_.stride, std::memory_order_relaxed);
  }

  // Serialise this subject's subtree, then resolve its root BEFORE the
  // group scope takes the store lock (the root lookup needs index_mu_,
  // which ranks above the store).
  std::lock_guard<metrics::OrderedMutex> shard_lock(SubjectShard(subject));
  RGPD_ASSIGN_OR_RETURN(inodefs::InodeId root,
                        GetOrCreateSubjectRoot(subject));

  const RecordId id =
      next_record_id_.fetch_add(ids_.stride, std::memory_order_relaxed);
  const std::uint8_t store_id =
      StoreIdFor(type_it->second.decl.sensitivity);
  inodefs::InodeStore* data_store = StoreById(store_id);
  inodefs::InodeId pd_inode = inodefs::kInvalidInode;
  inodefs::InodeId membrane_inode = inodefs::kInvalidInode;
  {
    // One journal record for the whole insert (7 per-txn appends
    // otherwise). Physical segregation: high-sensitivity records live
    // on the dedicated sensitive store when one is attached; its writes
    // nest under the primary scope thanks to its lower lock rank.
    inodefs::InodeStore::GroupCommitScope group(*store_);
    RGPD_ASSIGN_OR_RETURN(
        pd_inode, data_store->AllocInode(inodefs::InodeKind::kPdRecord));
    RGPD_ASSIGN_OR_RETURN(
        membrane_inode,
        data_store->AllocInode(inodefs::InodeKind::kMembrane));
    const Bytes row_bytes = type_it->second.schema.EncodeRow(row);
    const Bytes membrane_bytes = membrane.Serialize();
    // Logical payload size — denominator of the journal.write_amp gauge
    // (journal bytes actually logged per byte the caller stored).
    RGPD_METRIC_COUNT_N("dbfs.put.logical_bytes",
                        row_bytes.size() + membrane_bytes.size());
    RGPD_RETURN_IF_ERROR(data_store->WriteAll(pd_inode, row_bytes));
    RGPD_RETURN_IF_ERROR(
        data_store->WriteAll(membrane_inode, membrane_bytes));

    RGPD_ASSIGN_OR_RETURN(std::vector<SubjectEntry> entries,
                          LoadSubjectRoot(root));
    SubjectEntry entry;
    entry.record_id = id;
    entry.type_name = std::string(type_name);
    entry.pd_inode = pd_inode;
    entry.membrane_inode = membrane_inode;
    entry.copy_group = membrane.copy_group;
    entry.erased = false;
    entry.store_id = store_id;
    entries.push_back(std::move(entry));
    RGPD_RETURN_IF_ERROR(StoreSubjectRoot(root, entries));

    // Schema-tree link: append (record, subject) to the type's index.
    ByteWriter link;
    link.PutU64(id);
    link.PutU64(subject);
    RGPD_RETURN_IF_ERROR(
        store_->Append(type_it->second.subject_index_inode, link.buffer()));
    RGPD_RETURN_IF_ERROR(group.Finish());
  }

  RecordLoc loc;
  loc.subject_id = subject;
  loc.type_name = std::string(type_name);
  loc.pd_inode = pd_inode;
  loc.membrane_inode = membrane_inode;
  loc.copy_group = membrane.copy_group;
  loc.store_id = store_id;
  {
    std::lock_guard<metrics::OrderedSharedMutex> index_lock(index_mu_);
    records_.Insert(id, std::move(loc));
  }
  return id;
}

Result<PdRecord> Dbfs::Get(sentinel::Domain caller, RecordId id) const {
  RGPD_METRIC_COUNT("dbfs.get.count");
  RGPD_METRIC_SCOPED_LATENCY("dbfs.get.latency_ns");
  RGPD_RETURN_IF_ERROR(
      Gate(caller, sentinel::Operation::kRead, "record=" + std::to_string(id)));
  // Fast path: a generation-validated cache hit needs no lock in the
  // subject tree and no store IO at all.
  if (record_cache_ != nullptr) {
    if (auto hit = record_cache_->Lookup(id, /*need_row=*/true)) {
      RGPD_METRIC_COUNT("cache.record.hit");
      PdRecord record;
      record.record_id = id;
      record.subject_id = hit->subject_id;
      record.type_name = std::move(hit->type_name);
      record.erased = hit->erased;
      record.membrane = std::move(hit->membrane);
      record.row = std::move(hit->row);
      return record;
    }
    RGPD_METRIC_COUNT("cache.record.miss");
  }
  std::shared_lock<metrics::OrderedSharedMutex> schema_lock(schema_mu_);
  // Locate, then pin the subject shard and re-validate: the shard
  // excludes a concurrent HardDelete from freeing (and the allocator
  // from recycling) the record's inodes while we read them.
  RGPD_ASSIGN_OR_RETURN(RecordLoc loc, Locate(id));
  std::lock_guard<metrics::OrderedMutex> shard_lock(
      SubjectShard(loc.subject_id));
  RGPD_ASSIGN_OR_RETURN(loc, Locate(id));
  PdRecord record;
  record.record_id = id;
  record.subject_id = loc.subject_id;
  record.type_name = loc.type_name;
  record.erased = loc.erased;
  inodefs::InodeStore* data_store = StoreById(loc.store_id);
  RGPD_ASSIGN_OR_RETURN(Bytes membrane_bytes,
                        data_store->ReadAll(loc.membrane_inode));
  RGPD_ASSIGN_OR_RETURN(record.membrane,
                        membrane::Membrane::Deserialize(membrane_bytes));
  if (!loc.erased) {
    const auto type_it = types_.find(loc.type_name);
    if (type_it == types_.end()) {
      return Corruption("record references unknown type");
    }
    RGPD_ASSIGN_OR_RETURN(Bytes row_bytes,
                          data_store->ReadAll(loc.pd_inode));
    RGPD_ASSIGN_OR_RETURN(record.row,
                          type_it->second.schema.DecodeRow(row_bytes));
  }
  FillRecordCache(id, loc, record.membrane,
                  loc.erased ? nullptr : &record.row);
  return record;
}

Result<membrane::Membrane> Dbfs::GetMembrane(sentinel::Domain caller,
                                             RecordId id) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "membrane record=" + std::to_string(id)));
  if (record_cache_ != nullptr) {
    if (auto hit = record_cache_->Lookup(id, /*need_row=*/false)) {
      RGPD_METRIC_COUNT("cache.record.hit");
      return std::move(hit->membrane);
    }
    RGPD_METRIC_COUNT("cache.record.miss");
  }
  RGPD_ASSIGN_OR_RETURN(RecordLoc loc, Locate(id));
  std::lock_guard<metrics::OrderedMutex> shard_lock(
      SubjectShard(loc.subject_id));
  RGPD_ASSIGN_OR_RETURN(loc, Locate(id));
  RGPD_ASSIGN_OR_RETURN(Bytes membrane_bytes,
                        StoreById(loc.store_id)->ReadAll(loc.membrane_inode));
  RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                        membrane::Membrane::Deserialize(membrane_bytes));
  FillRecordCache(id, loc, m, /*row=*/nullptr);
  return m;
}

std::vector<Result<PdRecord>> Dbfs::GetMany(
    sentinel::Domain caller, const std::vector<RecordId>& ids) const {
  Stopwatch latency_watch;
  std::vector<Result<PdRecord>> out;
  out.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.push_back(Internal("GetMany slot not filled"));
  }

  // One entry per id that missed the cache. `bucket`/`*_pos` index into
  // the per-store batched read below.
  struct Miss {
    std::size_t slot = 0;
    RecordId id = 0;
    RecordLoc loc;
    std::uint64_t gen = 0;
    int bucket = 0;
    std::size_t membrane_pos = 0;
    std::size_t row_pos = 0;  ///< valid iff has_row
    bool has_row = false;
    bool pending = false;   ///< located with an even seqlock snapshot
    bool fallback = false;  ///< retry through the locked per-id path
  };
  std::vector<Miss> misses;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const RecordId id = ids[i];
    RGPD_METRIC_COUNT("dbfs.get.count");
    if (Status gate = Gate(caller, sentinel::Operation::kRead,
                           "record=" + std::to_string(id));
        !gate.ok()) {
      out[i] = std::move(gate);
      continue;
    }
    if (record_cache_ != nullptr) {
      if (auto hit = record_cache_->Lookup(id, /*need_row=*/true)) {
        RGPD_METRIC_COUNT("cache.record.hit");
        PdRecord record;
        record.record_id = id;
        record.subject_id = hit->subject_id;
        record.type_name = std::move(hit->type_name);
        record.erased = hit->erased;
        record.membrane = std::move(hit->membrane);
        record.row = std::move(hit->row);
        out[i] = std::move(record);
        continue;
      }
      RGPD_METRIC_COUNT("cache.record.miss");
    }
    Miss miss;
    miss.slot = i;
    miss.id = id;
    misses.push_back(std::move(miss));
  }
  if (!misses.empty()) {
    std::shared_lock<metrics::OrderedSharedMutex> schema_lock(schema_mu_);
    // Locate every miss and snapshot its subject's mutation seqlock. An
    // odd snapshot means a mutator holds the shard right now — no point
    // reading optimistically, go straight to the locked path.
    std::array<std::vector<inodefs::InodeId>, 2> want;
    for (Miss& miss : misses) {
      Result<RecordLoc> loc = Locate(miss.id);
      if (!loc.ok()) {
        out[miss.slot] = loc.status();
        continue;
      }
      miss.loc = std::move(*loc);
      miss.gen =
          ShardGen(miss.loc.subject_id).load(std::memory_order_acquire);
      if (miss.gen % 2 != 0) {
        miss.fallback = true;
        continue;
      }
      miss.bucket =
          miss.loc.store_id == 1 && sensitive_store_ != nullptr ? 1 : 0;
      auto& list = want[miss.bucket];
      miss.membrane_pos = list.size();
      list.push_back(miss.loc.membrane_inode);
      if (!miss.loc.erased) {
        miss.has_row = true;
        miss.row_pos = list.size();
        list.push_back(miss.loc.pd_inode);
      }
      miss.pending = true;
    }

    // The whole batch's inodes in (at most) two amortised submissions,
    // WITHOUT any subject shard held — mutators are not blocked, the
    // seqlock re-check below catches them instead.
    std::array<std::vector<Result<Bytes>>, 2> got;
    if (!want[0].empty()) got[0] = store_->ReadAllBatch(want[0]);
    if (!want[1].empty()) got[1] = sensitive_store_->ReadAllBatch(want[1]);

    for (Miss& miss : misses) {
      if (!miss.pending) continue;
      // Unchanged-and-even proves no mutation of this subject's shard
      // overlapped the read, so the slots form a consistent image.
      if (ShardGen(miss.loc.subject_id).load(std::memory_order_acquire) !=
          miss.gen) {
        miss.fallback = true;
        continue;
      }
      const auto decode = [&]() -> Result<PdRecord> {
        PdRecord record;
        record.record_id = miss.id;
        record.subject_id = miss.loc.subject_id;
        record.type_name = miss.loc.type_name;
        record.erased = miss.loc.erased;
        const Result<Bytes>& membrane_bytes =
            got[miss.bucket][miss.membrane_pos];
        RGPD_RETURN_IF_ERROR(membrane_bytes.status());
        RGPD_ASSIGN_OR_RETURN(
            record.membrane,
            membrane::Membrane::Deserialize(*membrane_bytes));
        if (miss.has_row) {
          const auto type_it = types_.find(record.type_name);
          if (type_it == types_.end()) {
            return Corruption("record references unknown type");
          }
          const Result<Bytes>& row_bytes = got[miss.bucket][miss.row_pos];
          RGPD_RETURN_IF_ERROR(row_bytes.status());
          RGPD_ASSIGN_OR_RETURN(record.row,
                                type_it->second.schema.DecodeRow(*row_bytes));
        }
        return record;
      };
      Result<PdRecord> record = decode();
      if (!record.ok()) {
        // Even under an unchanged seqlock, let the locked path render
        // the authoritative verdict for a failed slot.
        miss.fallback = true;
        continue;
      }
      if (record_cache_ != nullptr) {
        std::lock_guard<metrics::OrderedMutex> shard_lock(
            SubjectShard(miss.loc.subject_id));
        // Fill only if still unmutated — FillRecordCache's contract
        // requires the generation it snapshots to cover the bytes read.
        if (ShardGen(miss.loc.subject_id)
                .load(std::memory_order_acquire) == miss.gen) {
          FillRecordCache(miss.id, miss.loc, record->membrane,
                          miss.has_row ? &record->row : nullptr);
        }
      }
      out[miss.slot] = std::move(*record);
    }
  }  // schema_mu_ released: the fallbacks below re-enter Get.

  // Every non-fallback id experienced the whole call's latency; the
  // fallback Gets observe their own.
  const std::int64_t elapsed = latency_watch.ElapsedNanos();
  std::size_t fallbacks = 0;
  for (const Miss& miss : misses) {
    if (miss.fallback) ++fallbacks;
  }
  for (std::size_t i = fallbacks; i < ids.size(); ++i) {
    RGPD_METRIC_OBSERVE("dbfs.get.latency_ns", elapsed);
  }
  for (const Miss& miss : misses) {
    if (miss.fallback) out[miss.slot] = Get(caller, miss.id);
  }
  return out;
}

std::vector<Result<membrane::Membrane>> Dbfs::GetMembraneMany(
    sentinel::Domain caller, const std::vector<RecordId>& ids) const {
  std::vector<Result<membrane::Membrane>> out;
  out.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.push_back(Internal("GetMembraneMany slot not filled"));
  }
  struct Miss {
    std::size_t slot = 0;
    RecordId id = 0;
    RecordLoc loc;
    std::uint64_t gen = 0;
    int bucket = 0;
    std::size_t pos = 0;
    bool pending = false;
    bool fallback = false;
  };
  std::vector<Miss> misses;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const RecordId id = ids[i];
    if (Status gate =
            Gate(caller, sentinel::Operation::kRead,
                 "membrane record=" + std::to_string(id));
        !gate.ok()) {
      out[i] = std::move(gate);
      continue;
    }
    if (record_cache_ != nullptr) {
      if (auto hit = record_cache_->Lookup(id, /*need_row=*/false)) {
        RGPD_METRIC_COUNT("cache.record.hit");
        out[i] = std::move(hit->membrane);
        continue;
      }
      RGPD_METRIC_COUNT("cache.record.miss");
    }
    Miss miss;
    miss.slot = i;
    miss.id = id;
    misses.push_back(std::move(miss));
  }
  if (!misses.empty()) {
    std::array<std::vector<inodefs::InodeId>, 2> want;
    for (Miss& miss : misses) {
      Result<RecordLoc> loc = Locate(miss.id);
      if (!loc.ok()) {
        out[miss.slot] = loc.status();
        continue;
      }
      miss.loc = std::move(*loc);
      miss.gen =
          ShardGen(miss.loc.subject_id).load(std::memory_order_acquire);
      if (miss.gen % 2 != 0) {
        miss.fallback = true;
        continue;
      }
      miss.bucket =
          miss.loc.store_id == 1 && sensitive_store_ != nullptr ? 1 : 0;
      miss.pos = want[miss.bucket].size();
      want[miss.bucket].push_back(miss.loc.membrane_inode);
      miss.pending = true;
    }
    std::array<std::vector<Result<Bytes>>, 2> got;
    if (!want[0].empty()) got[0] = store_->ReadAllBatch(want[0]);
    if (!want[1].empty()) got[1] = sensitive_store_->ReadAllBatch(want[1]);
    for (Miss& miss : misses) {
      if (!miss.pending) continue;
      if (ShardGen(miss.loc.subject_id).load(std::memory_order_acquire) !=
          miss.gen) {
        miss.fallback = true;
        continue;
      }
      const Result<Bytes>& membrane_bytes = got[miss.bucket][miss.pos];
      if (!membrane_bytes.ok()) {
        miss.fallback = true;
        continue;
      }
      Result<membrane::Membrane> m =
          membrane::Membrane::Deserialize(*membrane_bytes);
      if (!m.ok()) {
        miss.fallback = true;
        continue;
      }
      if (record_cache_ != nullptr) {
        std::lock_guard<metrics::OrderedMutex> shard_lock(
            SubjectShard(miss.loc.subject_id));
        if (ShardGen(miss.loc.subject_id)
                .load(std::memory_order_acquire) == miss.gen) {
          FillRecordCache(miss.id, miss.loc, *m, /*row=*/nullptr);
        }
      }
      out[miss.slot] = std::move(*m);
    }
  }
  for (const Miss& miss : misses) {
    if (miss.fallback) out[miss.slot] = GetMembrane(caller, miss.id);
  }
  return out;
}

Status Dbfs::UpdateRow(sentinel::Domain caller, RecordId id,
                       const db::Row& row) {
  RGPD_METRIC_COUNT("dbfs.update.count");
  RGPD_METRIC_SCOPED_LATENCY("dbfs.update.latency_ns");
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kWrite,
                            "record=" + std::to_string(id)));
  std::shared_lock<metrics::OrderedSharedMutex> schema_lock(schema_mu_);
  RGPD_ASSIGN_OR_RETURN(RecordLoc loc, Locate(id));
  std::lock_guard<metrics::OrderedMutex> shard_lock(
      SubjectShard(loc.subject_id));
  RGPD_ASSIGN_OR_RETURN(loc, Locate(id));
  if (loc.erased) {
    return Erased("record " + std::to_string(id) + " was erased");
  }
  CacheMutationGuard cache_guard(*this, loc.subject_id, id);
  const auto type_it = types_.find(loc.type_name);
  if (type_it == types_.end()) {
    return Corruption("record references unknown type");
  }
  RGPD_RETURN_IF_ERROR(type_it->second.schema.ValidateRow(row));
  inodefs::InodeStore* data_store = StoreById(loc.store_id);
  // Scrubbed truncate first: the superseded version must not linger.
  RGPD_RETURN_IF_ERROR(data_store->Truncate(loc.pd_inode, 0, /*scrub=*/true));
  return data_store->WriteAll(loc.pd_inode,
                              type_it->second.schema.EncodeRow(row));
}

Status Dbfs::UpdateMembrane(sentinel::Domain caller, RecordId id,
                            const membrane::Membrane& membrane) {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kWrite,
                            "membrane record=" + std::to_string(id)));
  RGPD_ASSIGN_OR_RETURN(RecordLoc loc, Locate(id));
  std::lock_guard<metrics::OrderedMutex> shard_lock(
      SubjectShard(loc.subject_id));
  RGPD_ASSIGN_OR_RETURN(loc, Locate(id));
  if (membrane.subject_id != loc.subject_id ||
      membrane.type_name != loc.type_name) {
    return FailedPrecondition(
        "membrane identity does not match the stored record");
  }
  CacheMutationGuard cache_guard(*this, loc.subject_id, id);
  RGPD_RETURN_IF_ERROR(StoreById(loc.store_id)
                           ->WriteAll(loc.membrane_inode,
                                      membrane.Serialize()));
  if (membrane.copy_group != loc.copy_group) {
    {
      std::lock_guard<metrics::OrderedSharedMutex> index_lock(index_mu_);
      RecordLoc* live = records_.Find(id);
      if (live != nullptr) live->copy_group = membrane.copy_group;
    }
    RGPD_ASSIGN_OR_RETURN(inodefs::InodeId root,
                          SubjectRootOf(loc.subject_id));
    RGPD_ASSIGN_OR_RETURN(std::vector<SubjectEntry> entries,
                          LoadSubjectRoot(root));
    for (SubjectEntry& e : entries) {
      if (e.record_id == id) e.copy_group = membrane.copy_group;
    }
    RGPD_RETURN_IF_ERROR(StoreSubjectRoot(root, entries));
  }
  return Status::Ok();
}

Status Dbfs::HardDelete(sentinel::Domain caller, RecordId id) {
  RGPD_METRIC_COUNT("dbfs.erase.count");
  RGPD_METRIC_SCOPED_LATENCY("dbfs.erase.latency_ns");
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kDelete,
                            "record=" + std::to_string(id)));
  RGPD_ASSIGN_OR_RETURN(RecordLoc loc, Locate(id));
  std::lock_guard<metrics::OrderedMutex> shard_lock(
      SubjectShard(loc.subject_id));
  RGPD_ASSIGN_OR_RETURN(loc, Locate(id));
  // Cache discipline for erasure (the "no post-erasure read from cache"
  // guarantee): entry dropped + generation bumped before this returns;
  // the scrubbed frees below invalidate the block-cache copies.
  CacheMutationGuard cache_guard(*this, loc.subject_id, id);
  RGPD_ASSIGN_OR_RETURN(inodefs::InodeId root, SubjectRootOf(loc.subject_id));
  {
    // One atomic group for the whole erasure: either the record stays
    // fully intact (crash before the group journal record) or it is
    // fully unlinked and scrubbed (replay finishes the checkpoint). No
    // crash point exposes a half-deleted record.
    inodefs::InodeStore::GroupCommitScope group(*store_);
    RGPD_ASSIGN_OR_RETURN(std::vector<SubjectEntry> entries,
                          LoadSubjectRoot(root));
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const SubjectEntry& e) {
                                   return e.record_id == id;
                                 }),
                  entries.end());
    RGPD_RETURN_IF_ERROR(StoreSubjectRoot(root, entries));
    // Scrubbed frees stage zeros for the record's blocks (journaled as
    // part of the group, so the in-journal history ends in zeros); the
    // journal scrubs then destroy the remaining plaintext history on
    // every store the record's bytes touched — BEFORE the group record
    // is appended, so the group itself survives the scrub.
    inodefs::InodeStore* data_store = StoreById(loc.store_id);
    RGPD_RETURN_IF_ERROR(data_store->FreeInode(loc.pd_inode, /*scrub=*/true));
    RGPD_RETURN_IF_ERROR(
        data_store->FreeInode(loc.membrane_inode, /*scrub=*/true));
    RGPD_RETURN_IF_ERROR(data_store->ScrubJournal());
    RGPD_RETURN_IF_ERROR(store_->ScrubJournal());
    RGPD_RETURN_IF_ERROR(group.Finish());
  }
  {
    std::lock_guard<metrics::OrderedSharedMutex> index_lock(index_mu_);
    records_.Erase(id);
  }
  return Status::Ok();
}

Status Dbfs::ReplaceWithEnvelope(sentinel::Domain caller, RecordId id,
                                 ByteSpan envelope) {
  RGPD_METRIC_COUNT("dbfs.erase.count");
  RGPD_METRIC_SCOPED_LATENCY("dbfs.erase.latency_ns");
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kErase,
                            "record=" + std::to_string(id)));
  RGPD_ASSIGN_OR_RETURN(RecordLoc loc, Locate(id));
  std::lock_guard<metrics::OrderedMutex> shard_lock(
      SubjectShard(loc.subject_id));
  RGPD_ASSIGN_OR_RETURN(loc, Locate(id));
  if (loc.erased) {
    return Erased("record " + std::to_string(id) + " already erased");
  }
  CacheMutationGuard cache_guard(*this, loc.subject_id, id);
  RGPD_ASSIGN_OR_RETURN(inodefs::InodeId root, SubjectRootOf(loc.subject_id));
  {
    // Atomic group (same reasoning as HardDelete): the record is either
    // still fully intact after a crash, or fully erased — never an
    // intermediate like "plaintext scrubbed but no envelope yet".
    inodefs::InodeStore::GroupCommitScope group(*store_);
    // Destroy the plaintext, keep only the authority-sealed envelope.
    inodefs::InodeStore* data_store = StoreById(loc.store_id);
    RGPD_RETURN_IF_ERROR(
        data_store->Truncate(loc.pd_inode, 0, /*scrub=*/true));
    RGPD_RETURN_IF_ERROR(data_store->WriteAll(loc.pd_inode, envelope));
    // Revoke every consent on the membrane: nothing may process this PD.
    RGPD_ASSIGN_OR_RETURN(Bytes membrane_bytes,
                          data_store->ReadAll(loc.membrane_inode));
    RGPD_ASSIGN_OR_RETURN(membrane::Membrane m,
                          membrane::Membrane::Deserialize(membrane_bytes));
    for (auto& [purpose, consent] : m.consents) {
      consent = membrane::Consent::None();
    }
    ++m.version;
    RGPD_RETURN_IF_ERROR(
        data_store->WriteAll(loc.membrane_inode, m.Serialize()));

    RGPD_ASSIGN_OR_RETURN(std::vector<SubjectEntry> entries,
                          LoadSubjectRoot(root));
    for (SubjectEntry& e : entries) {
      if (e.record_id == id) e.erased = true;
    }
    RGPD_RETURN_IF_ERROR(StoreSubjectRoot(root, entries));
    // Destroy the journal history that still holds plaintext, on both
    // stores (the primary journaled the subject-root rewrite too) —
    // before the group record appends, so the group survives the scrub.
    RGPD_RETURN_IF_ERROR(data_store->ScrubJournal());
    RGPD_RETURN_IF_ERROR(store_->ScrubJournal());
    RGPD_RETURN_IF_ERROR(group.Finish());
  }
  {
    std::lock_guard<metrics::OrderedSharedMutex> index_lock(index_mu_);
    RecordLoc* live = records_.Find(id);
    if (live != nullptr) live->erased = true;
  }
  return Status::Ok();
}

Result<Bytes> Dbfs::GetEnvelope(sentinel::Domain caller, RecordId id) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "envelope record=" + std::to_string(id)));
  RGPD_ASSIGN_OR_RETURN(RecordLoc loc, Locate(id));
  std::lock_guard<metrics::OrderedMutex> shard_lock(
      SubjectShard(loc.subject_id));
  RGPD_ASSIGN_OR_RETURN(loc, Locate(id));
  if (!loc.erased) {
    return FailedPrecondition("record " + std::to_string(id) +
                              " is not erased; no envelope");
  }
  return StoreById(loc.store_id)->ReadAll(loc.pd_inode);
}

std::size_t Dbfs::record_count() const {
  std::shared_lock<metrics::OrderedSharedMutex> lock(index_mu_);
  return records_.size();
}

std::size_t Dbfs::subject_count() const {
  std::shared_lock<metrics::OrderedSharedMutex> lock(index_mu_);
  return subjects_.size();
}

// ---- queries ---------------------------------------------------------------------

Result<std::vector<RecordId>> Dbfs::RecordsOfType(
    sentinel::Domain caller, std::string_view type) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "scan type=" + std::string(type)));
  return RecordsOfTypeUngated(type);
}

Result<std::vector<RecordId>> Dbfs::RecordsOfTypeUngated(
    std::string_view type) const {
  std::shared_lock<metrics::OrderedSharedMutex> schema_lock(schema_mu_);
  const auto type_it = types_.find(type);
  if (type_it == types_.end()) {
    return NotFound("no type: " + std::string(type));
  }
  // Walk the schema tree's subject-index log; entries for records that
  // were since deleted are filtered against the live index.
  RGPD_ASSIGN_OR_RETURN(Bytes log,
                        store_->ReadAll(type_it->second.subject_index_inode));
  ByteReader r(log);
  std::vector<RecordId> out;
  std::shared_lock<metrics::OrderedSharedMutex> index_lock(index_mu_);
  while (!r.exhausted()) {
    RGPD_ASSIGN_OR_RETURN(RecordId id, r.GetU64());
    RGPD_ASSIGN_OR_RETURN(SubjectId subject, r.GetU64());
    (void)subject;
    if (records_.Contains(id)) out.push_back(id);
  }
  return out;
}

Result<std::vector<RecordId>> Dbfs::RecordsOfSubject(
    sentinel::Domain caller, SubjectId subject) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "scan subject=" + std::to_string(subject)));
  // Shard lock keeps the subject's root log stable while we read it.
  std::lock_guard<metrics::OrderedMutex> shard_lock(SubjectShard(subject));
  const Result<inodefs::InodeId> root = SubjectRootOf(subject);
  if (!root.ok()) {
    if (root.status().code() == StatusCode::kNotFound) {
      return std::vector<RecordId>{};
    }
    return root.status();
  }
  RGPD_ASSIGN_OR_RETURN(std::vector<SubjectEntry> entries,
                        LoadSubjectRoot(root.value()));
  std::vector<RecordId> out;
  out.reserve(entries.size());
  for (const SubjectEntry& e : entries) out.push_back(e.record_id);
  return out;
}

Result<std::vector<SubjectId>> Dbfs::SubjectsAfter(sentinel::Domain caller,
                                                   SubjectId after,
                                                   std::size_t limit) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "subject scan after=" + std::to_string(after)));
  return SubjectsAfterUngated(after, limit);
}

Result<std::vector<SubjectId>> Dbfs::SubjectsAfterUngated(
    SubjectId after, std::size_t limit) const {
  std::vector<SubjectId> out;
  if (limit == 0) return out;
  std::shared_lock<metrics::OrderedSharedMutex> index_lock(index_mu_);
  for (auto it = subjects_.upper_bound(after);
       it != subjects_.end() && out.size() < limit; ++it) {
    out.push_back(it->first);
  }
  return out;
}

Result<std::vector<RecordId>> Dbfs::CopyGroupMembers(
    sentinel::Domain caller, std::uint64_t group) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "copy_group=" + std::to_string(group)));
  return CopyGroupMembersUngated(group);
}

Result<std::vector<RecordId>> Dbfs::CopyGroupMembersUngated(
    std::uint64_t group) const {
  std::vector<RecordId> out;
  std::shared_lock<metrics::OrderedSharedMutex> index_lock(index_mu_);
  records_.ForEach([&](const RecordId& id, const RecordLoc& loc) {
    if (loc.copy_group == group) out.push_back(id);
    return true;
  });
  return out;
}

Result<SensitivityReport> Dbfs::ReportSensitivity(
    sentinel::Domain caller) const {
  // Schema-level metadata, not PD content: the sysadmin may read it.
  RGPD_RETURN_IF_ERROR(
      Gate(caller, sentinel::Operation::kReadSchema, "sensitivity report"));
  return ReportSensitivityUngated();
}

Result<SensitivityReport> Dbfs::ReportSensitivityUngated() const {
  SensitivityReport report;
  Status failure = Status::Ok();
  std::shared_lock<metrics::OrderedSharedMutex> schema_lock(schema_mu_);
  std::shared_lock<metrics::OrderedSharedMutex> index_lock(index_mu_);
  records_.ForEach([&](const RecordId&, const RecordLoc& loc) {
    const auto type_it = types_.find(loc.type_name);
    if (type_it == types_.end()) {
      failure = Corruption("record references unknown type");
      return false;
    }
    const auto level = type_it->second.decl.sensitivity;
    ++report.by_level[static_cast<std::size_t>(level)];
    if (level == membrane::Sensitivity::kHigh) {
      ++report.high_by_type[loc.type_name];
    }
    return true;
  });
  RGPD_RETURN_IF_ERROR(failure);
  return report;
}

Result<SubjectExport> Dbfs::ExportSubject(sentinel::Domain caller,
                                          SubjectId subject) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kExport,
                            "subject=" + std::to_string(subject)));
  RGPD_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                        RecordsOfSubject(caller, subject));
  SubjectExport out;
  out.subject_id = subject;
  out.records.reserve(ids.size());
  for (RecordId id : ids) {
    Result<PdRecord> record = Get(caller, id);
    if (!record.ok()) {
      // A record may be hard-deleted between the listing above and this
      // read; the export simply omits it.
      if (record.status().code() == StatusCode::kNotFound) continue;
      return record.status();
    }
    out.records.push_back(std::move(record).value());
  }
  return out;
}

}  // namespace rgpdos::dbfs

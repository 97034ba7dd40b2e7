#include "dbfs/sharded_dbfs.hpp"

#include <algorithm>

#include "metrics/metrics.hpp"

namespace rgpdos::dbfs {

namespace {

Status CheckTopology(const std::vector<inodefs::InodeStore*>& stores,
                     const std::vector<inodefs::InodeStore*>& sensitive) {
  if (stores.empty()) {
    return InvalidArgument("ShardedDbfs needs at least one store");
  }
  for (inodefs::InodeStore* s : stores) {
    if (s == nullptr) return InvalidArgument("null shard store");
  }
  if (!sensitive.empty() && sensitive.size() != stores.size()) {
    return InvalidArgument(
        "sensitive store count must match shard count (or be empty)");
  }
  return Status::Ok();
}

}  // namespace

Status ShardedDbfs::Gate(sentinel::Domain caller, sentinel::Operation op,
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

Result<std::unique_ptr<ShardedDbfs>> ShardedDbfs::Format(
    const std::vector<inodefs::InodeStore*>& stores,
    sentinel::Sentinel* sentinel, const Clock* clock,
    const std::vector<inodefs::InodeStore*>& sensitive_stores) {
  RGPD_RETURN_IF_ERROR(CheckTopology(stores, sensitive_stores));
  const std::uint64_t n = stores.size();
  std::vector<std::unique_ptr<Dbfs>> shards;
  shards.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    inodefs::InodeStore* sens =
        sensitive_stores.empty() ? nullptr : sensitive_stores[i];
    RGPD_ASSIGN_OR_RETURN(
        std::unique_ptr<Dbfs> shard,
        Dbfs::Format(stores[i], sentinel, clock, sens, IdAllocation{i, n}));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedDbfs>(
      new ShardedDbfs(std::move(shards), sentinel));
}

Result<std::unique_ptr<ShardedDbfs>> ShardedDbfs::Mount(
    const std::vector<inodefs::InodeStore*>& stores,
    sentinel::Sentinel* sentinel, const Clock* clock,
    const std::vector<inodefs::InodeStore*>& sensitive_stores) {
  RGPD_RETURN_IF_ERROR(CheckTopology(stores, sensitive_stores));
  const std::uint64_t n = stores.size();
  std::vector<std::unique_ptr<Dbfs>> shards;
  shards.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    inodefs::InodeStore* sens =
        sensitive_stores.empty() ? nullptr : sensitive_stores[i];
    RGPD_ASSIGN_OR_RETURN(
        std::unique_ptr<Dbfs> shard,
        Dbfs::Mount(stores[i], sentinel, clock, sens, IdAllocation{i, n}));
    shards.push_back(std::move(shard));
  }
  // Type-catalog reconciliation: CreateType replicates to shards in
  // order, so a crash can leave a suffix of shards without the newest
  // type. Re-apply the union (idempotent; types are never dropped).
  // Boot-time single-threaded, so reading shard catalogs directly is
  // safe (ShardedDbfs is a friend of Dbfs).
  for (std::uint64_t src = 0; src < n; ++src) {
    for (const auto& [name, entry] : shards[src]->types_) {
      for (std::uint64_t dst = 0; dst < n; ++dst) {
        if (dst == src || shards[dst]->types_.count(name) != 0) continue;
        RGPD_RETURN_IF_ERROR(shards[dst]->CreateTypeUngated(entry.decl));
      }
    }
  }
  return std::unique_ptr<ShardedDbfs>(
      new ShardedDbfs(std::move(shards), sentinel));
}

// ---- schema tree ----------------------------------------------------------

Status ShardedDbfs::CreateType(sentinel::Domain caller,
                               const dsl::TypeDecl& decl) {
  RGPD_RETURN_IF_ERROR(
      Gate(caller, sentinel::Operation::kCreate, "type=" + decl.name));
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    RGPD_RETURN_IF_ERROR(shard->CreateTypeUngated(decl));
  }
  return Status::Ok();
}

Result<const dsl::TypeDecl*> ShardedDbfs::GetType(
    sentinel::Domain caller, std::string_view name) const {
  // Catalog is replicated; shard 0 answers (and gates) for everyone.
  return shards_.front()->GetType(caller, name);
}

std::vector<std::string> ShardedDbfs::TypeNames() const {
  return shards_.front()->TypeNames();
}

// ---- record surface -------------------------------------------------------

Result<RecordId> ShardedDbfs::Put(sentinel::Domain caller, SubjectId subject,
                                  std::string_view type_name,
                                  const db::Row& row,
                                  membrane::Membrane membrane) {
  return ShardFor(subject).Put(caller, subject, type_name, row,
                               std::move(membrane));
}

Result<PdRecord> ShardedDbfs::Get(sentinel::Domain caller,
                                  RecordId id) const {
  return ShardForRecord(id).Get(caller, id);
}

Result<membrane::Membrane> ShardedDbfs::GetMembrane(sentinel::Domain caller,
                                                    RecordId id) const {
  return ShardForRecord(id).GetMembrane(caller, id);
}

namespace {
/// Group a batch by owning shard, run `call` once per shard with that
/// shard's ids, and deal each shard's in-order results back out in
/// request order.
template <typename T, typename Call>
std::vector<Result<T>> FanOutBatch(const ShardedDbfs& fs,
                                   const std::vector<RecordId>& ids,
                                   Call call) {
  const std::size_t shard_count = fs.shard_count();
  std::vector<std::vector<RecordId>> shard_ids(shard_count);
  for (RecordId id : ids) shard_ids[fs.ShardIndexOfRecord(id)].push_back(id);
  std::vector<std::vector<Result<T>>> parts(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (!shard_ids[s].empty()) parts[s] = call(s, shard_ids[s]);
  }
  std::vector<std::size_t> next(shard_count, 0);
  std::vector<Result<T>> out;
  out.reserve(ids.size());
  for (RecordId id : ids) {
    const std::size_t s = fs.ShardIndexOfRecord(id);
    out.push_back(std::move(parts[s][next[s]++]));
  }
  return out;
}
}  // namespace

std::vector<Result<PdRecord>> ShardedDbfs::GetMany(
    sentinel::Domain caller, const std::vector<RecordId>& ids) const {
  return FanOutBatch<PdRecord>(
      *this, ids,
      [&](std::size_t s, const std::vector<RecordId>& part) {
        return shards_[s]->GetMany(caller, part);
      });
}

std::vector<Result<membrane::Membrane>> ShardedDbfs::GetMembraneMany(
    sentinel::Domain caller, const std::vector<RecordId>& ids) const {
  return FanOutBatch<membrane::Membrane>(
      *this, ids,
      [&](std::size_t s, const std::vector<RecordId>& part) {
        return shards_[s]->GetMembraneMany(caller, part);
      });
}

Status ShardedDbfs::UpdateRow(sentinel::Domain caller, RecordId id,
                              const db::Row& row) {
  return ShardForRecord(id).UpdateRow(caller, id, row);
}

Status ShardedDbfs::UpdateMembrane(sentinel::Domain caller, RecordId id,
                                   const membrane::Membrane& membrane) {
  return ShardForRecord(id).UpdateMembrane(caller, id, membrane);
}

Status ShardedDbfs::HardDelete(sentinel::Domain caller, RecordId id) {
  return ShardForRecord(id).HardDelete(caller, id);
}

Status ShardedDbfs::ReplaceWithEnvelope(sentinel::Domain caller, RecordId id,
                                        ByteSpan envelope) {
  return ShardForRecord(id).ReplaceWithEnvelope(caller, id, envelope);
}

Result<Bytes> ShardedDbfs::GetEnvelope(sentinel::Domain caller,
                                       RecordId id) const {
  return ShardForRecord(id).GetEnvelope(caller, id);
}

// ---- queries --------------------------------------------------------------

Result<std::vector<RecordId>> ShardedDbfs::RecordsOfType(
    sentinel::Domain caller, std::string_view type) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "scan type=" + std::string(type)));
  std::vector<RecordId> out;
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    RGPD_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                          shard->RecordsOfTypeUngated(type));
    out.insert(out.end(), ids.begin(), ids.end());
  }
  // Per-shard logs are append-ordered (ascending ids); the merged view
  // is globally ascending so callers see a deterministic order.
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<RecordId>> ShardedDbfs::RecordsOfSubject(
    sentinel::Domain caller, SubjectId subject) const {
  return ShardFor(subject).RecordsOfSubject(caller, subject);
}

Result<std::vector<SubjectId>> ShardedDbfs::SubjectsAfter(
    sentinel::Domain caller, SubjectId after, std::size_t limit) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "subject scan after=" + std::to_string(after)));
  std::vector<SubjectId> merged;
  if (limit == 0) return merged;
  // Each shard returns its own first `limit` subjects > after; merging
  // and truncating yields exactly the globally-first `limit` (a subject
  // lives on exactly one shard, so there are no duplicates to collapse).
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    RGPD_ASSIGN_OR_RETURN(std::vector<SubjectId> page,
                          shard->SubjectsAfterUngated(after, limit));
    merged.insert(merged.end(), page.begin(), page.end());
  }
  std::sort(merged.begin(), merged.end());
  if (merged.size() > limit) merged.resize(limit);
  return merged;
}

Result<std::vector<RecordId>> ShardedDbfs::CopyGroupMembers(
    sentinel::Domain caller, std::uint64_t group) const {
  RGPD_RETURN_IF_ERROR(Gate(caller, sentinel::Operation::kRead,
                            "copy_group=" + std::to_string(group)));
  std::vector<RecordId> out;
  // Copy groups span shards: a membrane minted on one shard propagates
  // to copies of OTHER subjects' records via UpdateMembrane.
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    RGPD_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                          shard->CopyGroupMembersUngated(group));
    out.insert(out.end(), ids.begin(), ids.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<SubjectExport> ShardedDbfs::ExportSubject(sentinel::Domain caller,
                                                 SubjectId subject) const {
  return ShardFor(subject).ExportSubject(caller, subject);
}

// ---- decoded-record cache -------------------------------------------------

void ShardedDbfs::EnableRecordCache(std::size_t capacity) {
  const std::size_t per_shard =
      capacity == 0 ? 0
                    : std::max<std::size_t>(
                          1, (capacity + shards_.size() - 1) / shards_.size());
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    shard->EnableRecordCache(per_shard);
  }
}

// ---- stats ----------------------------------------------------------------

Result<SensitivityReport> ShardedDbfs::ReportSensitivity(
    sentinel::Domain caller) const {
  RGPD_RETURN_IF_ERROR(
      Gate(caller, sentinel::Operation::kReadSchema, "sensitivity report"));
  SensitivityReport total;
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    RGPD_ASSIGN_OR_RETURN(SensitivityReport part,
                          shard->ReportSensitivityUngated());
    for (std::size_t level = 0; level < total.by_level.size(); ++level) {
      total.by_level[level] += part.by_level[level];
    }
    for (const auto& [type, count] : part.high_by_type) {
      total.high_by_type[type] += count;
    }
  }
  return total;
}

std::size_t ShardedDbfs::record_count() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    total += shard->record_count();
  }
  return total;
}

std::size_t ShardedDbfs::subject_count() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Dbfs>& shard : shards_) {
    total += shard->subject_count();
  }
  return total;
}

}  // namespace rgpdos::dbfs

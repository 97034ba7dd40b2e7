// Data Execution Domain (paper §2) — "any F_pd function is always
// executed as an instance of the DED, an environment that ensures GDPR
// compliance on manipulated PD".
//
// The eight pipeline steps run in order, each timed for the Fig-4
// breakdown:
//   ded_type2req        input parameter type -> DBFS requests
//   ded_load_membrane   fetch membranes FIRST (no PD bytes yet)
//   ded_filter          keep only records whose membrane approves the
//                       purpose now (consent + TTL)
//   ded_load_data       fetch rows for the survivors only
//   ded_execute         run the implementation under the syscall filter
//   ded_build_membrane  wrap derived PD in a membrane
//   ded_store           persist derived PD in DBFS
//   ded_return          hand back PdRefs + NPD, never PD by value
//
// A DED is only constructible by the ProcessingStore (rule 2): the
// constructor requires a PassKey that only PS can mint.
//
// Consent-decision memoization (level 3 of the caching stack): each
// invoke keeps a per-record memo of the filter stage's decision, keyed
// by the membrane VERSION it was computed against. The filter stage
// decides on the membrane loaded by ded_load_membrane; ded_load_data
// then re-validates against the membrane that arrived with the row and,
// if the version moved (a concurrent withdrawal/erasure/rectification),
// re-decides on the fresh membrane — so a withdrawn consent is never
// honoured, cached or not, while the unchanged-version common case costs
// one memo lookup instead of a second Evaluate + scope intersection.
//
// Batched loads & stage pipelining: the IO stages run CHUNKED — one
// ShardedDbfs::GetMembraneMany per chunk of candidates feeds the filter, and
// the chunk's survivors fetch their rows in one GetMany — so the block
// layer sees a handful of amortised batched submissions instead of 3+
// serialized reads per record. Single-lane, the chunks run inline in
// candidate order. When the PS hands the DED a DedExecutor and there is
// enough work, lane 0 runs the IO stages and feeds survivors through a
// BoundedQueue (executor.hpp) to the other lanes, which run the execute
// stage concurrently — the queue bound is the backpressure that stalls
// the loader when the implementations fall behind. ded_store stays
// serial so derived record ids are assigned in a deterministic order.
// Each record's work is self-contained — its log entries are staged per
// record and merged in candidate order, so the processing log carries
// the same per-record happens-before ordering as a serial run, and the
// first failing record (by candidate index) decides the returned error
// exactly as it would serially. Stage timings are summed across lanes
// (CPU time, not wall time, once parallel).
#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/executor.hpp"
#include "core/processing.hpp"
#include "core/processing_log.hpp"
#include "dbfs/sharded_dbfs.hpp"
#include "dsl/ast.hpp"
#include "sentinel/policy.hpp"

namespace rgpdos::core {

class ProcessingStore;

class DataExecutionDomain {
 public:
  /// Capability token: only ProcessingStore can create one, which makes
  /// "PS is the only entry point to invoke a processing" a compile-time
  /// property on top of the sentinel's runtime check.
  class PassKey {
   private:
    PassKey() = default;
    friend class ProcessingStore;
  };

  /// `executor` may be null: the pipeline then runs single-lane.
  /// `memoize_decisions` == false recomputes every consent decision
  /// (cache_decisions=0: the pre-cache behaviour; the load_data version
  /// re-validation stays on either way — it is a correctness property).
  DataExecutionDomain(PassKey, dbfs::ShardedDbfs* dbfs,
                      sentinel::Sentinel* sentinel, ProcessingLog* log,
                      const Clock* clock,
                      DedExecutor* executor = nullptr,
                      bool memoize_decisions = true)
      : dbfs_(dbfs),
        sentinel_(sentinel),
        log_(log),
        clock_(clock),
        executor_(executor),
        memoize_decisions_(memoize_decisions) {}

  /// Run the full pipeline for `processing` (its purpose declaration and
  /// implementation) over either one record or all records of the
  /// purpose's input type. When `field_trace` is non-null, every field
  /// the implementation actually reads is recorded there — the
  /// observation channel of PS's runtime purpose verifier (the paper's
  /// §3(4) purpose/implementation matching problem, attacked dynamically).
  Result<InvokeResult> Execute(
      const dsl::PurposeDecl& purpose, const std::string& processing_name,
      const ProcessingFn& fn, const std::optional<PdRef>& target,
      std::set<std::string>* field_trace = nullptr,
      const std::vector<FieldPredicate>& predicates = {});

 private:
  /// Effective field scope = subject consent ∩ purpose declaration
  /// (data minimisation: the function sees the smaller of what the
  /// subject allows and what the purpose asked for).
  Result<std::set<std::string>> EffectiveScope(
      const dsl::TypeDecl& type, const membrane::Consent& consent,
      const dsl::PurposeDecl& purpose) const;

  Result<membrane::Membrane> BuildDerivedMembrane(
      const dsl::PurposeDecl& purpose, const membrane::Membrane& source)
      const;

  /// Everything one candidate record produced, staged so shards can run
  /// the per-record stages concurrently and Execute can merge the
  /// results in candidate order.
  struct RecordOutcome {
    struct StagedLog {
      dbfs::SubjectId subject = 0;
      dbfs::RecordId record = 0;
      LogOutcome outcome = LogOutcome::kProcessed;
      std::string detail;
    };
    std::vector<StagedLog> logs;
    Status error = Status::Ok();  ///< non-OK halts the merge at this record
    bool processed = false;
    std::uint64_t filtered = 0;
    Bytes npd;
    std::optional<db::Row> derived_row;
    membrane::Membrane source_membrane;  ///< set when derived_row is
    std::set<std::string> fields;        ///< this record's field trace
    std::uint64_t syscalls_denied = 0;
    StageTimings timings;
  };

  /// Outcome of the filter stage for one (record, membrane version).
  struct Decision {
    Status error = Status::Ok();  ///< non-OK: scope computation failed
    bool approved = false;
    std::string filter_detail;  ///< set when !approved (log text)
    membrane::Consent consent;
    std::set<std::string> scope;
  };

  /// Per-invoke memo of consent decisions, keyed by record id and
  /// guarded by the membrane version the decision was computed against.
  /// Leaf lock (plain mutex): nothing else is ever acquired while held,
  /// and the memo dies with its invoke.
  class DecisionMemo {
   public:
    [[nodiscard]] std::optional<Decision> Lookup(dbfs::RecordId id,
                                                 std::uint64_t version) const {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(id);
      if (it == map_.end() || it->second.first != version) {
        return std::nullopt;
      }
      return it->second.second;
    }
    void Store(dbfs::RecordId id, std::uint64_t version, Decision decision) {
      std::lock_guard<std::mutex> lock(mu_);
      map_[id] = {version, std::move(decision)};
    }

   private:
    mutable std::mutex mu_;
    std::unordered_map<dbfs::RecordId, std::pair<std::uint64_t, Decision>>
        map_;
  };

  /// Memo-through filter decision for `m` (memo may be null).
  Decision Decide(const membrane::Membrane& m, const dsl::TypeDecl& type,
                  const dsl::PurposeDecl& purpose, dbfs::RecordId id,
                  TimeMicros now, DecisionMemo* memo) const;

  /// A filter-approved candidate staged for the execute lane: its slot
  /// in candidate order, the membrane image the filter decision was made
  /// on, that decision, and the row fetched by the batched ded_load_data
  /// stage. This is the unit the load stage pushes through the bounded
  /// queue to the execute lanes.
  struct StagedRecord {
    std::size_t index = 0;  ///< candidate-order slot in the outcome array
    dbfs::RecordId id = 0;
    membrane::Membrane membrane;
    Decision decision;
    Result<dbfs::PdRecord> record = Internal("row not loaded");
    /// ShardedDbfs::SubjectGeneration snapshot taken right after the batched
    /// row load: the execute stage re-fetches the membrane iff it moved,
    /// so a withdrawal acked between load and execute is never honoured
    /// while the unmutated common case pays one atomic load.
    std::uint64_t subject_gen = 0;
  };

  /// The execute-stage slice for one staged survivor: erased check,
  /// stale-consent re-validation against the membrane that travelled
  /// WITH the row, application predicates, then the implementation under
  /// the syscall filter. Pure with respect to DED state (all shared
  /// mutation is deferred into `out`), so any lane may run it.
  void ExecuteStaged(StagedRecord s, RecordOutcome& out,
                     const dsl::TypeDecl& input_type,
                     const db::Schema& input_schema,
                     const dsl::PurposeDecl& purpose,
                     const std::string& processing_name,
                     const ProcessingFn& fn,
                     const std::vector<FieldPredicate>& predicates,
                     TimeMicros now, bool want_trace,
                     DecisionMemo* memo) const;

  dbfs::ShardedDbfs* dbfs_;       // borrowed
  sentinel::Sentinel* sentinel_;  // borrowed
  ProcessingLog* log_;            // borrowed
  const Clock* clock_;            // borrowed
  DedExecutor* executor_;         // borrowed; null = single-lane
  bool memoize_decisions_;
};

}  // namespace rgpdos::core

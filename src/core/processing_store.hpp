// Processing Store (PS) — "the only rgpdOS entry point. Its public
// interface consists of two functions: ps_register and ps_invoke"
// (paper §2).
//
// ps_register checks each registration: an implementation without a
// purpose is rejected; a purpose that does not match the implementation
// raises an ALERT that requires explicit sysadmin approval before the
// processing becomes invocable. ps_invoke instantiates a DED and runs
// the pipeline; applications never reach DBFS any other way.
//
// Thread-safety: the registration table, alert table and collection
// sources serialise on one lock at the TOP of the stack-wide order
// (rank kCore — see metrics/lock.hpp). Invoke holds it only to COPY the
// stored processing out (purpose, fn handle, manifest fields), so N
// application threads run their DED pipelines concurrently without
// serialising on the PS; the runtime purpose verifier re-finds the
// processing under the lock afterwards and tolerates it having been
// rejected meanwhile.
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "core/ded.hpp"
#include "core/processing.hpp"
#include "metrics/lock.hpp"

namespace rgpdos::core {

/// Simulated collection source: given a collection interface (web form /
/// third-party script), produce freshly collected (subject, row) pairs.
/// Paper: "rgpdOS leaves the configuration of the collection interface
/// (e.g., web form) to the data operator."
using CollectionSource = std::function<Result<
    std::vector<std::pair<dbfs::SubjectId, db::Row>>>(
    const membrane::CollectionInterface&)>;

/// A pending purpose-mismatch alert. `runtime` distinguishes alerts
/// raised by the registration-time manifest check from those raised by
/// the runtime verifier observing the implementation's actual reads.
struct Alert {
  std::uint64_t id = 0;
  ProcessingId processing = 0;
  std::string reason;
  bool resolved = false;
  bool approved = false;
  bool runtime = false;
};

class ProcessingStore {
 public:
  /// `executor` may be null: invokes then run their pipeline
  /// single-lane (the pre-parallel behaviour). `memoize_decisions` is
  /// handed to every DED this store instantiates (see ded.hpp).
  ProcessingStore(dbfs::ShardedDbfs* dbfs, sentinel::Sentinel* sentinel,
                  ProcessingLog* log, const Clock* clock,
                  DedExecutor* executor = nullptr,
                  bool memoize_decisions = true)
      : dbfs_(dbfs),
        sentinel_(sentinel),
        log_(log),
        clock_(clock),
        executor_(executor),
        memoize_decisions_(memoize_decisions) {}

  // ---- ps_register -----------------------------------------------------------

  /// Register a data processing = (purpose declaration, implementation,
  /// implementation manifest). Returns the processing id. If the
  /// manifest does not match the purpose, the id is returned but the
  /// processing stays PENDING until the sysadmin approves the alert.
  Result<ProcessingId> Register(sentinel::Domain caller,
                                dsl::PurposeDecl purpose, ProcessingFn fn,
                                ImplManifest manifest);

  /// Pending alerts (sysadmin console).
  [[nodiscard]] std::vector<Alert> PendingAlerts() const;
  Status ApproveAlert(sentinel::Domain caller, std::uint64_t alert_id);
  Status RejectAlert(sentinel::Domain caller, std::uint64_t alert_id);

  // ---- ps_invoke -------------------------------------------------------------

  Result<InvokeResult> Invoke(sentinel::Domain caller, ProcessingId id,
                              const InvokeOptions& options = {});

  /// Register a simulated collection source under a method name
  /// ("web_form", "third_party", ...).
  void RegisterCollectionSource(std::string method, CollectionSource source);

  // ---- introspection -----------------------------------------------------------

  [[nodiscard]] std::size_t processing_count() const {
    std::lock_guard<metrics::OrderedMutex> lock(mu_);
    return processings_.size();
  }
  /// Invokes currently running their DED pipeline. Lock-free; the
  /// retention sweeper reads this as its foreground-backpressure signal
  /// (it yields between pages while application traffic is in flight).
  [[nodiscard]] std::uint64_t invokes_in_flight() const {
    return invokes_in_flight_.load(std::memory_order_relaxed);
  }
  /// The pointer stays valid until the processing is erased by
  /// RejectAlert — treat as a quiescent-time interface.
  Result<const dsl::PurposeDecl*> GetPurpose(ProcessingId id) const;
  [[nodiscard]] bool IsActive(ProcessingId id) const;

 private:
  struct StoredProcessing {
    dsl::PurposeDecl purpose;
    ProcessingFn fn;
    ImplManifest manifest;
    bool active = false;    ///< false while an alert is pending/rejected
    /// Runtime purpose verification (paper §3(4), attacked dynamically):
    /// until the implementation has been observed `kVerificationRuns`
    /// times reading only manifest-declared fields, every invocation is
    /// traced. An out-of-manifest read deactivates the processing and
    /// raises a runtime alert for the sysadmin.
    std::uint32_t verified_runs = 0;
  };
  static constexpr std::uint32_t kVerificationRuns = 3;

  /// The purpose-vs-implementation "match" check (paper §2 / §3(4)).
  Result<std::string> CheckPurposeMatch(const dsl::PurposeDecl& purpose,
                                        const ImplManifest& manifest) const;

  Status RunCollection(const dsl::PurposeDecl& purpose,
                       const std::string& method);

  dbfs::ShardedDbfs* dbfs_;       // borrowed
  sentinel::Sentinel* sentinel_;  // borrowed
  ProcessingLog* log_;            // borrowed
  const Clock* clock_;            // borrowed
  DedExecutor* executor_;         // borrowed; null = single-lane invokes
  bool memoize_decisions_;        ///< forwarded to each DED instance

  /// Guards everything below. Rank kCore: outermost, so a holder may
  /// still call any lower layer (sentinel, log, dbfs, ...).
  mutable metrics::OrderedMutex mu_{metrics::LockRank::kCore, "core.ps"};
  std::map<ProcessingId, StoredProcessing> processings_;
  std::atomic<std::uint64_t> invokes_in_flight_{0};
  std::vector<Alert> alerts_;
  std::map<std::string, CollectionSource> collection_sources_;
  ProcessingId next_id_ = 1;
  std::uint64_t next_alert_id_ = 1;
};

}  // namespace rgpdos::core

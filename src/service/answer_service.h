// The batch-query answering service: the long-running front-end in front of
// LowRankMechanism.
//
// Layering (bottom-up):
//
//   ThreadPool               workers executing answer tasks
//   BudgetManager            per-tenant ε ledger, typed refusals
//   PreparedMechanismCache   fingerprint-keyed prepared strategies
//   QueryBatcher             single queries → workload batches
//   AnswerService            admission, deadlines, shedding, RNG streams
//
// The service owns the sensitive unit-count vector; tenants own only their
// queries and their ε budgets. Every request travels: validate → charge
// budget (typed RESOURCE_EXHAUSTED refusal when the ledger cannot cover ε)
// → prepare-or-hit cache → answer with the request's private RNG stream.
//
// Failure model (full contract in src/service/README.md):
//   * Refusals are typed and charge nothing: INVALID_ARGUMENT /
//     FAILED_PRECONDITION (validation), RESOURCE_EXHAUSTED (budget),
//     UNAVAILABLE (shed under overload — retry-after hint in the message).
//   * A request admitted with a deadline is cancelled cooperatively: the
//     ALM strategy search polls the request's CancelToken between
//     iterations. An expired request either degrades to the
//     identity-strategy Laplace release (allow_degraded, the default —
//     same ε cost, same noise stream, response.degraded set) or is
//     refunded and fails with DEADLINE_EXCEEDED.
//   * ε is spent if and only if a noisy answer was released. Any
//     post-charge failure path refunds before resolving the future; a
//     worker task that dies by exception still refunds and resolves its
//     future with INTERNAL. No future is ever abandoned — the destructor
//     resolves never-dispatched single-query futures with CANCELLED.
//
// Determinism: each request is assigned a monotonically increasing id at
// admission (Submit/Answer call order), and its noise stream is derived
// from (service seed, id) alone — so for a fixed seed and submission order
// the noise added to each release is bitwise identical no matter how the
// worker threads interleave. A degraded release draws from the SAME
// per-request stream, so it too is bitwise reproducible for a fixed seed
// and submission order. The full released vector is additionally
// deterministic whenever the request's strategy is pinned (a cache hit, or
// a cold prepare); a warm-started miss reuses whatever same-shaped factors
// the cache happens to hold, which under concurrent submission of distinct
// workloads can depend on completion order.

#ifndef LRM_SERVICE_ANSWER_SERVICE_H_
#define LRM_SERVICE_ANSWER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"
#include "base/status_or.h"
#include "base/thread_pool.h"
#include "linalg/vector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "rng/engine.h"
#include "service/batcher.h"
#include "service/budget_manager.h"
#include "service/fault_injection.h"
#include "service/prepared_cache.h"
#include "workload/workload.h"

namespace lrm::service {

/// \brief Options for AnswerService.
struct AnswerServiceOptions {
  /// Worker threads answering requests.
  int num_threads = 4;
  /// Master seed all per-request noise streams derive from.
  std::uint64_t seed = 20120827;
  /// Prepared-mechanism cache settings (mechanism options included).
  PreparedCacheOptions cache;
  /// Admission batching: single queries are coalesced per (tenant, ε)
  /// until a group holds this many rows (QueryBatcher).
  linalg::Index max_batch_queries = 64;

  /// Overload protection: maximum asynchronous requests admitted to the
  /// worker pool but not yet completed (Submit and dispatched batches;
  /// the synchronous Answer path occupies no pool slot and is never
  /// shed). Beyond this depth Submit refuses with UNAVAILABLE — before
  /// charging anything — and embeds a retry-after estimate in the status
  /// message. 0 disables shedding.
  std::size_t max_pending_requests = 1024;

  /// Time-based batch cuts: a partial (tenant, ε) single-query group is
  /// cut and dispatched once its oldest query has waited this long, so a
  /// sparse tenant's queries don't wait unboundedly for batch-mates. A
  /// finite value starts a background ticker thread; infinity (the
  /// default) disables time-based cuts entirely (groups wait for
  /// max_batch_queries or FlushQueries).
  double batch_linger_seconds = std::numeric_limits<double>::infinity();

  /// Test-only deterministic fault seam (see fault_injection.h). Not
  /// owned; must outlive the service. Propagated into the cache unless
  /// cache.fault_injector is already set. Null disables injection.
  FaultInjector* fault_injector = nullptr;

  /// Periodic metrics reporting: a positive finite value starts a
  /// background obs::PeriodicReporter that renders the service registry
  /// every this many seconds into the process log at INFO (plus one final
  /// report at shutdown). 0 (the default) disables the reporter; the
  /// registry is still live and snapshotable either way.
  double report_period_seconds = 0.0;
};

/// \brief One batch request: answer every query of `workload` at privacy
/// cost ε against the service's data, charged to `tenant`.
struct BatchAnswerRequest {
  std::string tenant;
  double epsilon = 0.0;
  std::shared_ptr<const workload::Workload> workload;

  /// Deadline budget measured from admission. The strategy search is
  /// cancelled cooperatively (between ALM iterations) once it expires.
  /// Must be positive; non-finite means no deadline (the default).
  double timeout_seconds = std::numeric_limits<double>::infinity();

  /// When the strategy search fails or is cancelled by the deadline, fall
  /// back to the identity-strategy Laplace release (NoiseOnDataMechanism)
  /// instead of failing: the SAME ε is spent, the SAME per-request noise
  /// stream is used, and the response reports degraded = true. False
  /// demands the low-rank strategy or nothing: such a request is refunded
  /// and fails with the underlying typed status.
  bool allow_degraded = true;
};

/// \brief The released answers plus per-request serving metadata.
struct BatchAnswerResponse {
  /// Admission-order id; also names the noise stream used.
  std::uint64_t request_id = 0;
  /// ε-DP noisy answers, one per workload row.
  linalg::Vector answers;
  /// Strategy came from the cache (or a coalesced concurrent prepare).
  bool cache_hit = false;
  /// A cache miss that warm-started from a cached neighbor's factors.
  bool warm_started = false;
  /// Released through the identity-strategy Laplace fallback because the
  /// low-rank prepare failed or was cancelled by the deadline. Same ε
  /// spent; higher expected error.
  bool degraded = false;
  /// Wall-clock the strategy search cost this request (≈0 on a hit).
  double prepare_seconds = 0.0;
  /// Wall-clock of the noisy release itself.
  double answer_seconds = 0.0;
  /// Tenant budget left after this charge.
  double remaining_budget = 0.0;
};

/// \brief Service counters (monotonic). Refusals are split by reason so an
/// operator can tell overload (shed) from misconfiguration (validation)
/// from ledger pressure (budget) at a glance.
///
/// Since the obs rewire this struct is a snapshot VIEW assembled from the
/// service's registry-backed counters at stats() time (metric names in
/// src/service/README.md); it is no longer the live accounting structure.
/// Existing callers keep reading the same fields. Cross-field reads are
/// individually monotonic but not a single atomic cut — exactly the
/// guarantee the old mutex-guarded struct gave across stats() calls.
struct AnswerServiceStats {
  std::int64_t requests_admitted = 0;
  /// Charge refused: the tenant's remaining ε cannot cover the request.
  std::int64_t refused_budget = 0;
  /// Refused before charging: malformed workload/ε/timeout or unknown
  /// tenant.
  std::int64_t refused_validation = 0;
  /// Shed at Submit: max_pending_requests asynchronous requests were
  /// already in flight. Nothing was charged.
  std::int64_t refused_shed = 0;
  /// Admitted but failed with DEADLINE_EXCEEDED after refund (deadline
  /// expired and degradation was disallowed or itself failed).
  std::int64_t refused_deadline = 0;
  /// Responses released through the Laplace fallback (degraded = true).
  std::int64_t degraded_releases = 0;
  std::int64_t batches_dispatched = 0;  // via the single-query path
  /// Batch groups cut by the linger ticker rather than by reaching
  /// max_batch_queries or FlushQueries.
  std::int64_t batches_cut_by_linger = 0;
  PreparedCacheStats cache;
};

/// \brief Single-process batch-query answering service.
///
/// Thread-safe. Submit() performs admission (overload check + validation +
/// budget charge + request-id assignment) synchronously on the caller's
/// thread — refusals are therefore deterministic in submission order — and
/// runs the prepare/answer work on the worker pool.
class AnswerService {
 public:
  /// `data` is the sensitive unit-count vector the service answers from.
  AnswerService(linalg::Vector data, AnswerServiceOptions options = {});

  /// Resolves every never-dispatched single-query future with CANCELLED
  /// (their groups were never cut, so nothing was charged), then drains
  /// the worker pool so in-flight requests complete normally.
  ~AnswerService();

  AnswerService(const AnswerService&) = delete;
  AnswerService& operator=(const AnswerService&) = delete;

  /// Grants `tenant` a lifetime ε budget (BudgetManager semantics).
  Status RegisterTenant(const std::string& tenant, double epsilon_budget);

  /// Synchronous request path: admission + prepare/answer on the calling
  /// thread. Budget exhaustion returns StatusCode::kResourceExhausted and
  /// charges nothing. Never shed (occupies no worker-pool slot); the
  /// request's deadline and degradation policy still apply.
  StatusOr<BatchAnswerResponse> Answer(const BatchAnswerRequest& request);

  /// Asynchronous request path: admission happens before this returns
  /// (including the overload check and the budget charge — a shed or
  /// exhausted request learns immediately via a ready future), the heavy
  /// work runs on the worker pool. The future ALWAYS resolves with a
  /// typed status: worker death by exception refunds and resolves
  /// INTERNAL.
  std::future<StatusOr<BatchAnswerResponse>> Submit(
      BatchAnswerRequest request);

  /// Single-query admission path: the query joins its (tenant, ε) batch
  /// group; once the group holds max_batch_queries rows (or FlushQueries
  /// runs, or the group lingers past batch_linger_seconds) the whole
  /// group is charged ε ONCE, prepared, and answered as one workload, and
  /// each future resolves to its query's noisy answer.
  std::future<StatusOr<double>> SubmitQuery(const std::string& tenant,
                                            double epsilon,
                                            linalg::Vector query);

  /// Cuts every pending query group and dispatches it, full or not.
  void FlushQueries();

  /// Blocks until all dispatched work has finished.
  void Drain();

  /// Snapshot view over the registry counters (see AnswerServiceStats).
  AnswerServiceStats stats() const;

  /// The service's metric registry: every counter/histogram the service,
  /// its batcher and its cache publish (service.*, batcher.*, cache.*,
  /// alm.*). Snapshot it (or use MetricsSnapshot) and render with
  /// obs::ToText / obs::ToJson.
  const obs::MetricRegistry& registry() const { return registry_; }

  /// Convenience: a coherent point-in-time snapshot of every metric.
  obs::RegistrySnapshot MetricsSnapshot() const {
    return registry_.Snapshot();
  }

  /// Refunds refused by the ledger because they exceeded recorded spend
  /// (charge/refund pairing bug; see BudgetManager::Refund). Exposed so
  /// fault-injection tests can assert the ledger never went creative.
  std::int64_t over_refund_count() const {
    return budget_.over_refund_count();
  }

  /// Remaining ε for a tenant (ledger read-through).
  StatusOr<double> RemainingBudget(const std::string& tenant) const {
    return budget_.Remaining(tenant);
  }

  linalg::Index domain_size() const { return data_.size(); }

 private:
  // Admission: validates the request shape and deadline, charges the
  // budget, assigns the request id. Returns the id.
  StatusOr<std::uint64_t> Admit(const BatchAnswerRequest& request);

  // Overload gate for the asynchronous paths: reserves an in-flight slot
  // or refuses UNAVAILABLE (with a retry-after estimate) when
  // max_pending_requests slots are taken. Runs BEFORE Admit so a shed
  // request charges nothing.
  Status TryReserveSlot();
  // Completes the slot reserved by TryReserveSlot. (The serve-time average
  // behind the retry-after estimate now comes from the service.serve_seconds
  // histogram, which ServeGuarded feeds.)
  void ReleaseSlot();

  // The post-admission work: deadline gates + cache lookup/prepare + noisy
  // release, with the Laplace fallback on prepare failure. Refunds the
  // tenant when no answer was released.
  StatusOr<BatchAnswerResponse> Serve(const BatchAnswerRequest& request,
                                      std::uint64_t request_id,
                                      const CancelToken& token);
  // Serve wrapped so no exception escapes a worker task: a throw refunds
  // and becomes INTERNAL. Every future therefore resolves.
  StatusOr<BatchAnswerResponse> ServeGuarded(const BatchAnswerRequest& request,
                                             std::uint64_t request_id,
                                             const CancelToken& token);
  // Terminal failure handling for Serve: the identity-strategy Laplace
  // fallback when the request allows it, else refund + typed status.
  StatusOr<BatchAnswerResponse> ResolveServeFailure(
      const BatchAnswerRequest& request, std::uint64_t request_id,
      Status cause, double prepare_seconds);

  // Injector gate (when armed) followed by the request's deadline check.
  Status DeadlineGate(const char* site, const CancelToken& token);

  // Per-request cancellation token: carries the deadline when
  // request.timeout_seconds is finite.
  CancelToken TokenForRequest(const BatchAnswerRequest& request) const;

  // Noise stream for one request id: derived from the master seed only.
  rng::Engine EngineForRequest(std::uint64_t request_id) const;

  // Dispatches ready batches from the query batcher onto the pool.
  void DispatchBatches(std::vector<QueryBatcher::ReadyBatch> batches,
                       bool cut_by_linger = false);

  // Background linger ticker (only when batch_linger_seconds is finite).
  void StartLingerTicker();
  void StopLingerTicker();

  linalg::Vector data_;
  AnswerServiceOptions options_;

  // The registry every tier below publishes into. Declared before the
  // members that hold pointers into it (cache_, batcher_, reporter_) so it
  // outlives them; metric pointers are stable for the registry's lifetime.
  obs::MetricRegistry registry_;
  // Registry-backed counters replacing the old mutex-guarded stats struct:
  // the hot path is a relaxed atomic add, never the service mutex.
  obs::Counter* requests_admitted_ = nullptr;
  obs::Counter* refused_budget_ = nullptr;
  obs::Counter* refused_validation_ = nullptr;
  obs::Counter* refused_shed_ = nullptr;
  obs::Counter* refused_deadline_ = nullptr;
  obs::Counter* degraded_releases_ = nullptr;
  obs::Counter* batches_dispatched_ = nullptr;
  obs::Counter* batches_cut_by_linger_ = nullptr;
  // Stage histograms (seconds): admission ⊂ serve ⊃ prepare/answer.
  obs::Histogram* admission_seconds_ = nullptr;
  obs::Histogram* serve_seconds_ = nullptr;
  obs::Histogram* prepare_seconds_ = nullptr;
  obs::Histogram* answer_seconds_ = nullptr;
  // Live depth of the async worker queue (the shedding gauge).
  obs::Gauge* in_flight_gauge_ = nullptr;

  BudgetManager budget_;
  PreparedMechanismCache cache_;
  QueryBatcher batcher_;
  std::unique_ptr<obs::PeriodicReporter> reporter_;

  std::atomic<std::uint64_t> next_request_id_{0};
  // Slots reserved but not released (the overload gate).
  std::atomic<std::size_t> in_flight_{0};

  mutable std::mutex mu_;
  // Futures for admitted single queries, keyed by (batch sequence, row).
  std::unordered_map<std::uint64_t,
                     std::unordered_map<linalg::Index,
                                        std::promise<StatusOr<double>>>>
      pending_queries_;

  // Linger ticker state (its own mutex: the ticker must be stoppable
  // without contending with request admission).
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  std::thread ticker_;

  // Last member so workers die before anything they touch.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace lrm::service

#endif  // LRM_SERVICE_ANSWER_SERVICE_H_

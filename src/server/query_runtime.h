#ifndef DBS3_SERVER_QUERY_RUNTIME_H_
#define DBS3_SERVER_QUERY_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/memory_quota.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "engine/cancel.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "sched/scheduler.h"
#include "server/admission.h"
#include "server/pool_load_board.h"
#include "server/query_handle.h"
#include "server/worker_pool.h"

namespace dbs3 {

class QueryRuntime;

/// Sizing of the concurrent query runtime.
struct QueryRuntimeOptions {
  /// Shared worker-pool threads. 0 = hardware concurrency (>= 1).
  size_t pool_threads = 0;
  /// Session slots: queries executing at once (= driver threads). Queries
  /// past this wait in the admission queue.
  size_t max_concurrent_queries = 4;
  /// Waiting room past the session slots; one more is shed with
  /// kResourceExhausted. Generous default so the synchronous facade API
  /// never sheds unexpectedly.
  size_t max_queued_queries = 256;
  /// Memory/queue budget in tuple units shared by running queries (what a
  /// query declares via QuerySpec::memory_units). 0 = unbounded.
  uint64_t memory_budget_units = 0;
  /// When set, the runtime publishes counters (runtime.queries_submitted,
  /// .shed, .cancelled, .deadline_exceeded, .completed, .threads_granted,
  /// .threads_released; engine.tuple_units and engine.units_cancelled, the
  /// work of every finished query) and per-query latency summaries in
  /// microseconds (runtime.admission_wait_us, .execution_wall_us,
  /// .busy_us) here, each registered, at 0, when the runtime starts. Must
  /// outlive the runtime.
  MetricsRegistry* metrics = nullptr;
  /// Largest shared-scan batch a driver folds (lead included). 1 never
  /// folds: each scan-only query runs its one-node shared scan alone. The
  /// default groups compatible queries whenever they are simultaneously
  /// queued.
  size_t shared_batch_max_queries = 8;
  /// Extra microseconds a driver holds a shareable lead open for
  /// compatible stragglers before executing. 0 (default) adds no latency:
  /// only queries already waiting are grouped. The paper-era sweet spot
  /// for lookup floods is 500–2000 us.
  uint64_t shared_batch_window_us = 0;
  /// Steady-state rebalance tick period. 0 (default) = adaptivity off:
  /// thread allocations are frozen at admission, exactly the old
  /// behavior. When > 0, a background tick recomputes the fair share from
  /// the *live* query population and reallocates pooled workers between
  /// running queries: under pressure (admission waiters / blocked
  /// reservations) over-provisioned executions park surplus workers down
  /// to their fair share; with idle capacity and no pressure, clamped
  /// executions are granted extra workers up to their unclamped schedule
  /// width. 500–5000 us works well for mixed short+long workloads.
  uint64_t rebalance_interval_us = 0;
};

/// The outcome of one scheduled-and-executed plan phase.
struct PhaseOutcome {
  ExecutionResult execution;
  ScheduleReport schedule;
};

/// Execution context handed to a running query body. Each phase the body
/// runs goes through Run(), which hands it to the runtime's phase runner
/// (QueryRuntime::RunPhase) with the query's cancel token and quota, then
/// folds the phase into the query's stats. A fired token surfaces as a
/// Cancelled/DeadlineExceeded error so multi-phase bodies abort their
/// remaining phases naturally.
class QueryEnv {
 public:
  /// Schedules (with the default CostModel) and executes one plan phase.
  /// On cancellation/deadline the partial work is folded into the query's
  /// stats and the token's status is returned as the error.
  Result<PhaseOutcome> Run(Plan& plan, const ScheduleOptions& schedule);

  const CancelToken& cancel() const { return cancel_; }

  /// Convenience for bodies doing non-engine work between phases.
  Status CheckCancelled() const { return cancel_.ToStatus(); }

  /// The query's memory quota, sized from QuerySpec::memory_units (0 =
  /// unlimited, tracking only). Every phase run through this env charges
  /// retained operator state here; bodies may consult used()/high_water().
  MemoryQuota& quota() { return quota_; }

 private:
  friend class QueryRuntime;

  QueryEnv(QueryRuntime* runtime, CancelToken cancel, uint64_t memory_units,
           std::function<void(const QueryRunStats&)> publish)
      : runtime_(runtime),
        cancel_(std::move(cancel)),
        quota_(memory_units),
        publish_(std::move(publish)) {}

  QueryRuntime* runtime_;
  CancelToken cancel_;
  /// Outlives every phase's plan (phases are built, run and destroyed
  /// inside the body, which borrows this env) — the ExecOptions::quota
  /// lifetime contract.
  MemoryQuota quota_;
  /// Pushes the running stats into the query's handle after every phase.
  std::function<void(const QueryRunStats&)> publish_;
  QueryRunStats stats_;
};

/// What a query body is: it builds and runs plan phases through the env
/// and packages the final QueryResult. Returning an error (including the
/// env's cancellation error) completes the handle with that status.
using QueryBody = std::function<Result<QueryResult>(QueryEnv&)>;

/// One query submission.
struct QuerySpec {
  QueryBody body;
  /// Higher-priority queries leave the admission queue first.
  int priority = 0;
  /// Declared working-set tuple units, charged against the runtime's
  /// memory budget while the query runs. 0 = free.
  uint64_t memory_units = 0;
  /// Declared thread share (typically the schedule's total_threads), the
  /// CPU half of joint admission: the controller may admit a deliverable
  /// narrow query past an equal-priority wide one that would only block
  /// in thread reservation. 0 = unknown (always CPU-fit). Advisory — it
  /// never changes what the query is allowed to reserve, only when it
  /// leaves the queue.
  size_t threads_hint = 0;
  /// Absolute deadline; expiry (even while queued) completes the query
  /// with DeadlineExceeded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// External cancel token to share; default = a fresh token (cancel via
  /// the returned handle).
  std::optional<CancelToken> cancel;
  /// Shared-work payload: the plan of a scan-only query, which runs as a
  /// one-node shared scan, alone or folded by the admission controller into
  /// a batch with other queued queries of the same share_class. With
  /// `shared` set the body never runs: the ESQL planner gives every
  /// scan-only query `shared` and no body, and every other query a body
  /// and no `shared`.
  std::shared_ptr<const SharedScanSpec> shared;
};

/// The concurrent query runtime: one engine-wide WorkerPool all queries
/// draw from, an admission controller bounding the number of in-flight and
/// waiting queries, and driver threads that run admitted query bodies.
/// Owned by dbs3::Database; Submit is thread-safe from any number of
/// client sessions.
class QueryRuntime {
 public:
  explicit QueryRuntime(QueryRuntimeOptions options = {});

  /// Completes the waiting queue with Cancelled, waits for running
  /// queries, then tears the pool down.
  ~QueryRuntime();

  QueryRuntime(const QueryRuntime&) = delete;
  QueryRuntime& operator=(const QueryRuntime&) = delete;

  /// Queues `spec` and returns immediately. Sheds (handle completes with
  /// ResourceExhausted) when the waiting room is full.
  QueryHandle Submit(QuerySpec spec);

  /// Query bodies currently executing (the scheduler-feedback signal).
  size_t live_queries() const { return live_.load(); }

 private:
  friend class QueryEnv;

  void DriverLoop();
  void Complete(const std::shared_ptr<QueryHandle::State>& state,
                Result<QueryResult> outcome, const QueryRunStats& stats);

  /// Executes one shared-scan batch of the live `members` (one or more,
  /// popped together at `popped_at`): runs one shared-scan node over their
  /// specs through RunPhase on their behalf and completes every member's
  /// handle from its result. A batch of one is no shared batch in its stats
  /// or the metrics.
  void RunSharedBatch(const std::vector<PendingQuery*>& members,
                      std::chrono::steady_clock::time_point popped_at,
                      double window_wait_seconds);

  /// The one phase runner, for a solo query phase and a shared batch
  /// alike: scales `schedule` by the live multiprogramming level
  /// [Rahm93], schedules `plan`, reserves its whole thread count on the
  /// pool (private threads when the plan is wider than the pool),
  /// registers on the load board when adaptive, runs the executor and
  /// settles the reservation on every path. The caller's `exec` carries
  /// the engine token and quota; `exec->workers` reads back non-null when
  /// the phase ran on the pool, and `*rebalance` receives the board's
  /// grants and parks, also when the run fails. The slot wait gives up,
  /// with the first waiter's status, only once every token in `waiters`
  /// has fired.
  Result<PhaseOutcome> RunPhase(Plan& plan, const ScheduleOptions& schedule,
                                std::span<const CancelToken> waiters,
                                ExecOptions* exec, RebalanceTotals* rebalance);

  /// Blocks until `slots` worker threads are free on the shared pool and
  /// charges them. False when every token in `waiters` has fired first or
  /// `slots` exceeds the pool. Reservations are whole-plan and
  /// all-or-nothing, so every dispatched (possibly blocking) worker loop is
  /// backed by a real thread — the no-deadlock invariant of running plans
  /// on a shared pool.
  bool ReserveWorkers(size_t slots, std::span<const CancelToken> waiters)
      EXCLUDES(slots_mu_);
  void ReleaseWorkers(size_t slots) EXCLUDES(slots_mu_);

  /// Non-blocking single-slot reservation for rebalancer grants. Refuses
  /// when any whole-plan reservation is waiting (slot_waiters_): freed
  /// capacity must serve blocked admissions before growing running
  /// queries, or a wide waiter could starve behind a stream of grants.
  bool TryReserveOneWorker() EXCLUDES(slots_mu_);

  /// The steady-state tick (rebalance_interval_us > 0 only): reads pool
  /// pressure/idle capacity, lets the board plan+apply park/grant moves,
  /// and refreshes the pool gauges.
  void RebalanceTick() EXCLUDES(slots_mu_);
  void RebalanceLoop();

  QueryRuntimeOptions options_;
  WorkerPool pool_;
  ChunkPool chunk_pool_;  // Recycles every QueryEnv execution's buffers.
  AdmissionController admission_;
  PoolLoadBoard board_;
  std::atomic<size_t> live_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> shutdown_{false};

  Mutex slots_mu_{"QueryRuntime::slots_mu"};
  CondVar slots_cv_;
  size_t free_slots_ GUARDED_BY(slots_mu_);
  /// Whole-plan reservations currently blocked in ReserveWorkers — the
  /// rebalancer's pressure signal, and TryReserveOneWorker's yield guard.
  std::atomic<size_t> slot_waiters_{0};

  /// Steady-state rebalancer (only spawned when rebalance_interval_us > 0).
  Mutex rebalance_mu_{"QueryRuntime::rebalance_mu"};
  CondVar rebalance_cv_;
  bool rebalance_stop_ GUARDED_BY(rebalance_mu_) = false;
  std::thread rebalancer_;

  /// The runtime's metrics in `options.metrics`, resolved once so that no
  /// query looks a metric up by name. Null when `options.metrics` is.
  struct RuntimeMetrics {
    explicit RuntimeMetrics(MetricsRegistry& registry);
    MetricCounter* submitted;
    MetricCounter* shed;
    MetricCounter* completed;
    MetricCounter* cancelled;
    MetricCounter* deadline_exceeded;
    MetricCounter* threads_granted;
    MetricCounter* threads_released;
    MetricCounter* shared_batches;
    MetricCounter* tuple_units;
    MetricCounter* units_cancelled;
    MetricSummary* admission_wait_us;
    MetricSummary* execution_wall_us;
    MetricSummary* busy_us;
    MetricSummary* quota_high_water_units;
    MetricSummary* queries_per_batch;
    MetricSummary* batch_window_wait_us;
    MetricGauge* pool_idle_threads;
  };
  const std::unique_ptr<const RuntimeMetrics> metrics_;

  std::vector<std::thread> drivers_;
};

}  // namespace dbs3

#endif  // DBS3_SERVER_QUERY_RUNTIME_H_

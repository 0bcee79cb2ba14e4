#ifndef DBS3_SERVER_QUERY_HANDLE_H_
#define DBS3_SERVER_QUERY_HANDLE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "engine/cancel.h"
#include "engine/executor.h"
#include "sched/scheduler.h"
#include "storage/relation.h"

namespace dbs3 {

/// Result of one query execution (materialized relation plus what the
/// scheduler and engine did to produce it).
struct QueryResult {
  /// The materialized result, partitioned like the final operator.
  std::unique_ptr<Relation> result;
  /// Engine timing and per-operation load-balance statistics of the final
  /// (result-producing) phase.
  ExecutionResult execution;
  /// What the scheduler decided for the final phase (threads, strategies,
  /// estimates).
  ScheduleReport schedule;
  /// Free-form description of how the query ran (e.g. the ESQL planner's
  /// physical plan rendering). Empty for plain plan queries.
  std::string detail;
  /// Executions of intermediate phases (ESQL repartition materializations)
  /// in run order; empty for single-phase queries.
  std::vector<ExecutionResult> phases;
};

/// Per-query latency/work breakdown maintained by the runtime. Available
/// (partially) while the query runs and fully once it completes — also for
/// cancelled queries, which report the work done up to the cancel.
struct QueryRunStats {
  /// Seconds between Submit and the driver picking the query up.
  double admission_wait_seconds = 0.0;
  /// Engine wall seconds, summed over the executed phases.
  double execution_seconds = 0.0;
  /// True processing seconds (activation spans), summed over phases.
  double busy_seconds = 0.0;
  /// Tuple units processed / drained-as-cancelled, summed over phases.
  uint64_t units_processed = 0;
  uint64_t units_cancelled = 0;
  /// Phases executed (including the one a cancel interrupted).
  size_t phases = 0;
  /// True when at least one phase ran on the shared worker pool (false =
  /// every phase fell back to private threads).
  bool used_shared_pool = false;
  /// Peak tuple units charged against the query's memory quota across all
  /// phases: every join build and group-by state, budgeted or not (0 when
  /// the query retained no state).
  uint64_t quota_high_water_units = 0;
  /// Queries that rode the same shared-scan batch as this one, including
  /// this one. 0 = it shared nothing: it ran alone, a batch of one
  /// included.
  size_t shared_batch_queries = 0;
  /// Seconds the batch's lead driver held the admission window open before
  /// execution started, a batch of one included (0 for queries with a
  /// body and zero-window batches).
  double batch_window_wait_seconds = 0.0;
  /// Steady-state rebalancer activity on this query, summed over phases
  /// (both 0 with rebalance_interval_us = 0): extra pool workers granted
  /// into its executions mid-query, and workers it released early (parked
  /// at an activation boundary so their threads could serve other work).
  uint64_t threads_granted = 0;
  uint64_t threads_released = 0;
};

/// Future-like handle to a submitted query: wait for the outcome, cancel
/// it, observe its stats. Copyable — all copies view the same query.
class QueryHandle {
 public:
  QueryHandle() = default;

  /// Monotonic id assigned at Submit (0 for a default-constructed handle).
  uint64_t id() const;

  /// Requests cooperative cancellation. Idempotent; safe from any thread.
  /// A query already completed is unaffected (Take still returns its
  /// result — cancel-after-completion is a no-op).
  void Cancel() const;

  /// The query's cancel token (shared with the execution).
  const CancelToken& cancel_token() const;

  bool done() const;

  /// Blocks until the query completes.
  void Wait() const;

  /// Blocks up to `timeout`; true when the query completed.
  bool WaitFor(std::chrono::nanoseconds timeout) const;

  /// Blocks until completion and moves the outcome out. One-shot: a second
  /// Take returns FailedPrecondition. Sheds, cancels and deadline expiries
  /// surface here as ResourceExhausted / Cancelled / DeadlineExceeded.
  Result<QueryResult> Take();

  /// Snapshot of the latency/work breakdown (complete once done()).
  QueryRunStats stats() const;

 private:
  friend class QueryRuntime;

  struct State {
    Mutex mu{"QueryHandle::mu"};
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    bool taken GUARDED_BY(mu) = false;
    std::optional<Result<QueryResult>> outcome GUARDED_BY(mu);
    QueryRunStats stats GUARDED_BY(mu);
    CancelToken cancel;
    /// Invoked (under mu) by Cancel after firing the token; the runtime
    /// installs a hook that pokes the admission queue and slot waiters so a
    /// cancelled queued query is handed out promptly. Cleared by the
    /// runtime's Complete, so the hook never outlives the runtime.
    std::function<void()> cancel_notify GUARDED_BY(mu);
    uint64_t id = 0;
  };

  explicit QueryHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace dbs3

#endif  // DBS3_SERVER_QUERY_HANDLE_H_

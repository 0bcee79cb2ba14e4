#ifndef DBS3_ENGINE_EXECUTOR_H_
#define DBS3_ENGINE_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/memory_quota.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/trace.h"
#include "engine/cancel.h"
#include "engine/chunk_pool.h"
#include "engine/operation.h"
#include "engine/plan.h"
#include "engine/rebalance.h"
#include "engine/thread_source.h"

namespace dbs3 {

/// How a plan execution runs: on private per-operation threads (default)
/// or on a shared ThreadSource, and under which cancel token.
struct ExecOptions {
  /// When set, every operation's workers run on this source instead of
  /// spawning private threads. The caller must reserve at least the plan's
  /// total thread count on the source (see ThreadSource::Dispatch); the
  /// server's admission controller does so before submitting.
  ThreadSource* workers = nullptr;
  /// Cooperative cancellation/deadline for the whole execution. Once it
  /// fires, remaining queued units drain into the per-operation
  /// `cancelled_units` bucket, OnFinish hooks are skipped, and the result's
  /// `completion` reports Cancelled or DeadlineExceeded (its spill.*
  /// counters still report the IO done before the stop).
  CancelToken cancel = CancelToken::None();
  /// When set, chunk buffers recycle through this pool instead of a
  /// per-execution one, carrying the warmed-up free list across executions
  /// (the server's QueryRuntime passes its own). The pool must outlive the
  /// call; the result's `chunk_pool` stats then report this execution's
  /// delta (approximate when executions share the pool concurrently).
  ChunkPool* chunk_pool = nullptr;
  /// When set, memory-aware operators (hash joins, group-by, sort)
  /// charge their retained tuple/group state here and spill or error when a
  /// charge fails — the enforcement half of the admission controller's
  /// declared `memory_units`. Must outlive the plan's logics (their
  /// destructors release charges a cancelled run leaves behind). nullptr =
  /// no accounting: every operator stays on its unbounded in-memory path.
  MemoryQuota* quota = nullptr;
  /// When set (pool-backed runs only), the execution registers on this
  /// board for steady-state rebalancing: the server may park surplus
  /// workers mid-run (their pool slots are credited back per exit through
  /// the board) or grant extra workers into the hottest operation. The
  /// board must outlive the call. Null = static allocation (default).
  ExecutionBoard* board = nullptr;
  /// The unclamped thread count the schedule wanted before any utilization
  /// clamp (the grant headroom the rebalancer may restore). 0 or less than
  /// the reserved count = no headroom beyond the reservation.
  size_t desired_threads = 0;
  /// When set, receives what the rebalancer did to this execution — written
  /// even when Run returns an error after the workers joined, so the caller
  /// can settle pool-slot accounting on every path.
  RebalanceTotals* rebalance_out = nullptr;
};

/// Outcome of one plan execution on the real multithreaded engine.
struct ExecutionResult {
  /// Wall-clock seconds from thread-pool start to the exit of the last
  /// worker (includes start-up time, one of the paper's three barriers).
  double seconds = 0.0;
  /// Per-operation statistics, in plan node order.
  std::vector<OperationStats> op_stats;
  /// Tuple units dropped on closed queues, summed over all operations.
  /// Always 0 for a completed well-formed plan; surfaced so data loss is
  /// never silent.
  uint64_t units_dropped = 0;
  /// Tuple units drained into the cancelled bucket across all operations
  /// (0 unless the execution's cancel token fired).
  uint64_t units_cancelled = 0;
  /// OK for a run that completed normally; Cancelled or DeadlineExceeded
  /// when the cancel token fired. The execution still drained cleanly
  /// either way — results are merely partial or withheld.
  Status completion = Status::OK();
  /// Per-execution metric snapshot: the non-zero spill.* counters of the
  /// run (bytes_written, bytes_read, partitions, recursions,
  /// groupby_flushes) plus, when tracing was enabled, each operation's
  /// sampled op.<name>.queued_units series. Per-operation counts live in
  /// `op_stats`, chunk recycling in `chunk_pool`.
  MetricsSnapshot metrics;
  /// Chrome trace_event JSON of every activation span
  /// (chrome://tracing-loadable). Empty unless the plan's TraceOptions
  /// enabled tracing.
  std::string trace_json;
  /// The execution's chunk-recycling counters: in an allocation-lean steady
  /// state `chunk_pool.reused` dominates `chunk_pool.allocated` (each
  /// emitter buffer is allocated at most once and then cycles through
  /// producer -> consumer queue -> pool -> producer).
  ChunkPool::Stats chunk_pool;
};

/// Runs a Plan with real threads on the host machine.
///
/// Execution follows Section 3: every operation gets its own pool of
/// threads; triggered operations receive one control activation per
/// instance; pipelined operations consume data activations pushed by their
/// producers; an operation completes when all its producers have completed
/// and its queues have drained.
class Executor {
 public:
  Executor() = default;

  /// Executes `plan` to completion. The plan's relations are read and (for
  /// Store nodes) written. Returns timing and per-operation stats.
  Result<ExecutionResult> Run(Plan& plan);

  /// As Run(plan), on shared workers and/or under a cancel token. A
  /// cancelled execution is not an error at this layer: the result carries
  /// a non-OK `completion` plus the partial stats gathered so far.
  Result<ExecutionResult> Run(Plan& plan, const ExecOptions& options);
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_EXECUTOR_H_

#ifndef DBS3_SCHED_SCHEDULER_H_
#define DBS3_SCHED_SCHEDULER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "engine/cost_model.h"
#include "engine/plan.h"

namespace dbs3 {

/// Inputs to the 4-step thread allocation of Section 3.
struct ScheduleOptions {
  /// Fixed total thread count for the query. 0 = derive from the query's
  /// complexity (step 1): the Wilschut optimum n* = sqrt(W / startup_cost)
  /// of response(n) = startup_cost * n + W / n.
  size_t total_threads = 0;
  /// Processor count; the derived thread count never exceeds it (there is
  /// no benefit in allocating more threads than processors for a simple
  /// query, Section 5.5).
  size_t processors = 1;
  /// Sequential start-up work per thread, in CostModel units (step 1).
  double startup_cost = 50'000.0;
  /// Multi-user reduction factor in (0, 1]: scales the thread count down to
  /// raise throughput under concurrent load [Rahm93].
  double utilization = 1.0;
  /// Internal activation cache size given to every operation (consumer-side
  /// batching).
  size_t cache_size = 8;
  /// Tuples per emitted data activation (producer-side batching) given to
  /// every operation. Default 1 = the paper-faithful per-tuple mode; the
  /// figure benchmarks rely on it. Raise for throughput workloads.
  size_t chunk_size = 1;
  /// Per-queue capacity in tuple units (0 = unbounded).
  size_t queue_capacity = 0;
  /// Overrides step 4 for every node when set.
  std::optional<Strategy> force_strategy;
  /// Observability: activation tracing + queue-depth sampling for this
  /// query's execution (off by default; see common/trace.h).
  TraceOptions trace;
};

/// What the scheduler decided, for inspection and tests.
struct ScheduleReport {
  size_t total_threads = 0;
  double total_work = 0.0;
  /// Per plan node, index-aligned with the plan.
  std::vector<NodeEstimate> estimates;
  std::vector<size_t> threads;
  std::vector<Strategy> strategies;

  std::string ToString() const;
};

/// The [Rahm93] multi-user reduction as a feedback function: the
/// utilization factor for one of `live_queries` queries executing
/// concurrently. 1.0 for a single-user system; under load each query's
/// thread allocation shrinks with the live degree of multiprogramming so
/// aggregate thread pressure stays near the single-user level (throughput
/// over response time). The server's QueryRuntime feeds its live-query
/// count through this before every phase schedule.
double MultiUserUtilization(size_t live_queries);

/// Applies a utilization factor to `options` whether the caller fixed the
/// thread count or left it derived: a fixed total_threads is scaled
/// directly (the step-1 utilization input only affects derived counts),
/// a derived one compounds the factor into options.utilization.
ScheduleOptions ApplyUtilization(ScheduleOptions options, double factor);

/// Runs steps 1-4 of Section 3 on `plan`: estimates every node's complexity
/// (propagating cardinalities along pipeline edges), chooses the total
/// thread count, splits it over the plan's operators proportionally to
/// complexity, caps each operator's threads by its degree of partitioning
/// (the paper's invariant: partitioning degree >= parallelism degree),
/// picks each operator's consumption strategy, and writes the results into
/// plan.params().
Result<ScheduleReport> ScheduleQuery(Plan& plan, const CostModel& cost_model,
                                     const ScheduleOptions& options);

}  // namespace dbs3

#endif  // DBS3_SCHED_SCHEDULER_H_

#ifndef DBS3_DBS3_QUERY_H_
#define DBS3_DBS3_QUERY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "dbs3/database.h"
#include "engine/cancel.h"
#include "engine/executor.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "sched/scheduler.h"
#include "server/query_handle.h"

namespace dbs3 {

/// Knobs for running one query on the real engine. Every query runs through
/// the database's shared QueryRuntime (admission control, shared worker
/// pool); code that wants private threads schedules a Plan and calls
/// Executor::Run itself.
struct QueryOptions {
  /// Thread allocation inputs (Section 3 steps 1-4).
  ScheduleOptions schedule;
  /// Operator complexity constants for the scheduler.
  CostModel cost_model;
  /// Join algorithm for join queries.
  JoinAlgorithm algorithm = JoinAlgorithm::kHash;
  /// Name given to the materialized result relation.
  std::string result_name = "Res";

  /// Multi-user knobs, forwarded to the runtime's QuerySpec (see
  /// MakeQuerySpec). Higher-priority queries leave the admission queue
  /// first.
  int priority = 0;
  /// Declared working-set tuple units: charged against the runtime's
  /// memory budget at admission, and enforced while the query runs — every
  /// join charges its build side against this bound and spills when a
  /// charge is refused. 0 = unlimited (still tracked: the query's
  /// quota_high_water_units reports its working set).
  uint64_t memory_units = 0;
  /// Absolute deadline; expiry (even while queued) fails the query with
  /// DeadlineExceeded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// External cancel token; default = fresh (cancel via the handle).
  std::optional<CancelToken> cancel;
};

/// The runtime submission of `body` under `options`: priority, declared
/// memory, declared thread share (schedule.total_threads, the CPU half of
/// joint admission), deadline and cancel token. Every facade and ESQL
/// entry point submits through it, so admission sees the same declaration
/// however a query arrives.
QuerySpec MakeQuerySpec(const QueryOptions& options, QueryBody body);

/// QueryResult (materialized relation + ExecutionResult + ScheduleReport)
/// lives in server/query_handle.h so the async API can return it through
/// QueryHandle; the synchronous RunXxx functions below (each SubmitXxx +
/// Take) return the same type.

/// Runs the IdealJoin plan (Figure 10): `outer` and `inner` must be
/// co-partitioned on the join columns; join instance i joins fragment i
/// with fragment i and materializes into result fragment i.
Result<QueryResult> RunIdealJoin(Database& db, const std::string& outer,
                                 const std::string& outer_column,
                                 const std::string& inner,
                                 const std::string& inner_column,
                                 const QueryOptions& options);

/// Runs the AssocJoin plan (Figure 11): `probe_rel` is redistributed on its
/// join column by a Transmit and pipelined into a join against `inner`
/// (which must be partitioned on its join column). When `probe_rel` has at
/// least as many rows as `inner`, the transmit tests each row against a
/// filter over `inner`'s join keys and ships only rows that may match.
Result<QueryResult> RunAssocJoin(Database& db, const std::string& probe_rel,
                                 const std::string& probe_column,
                                 const std::string& inner,
                                 const std::string& inner_column,
                                 const QueryOptions& options);

/// Runs the filter-join pipeline of Figure 1: filter `filtered` with
/// `predicate` (estimated `selectivity`), repartition the survivors on the
/// join column, join against `inner`, materialize. Under RunAssocJoin's
/// rule the filter also tests the join column against `inner`'s keys.
Result<QueryResult> RunFilterJoin(Database& db, const std::string& filtered,
                                  Predicate predicate,
                                  double selectivity,
                                  const std::string& filter_join_column,
                                  const std::string& inner,
                                  const std::string& inner_column,
                                  const QueryOptions& options);

/// Runs a parallel selection: filter + materialize.
Result<QueryResult> RunSelect(Database& db, const std::string& input,
                              Predicate predicate, double selectivity,
                              const QueryOptions& options);

/// Async variants: queue the query on the database's shared runtime and
/// return immediately with a handle (wait / cancel / stats / Take). The
/// RunXxx functions above are Submit + Take.
QueryHandle SubmitIdealJoin(Database& db, const std::string& outer,
                            const std::string& outer_column,
                            const std::string& inner,
                            const std::string& inner_column,
                            const QueryOptions& options);

QueryHandle SubmitAssocJoin(Database& db, const std::string& probe_rel,
                            const std::string& probe_column,
                            const std::string& inner,
                            const std::string& inner_column,
                            const QueryOptions& options);

QueryHandle SubmitFilterJoin(Database& db, const std::string& filtered,
                             Predicate predicate, double selectivity,
                             const std::string& filter_join_column,
                             const std::string& inner,
                             const std::string& inner_column,
                             const QueryOptions& options);

QueryHandle SubmitSelect(Database& db, const std::string& input,
                         Predicate predicate, double selectivity,
                         const QueryOptions& options);

}  // namespace dbs3

#endif  // DBS3_DBS3_QUERY_H_

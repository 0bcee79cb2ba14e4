#ifndef DBS3_ESQL_PLANNER_H_
#define DBS3_ESQL_PLANNER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/executor.h"
#include "esql/ast.h"
#include "sched/scheduler.h"
#include "server/query_handle.h"

namespace dbs3 {

/// Execution knobs of the ESQL layer: the facade's QueryOptions (schedule,
/// cost model, join algorithm, the multi-user knobs — see dbs3/query.h)
/// plus work sharing. The result relation defaults to "esql_result".
/// There is no switch between row and batch evaluation: each WHERE
/// conjunct becomes one predicate leaf, and the operators pick the batch
/// kernels or the row loop from the size of the span they filter.
struct EsqlOptions : QueryOptions {
  EsqlOptions() { result_name = "esql_result"; }

  /// Allow the runtime to fold this query into a multi-query shared scan
  /// with compatible queries (same relation, same projection shape,
  /// scan-only, no declared memory). One relation pass then serves the
  /// whole batch; per-query results are identical to solo execution. The
  /// batch forms only when compatible queries are simultaneously queued
  /// (see QueryRuntimeOptions::shared_batch_window_us to also wait for
  /// stragglers).
  bool share_work = true;
};

/// Outcome of one ESQL query.
struct EsqlResult {
  /// The materialized result.
  std::unique_ptr<Relation> result;
  /// Execution stats of the final plan phase.
  ExecutionResult execution;
  /// Scheduling decisions of the final plan phase.
  ScheduleReport schedule;
  /// Human-readable physical strategy, e.g. "IdealJoin" or
  /// "repartition(B) ; AssocJoin(probe=A)".
  std::string physical_plan;
  /// Number of pipeline chains executed (materialization boundaries + 1).
  size_t phases = 1;
};

/// Compiles and executes `query` against `db`.
///
/// Physical planning follows the paper's repertoire: a join between
/// co-partitioned relations becomes an IdealJoin (Figure 10); a join where
/// one side is partitioned on its join attribute becomes an AssocJoin
/// probing with the other side (Figure 11); otherwise one side is first
/// repartitioned into a materialized temporary (a subquery boundary,
/// Figure 5) and an AssocJoin follows. WHERE conjuncts are pushed into the
/// probe-side scan where possible; GROUP BY repartitions on the grouping
/// attribute; ORDER BY sorts each result fragment.
Result<EsqlResult> ExecuteEsql(Database& db, const std::string& query,
                               const EsqlOptions& options = {});

/// Same, over an already-parsed query.
Result<EsqlResult> ExecuteEsql(Database& db, const EsqlQuery& query,
                               const EsqlOptions& options = {});

/// Async variant: queues the query on the database's shared runtime and
/// returns a handle immediately. Parse errors, like planning errors,
/// surface through the handle. The QueryResult's `detail` carries the
/// physical-plan rendering and `phases` the intermediate (repartition)
/// executions. ExecuteEsql above is Submit + Take.
QueryHandle SubmitEsql(Database& db, const std::string& query,
                       const EsqlOptions& options = {});

/// Same, over an already-parsed query.
QueryHandle SubmitEsql(Database& db, const EsqlQuery& query,
                       const EsqlOptions& options = {});

}  // namespace dbs3

#endif  // DBS3_ESQL_PLANNER_H_

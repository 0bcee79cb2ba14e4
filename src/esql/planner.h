#ifndef DBS3_ESQL_PLANNER_H_
#define DBS3_ESQL_PLANNER_H_

#include <string>

#include "common/result.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "esql/ast.h"
#include "server/query_handle.h"

namespace dbs3 {

/// Execution knobs of the ESQL layer: the facade's QueryOptions (schedule,
/// join algorithm, the multi-user knobs — see dbs3/query.h).
/// The result relation defaults to "esql_result". There is no switch
/// between row and batch evaluation: each WHERE conjunct becomes one
/// predicate leaf, and the operators pick the batch kernels or the row
/// loop from the size of the span they filter.
///
/// A scan-only query (no join, aggregate, GROUP BY or ORDER BY) is planned
/// once, at submit, as a one-node shared scan; its declared memory only
/// reserves admission budget. Alone it is a batch of one; compatible
/// queries (same relation, same projection shape) queued at the same time
/// fold into one batch, where one relation pass serves every member and
/// each member's rows are what it would store alone. QueryRuntimeOptions
/// decides how many fold (shared_batch_max_queries, 1 = never) and how
/// long a lead waits for stragglers (shared_batch_window_us).
struct EsqlOptions : QueryOptions {
  EsqlOptions() { result_name = "esql_result"; }
};

/// Compiles and executes `query` against `db`: SubmitEsql + Take. The
/// QueryResult carries the final phase's result, execution and schedule;
/// `detail` renders the physical strategy (e.g. "IdealJoin(A, B) ; store",
/// or "shared-scan(A)[1 queries]" for a scan-only query that ran alone),
/// and `phases` holds the executions of the repartition phases before it,
/// so the query ran `phases.size() + 1` pipeline chains.
///
/// Physical planning follows the paper's repertoire: a join between
/// co-partitioned relations becomes an IdealJoin (Figure 10); a join where
/// one side is partitioned on its join attribute becomes an AssocJoin
/// probing with the other side (Figure 11); otherwise one side is first
/// repartitioned into a materialized temporary (a subquery boundary,
/// Figure 5) and an AssocJoin follows. Every column reference resolves
/// against the FROM relations' columns, each under its relation's name
/// (an unknown or ambiguous column fails before any phase runs), and join
/// clause j must name relation j + 1 on exactly one side. Each WHERE
/// conjunct runs in the scan of the FROM relation its column resolves
/// into; GROUP BY repartitions on the grouping attribute; ORDER BY sorts
/// each result fragment. `SELECT *` lists the FROM relations' columns in
/// FROM order, also where the join probes with the second relation.
Result<QueryResult> ExecuteEsql(Database& db, const std::string& query,
                                const EsqlOptions& options = {});

/// Same, over an already-parsed query.
Result<QueryResult> ExecuteEsql(Database& db, const EsqlQuery& query,
                                const EsqlOptions& options = {});

/// Async variant: queues the query on the database's shared runtime and
/// returns a handle immediately. Parse errors, like planning errors,
/// surface through the handle.
QueryHandle SubmitEsql(Database& db, const std::string& query,
                       const EsqlOptions& options = {});

/// Same, over an already-parsed query.
QueryHandle SubmitEsql(Database& db, const EsqlQuery& query,
                       const EsqlOptions& options = {});

}  // namespace dbs3

#endif  // DBS3_ESQL_PLANNER_H_

#include "dbs3/query.h"

#include <functional>
#include <utility>

#include "engine/vector/key_filter.h"
#include "server/query_runtime.h"

namespace dbs3 {

namespace {

/// A built-but-not-yet-executed query: the dataflow graph plus the
/// relation its store node materializes into.
struct PlannedQuery {
  Plan plan;
  std::unique_ptr<Relation> result;
};

/// Deferred plan construction, run on the driver thread so catalog errors
/// surface through the handle.
using QueryPlanner = std::function<Result<PlannedQuery>()>;

/// Wraps the planner in a query body and submits it to the runtime.
QueryHandle SubmitPlanned(Database& db, QueryPlanner planner,
                          const QueryOptions& options) {
  return db.Submit(MakeQuerySpec(
      options,
      [planner = std::move(planner),
       schedule = options.schedule](QueryEnv& env) -> Result<QueryResult> {
        DBS3_ASSIGN_OR_RETURN(PlannedQuery planned, planner());
        DBS3_ASSIGN_OR_RETURN(PhaseOutcome phase,
                              env.Run(planned.plan, schedule));
        QueryResult out;
        out.result = std::move(planned.result);
        out.execution = std::move(phase.execution);
        out.schedule = std::move(phase.schedule);
        return out;
      }));
}

Result<size_t> ColumnOf(const Relation* rel, const std::string& column) {
  return rel->schema().IndexOf(column);
}

Result<PlannedQuery> PlanIdealJoin(Database& db, const std::string& outer,
                                   const std::string& outer_column,
                                   const std::string& inner,
                                   const std::string& inner_column,
                                   const QueryOptions& options) {
  DBS3_ASSIGN_OR_RETURN(Relation * outer_rel, db.relation(outer));
  DBS3_ASSIGN_OR_RETURN(Relation * inner_rel, db.relation(inner));
  DBS3_ASSIGN_OR_RETURN(const size_t outer_col,
                        ColumnOf(outer_rel, outer_column));
  DBS3_ASSIGN_OR_RETURN(const size_t inner_col,
                        ColumnOf(inner_rel, inner_column));
  // Instance i joins fragment i with fragment i: sound only when equal
  // partitioners place both operands on their join columns.
  if (outer_rel->partitioner() != inner_rel->partitioner() ||
      outer_rel->partition_column() != outer_col ||
      inner_rel->partition_column() != inner_col) {
    return Status::FailedPrecondition(
        "IdealJoin needs operands partitioned alike on the join columns: '" +
        outer + "' is " + outer_rel->partitioner().ToString() +
        " on column " + std::to_string(outer_rel->partition_column()) +
        ", '" + inner + "' is " + inner_rel->partitioner().ToString() +
        " on column " + std::to_string(inner_rel->partition_column()));
  }
  const size_t degree = outer_rel->degree();
  PlannedQuery planned;
  planned.result = std::make_unique<Relation>(
      options.result_name, Schema::Concat(outer_rel->schema(),
                                          inner_rel->schema()),
      outer_col, Partitioner(outer_rel->partitioner().kind(), degree));

  const size_t join = planned.plan.AddNode(
      "join", ActivationMode::kTriggered, degree,
      std::make_unique<TriggeredJoinLogic>(outer_rel, outer_col, inner_rel,
                                           inner_col, options.algorithm));
  const size_t store = planned.plan.AddNode(
      "store", ActivationMode::kPipelined, degree,
      std::make_unique<StoreLogic>(planned.result.get()));
  DBS3_RETURN_IF_ERROR(planned.plan.ConnectSameInstance(join, store));
  return planned;
}

/// The probe-side join AssocJoin and FilterJoin share: a triggered scan of
/// `probe_rel` through `predicate` (node `scan_name`), repartitioned on the
/// probe column into a pipelined join against `inner`, then stored.
/// AssocJoin is the paper's `transmit`: MatchAll() at selectivity 1.
Result<PlannedQuery> PlanProbeJoin(Database& db, const std::string& scan_name,
                                   const std::string& probe_rel,
                                   Predicate predicate, double selectivity,
                                   const std::string& probe_column,
                                   const std::string& inner,
                                   const std::string& inner_column,
                                   const QueryOptions& options) {
  DBS3_ASSIGN_OR_RETURN(Relation * probe, db.relation(probe_rel));
  DBS3_ASSIGN_OR_RETURN(Relation * inner_rel, db.relation(inner));
  DBS3_ASSIGN_OR_RETURN(const size_t probe_col,
                        ColumnOf(probe, probe_column));
  DBS3_ASSIGN_OR_RETURN(const size_t inner_col,
                        ColumnOf(inner_rel, inner_column));
  if (inner_rel->partition_column() != inner_col) {
    return Status::FailedPrecondition(
        "AssocJoin needs '" + inner + "' partitioned on '" + inner_column +
        "' (it is partitioned on column " +
        std::to_string(inner_rel->partition_column()) + ")");
  }
  // When the probe has at least as many rows as the inner, the scan also
  // tests a filter over the inner's join keys, so rows without a partner
  // never reach the join. And() drops a MatchAll() operand, so a plain
  // transmit scans through the key filter alone.
  if (std::optional<PredExpr> key_filter =
          ProbeKeyFilter(*probe, probe_col, *inner_rel, inner_col)) {
    predicate = PredExpr::And({std::move(predicate), std::move(*key_filter)});
  }
  const size_t degree = inner_rel->degree();
  PlannedQuery planned;
  planned.result = std::make_unique<Relation>(
      options.result_name,
      Schema::Concat(probe->schema(), inner_rel->schema()), probe_col,
      Partitioner(inner_rel->partitioner().kind(), degree));

  const size_t scan = planned.plan.AddNode(
      scan_name, ActivationMode::kTriggered, probe->degree(),
      std::make_unique<FilterLogic>(probe, std::move(predicate),
                                    selectivity));
  const size_t join = planned.plan.AddNode(
      "join", ActivationMode::kPipelined, degree,
      std::make_unique<PipelinedJoinLogic>(inner_rel, inner_col, probe_col,
                                           options.algorithm));
  const size_t store = planned.plan.AddNode(
      "store", ActivationMode::kPipelined, degree,
      std::make_unique<StoreLogic>(planned.result.get()));
  DBS3_RETURN_IF_ERROR(planned.plan.ConnectByColumn(
      scan, join, probe_col, inner_rel->partitioner()));
  DBS3_RETURN_IF_ERROR(planned.plan.ConnectSameInstance(join, store));
  return planned;
}

Result<PlannedQuery> PlanSelect(Database& db, const std::string& input,
                                Predicate predicate, double selectivity,
                                const QueryOptions& options) {
  DBS3_ASSIGN_OR_RETURN(Relation * input_rel, db.relation(input));
  const size_t degree = input_rel->degree();
  PlannedQuery planned;
  planned.result = std::make_unique<Relation>(
      options.result_name, input_rel->schema(),
      input_rel->partition_column(),
      Partitioner(input_rel->partitioner().kind(), degree));

  const size_t filter = planned.plan.AddNode(
      "filter", ActivationMode::kTriggered, degree,
      std::make_unique<FilterLogic>(input_rel, std::move(predicate),
                                    selectivity));
  const size_t store = planned.plan.AddNode(
      "store", ActivationMode::kPipelined, degree,
      std::make_unique<StoreLogic>(planned.result.get()));
  DBS3_RETURN_IF_ERROR(planned.plan.ConnectSameInstance(filter, store));
  return planned;
}

}  // namespace

QuerySpec MakeQuerySpec(const QueryOptions& options, QueryBody body) {
  QuerySpec spec;
  spec.body = std::move(body);
  spec.priority = options.priority;
  spec.memory_units = options.memory_units;
  // The CPU half of joint admission: the thread share the schedule would
  // ask for (0 = derived schedule, unknown until planning — always
  // CPU-fit).
  spec.threads_hint = options.schedule.total_threads;
  spec.deadline = options.deadline;
  spec.cancel = options.cancel;
  return spec;
}

Result<QueryResult> RunIdealJoin(Database& db, const std::string& outer,
                                 const std::string& outer_column,
                                 const std::string& inner,
                                 const std::string& inner_column,
                                 const QueryOptions& options) {
  return SubmitIdealJoin(db, outer, outer_column, inner, inner_column,
                         options)
      .Take();
}

Result<QueryResult> RunAssocJoin(Database& db, const std::string& probe_rel,
                                 const std::string& probe_column,
                                 const std::string& inner,
                                 const std::string& inner_column,
                                 const QueryOptions& options) {
  return SubmitAssocJoin(db, probe_rel, probe_column, inner, inner_column,
                         options)
      .Take();
}

Result<QueryResult> RunFilterJoin(Database& db, const std::string& filtered,
                                  Predicate predicate,
                                  double selectivity,
                                  const std::string& filter_join_column,
                                  const std::string& inner,
                                  const std::string& inner_column,
                                  const QueryOptions& options) {
  return SubmitFilterJoin(db, filtered, std::move(predicate), selectivity,
                          filter_join_column, inner, inner_column, options)
      .Take();
}

Result<QueryResult> RunSelect(Database& db, const std::string& input,
                              Predicate predicate, double selectivity,
                              const QueryOptions& options) {
  return SubmitSelect(db, input, std::move(predicate), selectivity, options)
      .Take();
}

QueryHandle SubmitIdealJoin(Database& db, const std::string& outer,
                            const std::string& outer_column,
                            const std::string& inner,
                            const std::string& inner_column,
                            const QueryOptions& options) {
  return SubmitPlanned(
      db,
      [&db, outer, outer_column, inner, inner_column, options] {
        return PlanIdealJoin(db, outer, outer_column, inner, inner_column,
                             options);
      },
      options);
}

QueryHandle SubmitAssocJoin(Database& db, const std::string& probe_rel,
                            const std::string& probe_column,
                            const std::string& inner,
                            const std::string& inner_column,
                            const QueryOptions& options) {
  return SubmitPlanned(
      db,
      [&db, probe_rel, probe_column, inner, inner_column, options] {
        return PlanProbeJoin(db, "transmit", probe_rel, MatchAll(), 1.0,
                             probe_column, inner, inner_column, options);
      },
      options);
}

QueryHandle SubmitFilterJoin(Database& db, const std::string& filtered,
                             Predicate predicate, double selectivity,
                             const std::string& filter_join_column,
                             const std::string& inner,
                             const std::string& inner_column,
                             const QueryOptions& options) {
  return SubmitPlanned(
      db,
      [&db, filtered, predicate = std::move(predicate), selectivity,
       filter_join_column, inner, inner_column, options] {
        return PlanProbeJoin(db, "filter", filtered, predicate, selectivity,
                             filter_join_column, inner, inner_column,
                             options);
      },
      options);
}

QueryHandle SubmitSelect(Database& db, const std::string& input,
                         Predicate predicate, double selectivity,
                         const QueryOptions& options) {
  return SubmitPlanned(
      db,
      [&db, input, predicate = std::move(predicate), selectivity, options] {
        return PlanSelect(db, input, predicate, selectivity, options);
      },
      options);
}

}  // namespace dbs3

#include "dbs3/query.h"

#include <functional>
#include <utility>

#include "engine/vector/key_filter.h"
#include "server/query_runtime.h"

namespace dbs3 {

namespace {

/// Folds one execution's statistics into the database's engine-wide
/// metrics registry.
void AccumulateEngineMetrics(MetricsRegistry& metrics,
                             const ExecutionResult& execution) {
  metrics.counter("engine.queries")->Add(1);
  metrics.counter("engine.units_dropped")->Add(execution.units_dropped);
  metrics.counter("engine.units_cancelled")->Add(execution.units_cancelled);
  uint64_t tuple_units = 0, activations = 0, emitted = 0;
  double busy = 0.0;
  for (const OperationStats& op : execution.op_stats) {
    for (uint64_t c : op.per_instance_processed) tuple_units += c;
    activations += op.activations;
    emitted += op.emitted;
    busy += op.busy_seconds;
  }
  metrics.counter("engine.tuple_units")->Add(tuple_units);
  metrics.counter("engine.activations")->Add(activations);
  metrics.counter("engine.emitted")->Add(emitted);
  metrics.counter("engine.busy_ns")->Add(static_cast<uint64_t>(busy * 1e9));
  metrics.counter("engine.wall_ns")
      ->Add(static_cast<uint64_t>(execution.seconds * 1e9));
}

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
      [&db, planner = std::move(planner),
       options](QueryEnv& env) -> Result<QueryResult> {
        DBS3_ASSIGN_OR_RETURN(PlannedQuery planned, planner());
        DBS3_ASSIGN_OR_RETURN(
            PhaseOutcome phase,
            env.Run(planned.plan, options.cost_model, options.schedule));
        AccumulateEngineMetrics(db.metrics(), phase.execution);
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
  if (outer_rel->degree() != inner_rel->degree()) {
    return Status::FailedPrecondition(
        "IdealJoin needs co-partitioned operands: '" + outer + "' has " +
        std::to_string(outer_rel->degree()) + " fragments, '" + inner +
        "' has " + std::to_string(inner_rel->degree()));
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

Result<PlannedQuery> PlanAssocJoin(Database& db, const std::string& probe_rel,
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
  const size_t degree = inner_rel->degree();
  PlannedQuery planned;
  planned.result = std::make_unique<Relation>(
      options.result_name,
      Schema::Concat(probe->schema(), inner_rel->schema()), probe_col,
      Partitioner(inner_rel->partitioner().kind(), degree));

  // The paper's transmit ships every probe row. When the probe has at least
  // as many rows as the inner, it scans through a filter over the inner's
  // join keys instead, so rows without a partner never reach the join.
  std::unique_ptr<OperatorLogic> scan;
  if (std::optional<PredExpr> key_filter =
          ProbeKeyFilter(*probe, probe_col, *inner_rel, inner_col)) {
    scan = std::make_unique<FilterLogic>(probe, std::move(*key_filter), 1.0);
  } else {
    scan = std::make_unique<TransmitLogic>(probe);
  }
  const size_t transmit =
      planned.plan.AddNode("transmit", ActivationMode::kTriggered,
                           probe->degree(), std::move(scan));
  const size_t join = planned.plan.AddNode(
      "join", ActivationMode::kPipelined, degree,
      std::make_unique<PipelinedJoinLogic>(inner_rel, inner_col, probe_col,
                                           options.algorithm));
  const size_t store = planned.plan.AddNode(
      "store", ActivationMode::kPipelined, degree,
      std::make_unique<StoreLogic>(planned.result.get()));
  DBS3_RETURN_IF_ERROR(planned.plan.ConnectByColumn(
      transmit, join, probe_col, inner_rel->partitioner()));
  DBS3_RETURN_IF_ERROR(planned.plan.ConnectSameInstance(join, store));
  return planned;
}

Result<PlannedQuery> PlanFilterJoin(Database& db, const std::string& filtered,
                                    Predicate predicate,
                                    double selectivity,
                                    const std::string& filter_join_column,
                                    const std::string& inner,
                                    const std::string& inner_column,
                                    const QueryOptions& options) {
  DBS3_ASSIGN_OR_RETURN(Relation * filtered_rel, db.relation(filtered));
  DBS3_ASSIGN_OR_RETURN(Relation * inner_rel, db.relation(inner));
  DBS3_ASSIGN_OR_RETURN(const size_t probe_col,
                        ColumnOf(filtered_rel, filter_join_column));
  DBS3_ASSIGN_OR_RETURN(const size_t inner_col,
                        ColumnOf(inner_rel, inner_column));
  if (inner_rel->partition_column() != inner_col) {
    return Status::FailedPrecondition(
        "FilterJoin needs '" + inner + "' partitioned on '" + inner_column +
        "'");
  }
  if (std::optional<PredExpr> key_filter =
          ProbeKeyFilter(*filtered_rel, probe_col, *inner_rel, inner_col)) {
    predicate = PredExpr::And({std::move(predicate), std::move(*key_filter)});
  }
  const size_t degree = inner_rel->degree();
  PlannedQuery planned;
  planned.result = std::make_unique<Relation>(
      options.result_name,
      Schema::Concat(filtered_rel->schema(), inner_rel->schema()), probe_col,
      Partitioner(inner_rel->partitioner().kind(), degree));

  const size_t filter = planned.plan.AddNode(
      "filter", ActivationMode::kTriggered, filtered_rel->degree(),
      std::make_unique<FilterLogic>(filtered_rel, std::move(predicate),
                                    selectivity));
  const size_t join = planned.plan.AddNode(
      "join", ActivationMode::kPipelined, degree,
      std::make_unique<PipelinedJoinLogic>(inner_rel, inner_col, probe_col,
                                           options.algorithm));
  const size_t store = planned.plan.AddNode(
      "store", ActivationMode::kPipelined, degree,
      std::make_unique<StoreLogic>(planned.result.get()));
  DBS3_RETURN_IF_ERROR(planned.plan.ConnectByColumn(
      filter, join, probe_col, inner_rel->partitioner()));
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
        return PlanAssocJoin(db, probe_rel, probe_column, inner,
                             inner_column, options);
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
        return PlanFilterJoin(db, filtered, predicate, selectivity,
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

#include "esql/planner.h"

#include <algorithm>
#include <utility>

#include "engine/blocking_operators.h"
#include "engine/vector/key_filter.h"
#include "esql/parser.h"
#include "server/query_runtime.h"
#include "server/shared/shared_query.h"

namespace dbs3 {

namespace {

/// Provenance of one column of the working schema (for name resolution
/// across joins, where duplicate bare names may exist).
struct Binding {
  std::string relation;
  std::string column;
};

/// The plan under construction plus everything needed to extend it.
struct PipelineState {
  Plan plan;
  int tail = -1;  ///< Last node id.
  size_t instances = 0;
  Schema schema;
  std::vector<Binding> bindings;
  std::string description;

  /// Relations materialized for this query (repartition temporaries); must
  /// outlive execution.
  std::vector<std::unique_ptr<Relation>> temps;
  /// Executions of those materializations, in run order (the query
  /// result's `phases`).
  std::vector<ExecutionResult> phase_execs;
};

Result<size_t> ResolveBinding(const std::vector<Binding>& bindings,
                              const ColumnRef& ref) {
  int found = -1;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i].column != ref.column) continue;
    if (!ref.relation.empty() && bindings[i].relation != ref.relation) {
      continue;
    }
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column '" + ref.ToString() +
                                     "' (qualify it with the relation name)");
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound("unknown column '" + ref.ToString() + "'");
  }
  return static_cast<size_t>(found);
}

std::vector<Binding> BindingsOf(const Relation& rel) {
  std::vector<Binding> out;
  out.reserve(rel.schema().num_columns());
  for (const Column& c : rel.schema().columns()) {
    out.push_back({rel.name(), c.name});
  }
  return out;
}

/// A row leaf evaluating one comparison under Value's total order: the
/// conjunct form for comparisons LowerComparison cannot type.
PredExpr PredicateFor(size_t column, Comparison::Op op, Value literal) {
  return [column, op, literal = std::move(literal)](const Tuple& t) {
    const Value& v = t.at(column);
    switch (op) {
      case Comparison::Op::kEq:
        return v == literal;
      case Comparison::Op::kNe:
        return v != literal;
      case Comparison::Op::kLt:
        return v < literal;
      case Comparison::Op::kLe:
        return v < literal || v == literal;
      case Comparison::Op::kGt:
        return literal < v;
      case Comparison::Op::kGe:
        return literal < v || v == literal;
    }
    return false;
  };
}

double SelectivityGuess(Comparison::Op op) {
  switch (op) {
    case Comparison::Op::kEq:
      return 0.1;
    case Comparison::Op::kNe:
      return 0.9;
    default:
      return 0.3;
  }
}

/// Lowers one comparison to the vector IR when its shape is one the batch
/// kernels understand AND the column's declared type matches the literal.
/// The IR's leaves are typed and self-contained; the schema gate is what
/// keeps them equivalent to PredicateFor's Value-order semantics (Value's
/// total order ranks every string above every int, so e.g. `c > 3` on a
/// string value is true under PredicateFor but inexpressible as an int
/// range — such a comparison is only lowered when the column is declared
/// kInt64 and thus never holds strings).
std::optional<PredExpr> LowerComparison(size_t column, Comparison::Op op,
                                        const Value& literal,
                                        ValueType column_type) {
  const uint32_t col = static_cast<uint32_t>(column);
  if (literal.is_int() && column_type == ValueType::kInt64) {
    const int64_t v = literal.AsInt();
    switch (op) {
      case Comparison::Op::kEq:
        return PredExpr::IntEquals(col, v);
      case Comparison::Op::kNe:
        return PredExpr::IntNotEquals(col, v);
      case Comparison::Op::kLt:
        return PredExpr::IntLess(col, v);
      case Comparison::Op::kLe:
        return PredExpr::IntLessEq(col, v);
      case Comparison::Op::kGt:
        return PredExpr::IntGreater(col, v);
      case Comparison::Op::kGe:
        return PredExpr::IntGreaterEq(col, v);
    }
    return std::nullopt;
  }
  if (!literal.is_int() && column_type == ValueType::kString) {
    switch (op) {
      case Comparison::Op::kEq:
        return PredExpr::StringEquals(col, literal.AsString());
      case Comparison::Op::kNe:
        return PredExpr::StringNotEquals(col, literal.AsString());
      default:
        break;  // No string range leaves.
    }
  }
  return std::nullopt;
}

/// One WHERE conjunct, resolved to a column of the relation it filters.
struct Conjunct {
  size_t column;
  Comparison::Op op;
  Value literal;
};

/// Resolves each WHERE conjunct once against the columns of `rels`, bound
/// under their names in FROM order, and files it under the relation it
/// resolves into. An unknown or ambiguous column fails here, before any
/// phase runs.
Result<std::vector<std::vector<Conjunct>>> ClassifyWhere(
    const std::vector<Relation*>& rels,
    const std::vector<Comparison>& where) {
  std::vector<Binding> bindings;
  std::vector<size_t> first;  // Where each relation's columns start.
  for (const Relation* rel : rels) {
    first.push_back(bindings.size());
    for (Binding& b : BindingsOf(*rel)) bindings.push_back(std::move(b));
  }
  std::vector<std::vector<Conjunct>> out(rels.size());
  for (const Comparison& cmp : where) {
    DBS3_ASSIGN_OR_RETURN(const size_t col,
                          ResolveBinding(bindings, cmp.column));
    size_t owner = rels.size() - 1;
    while (first[owner] > col) --owner;
    out[owner].push_back({col - first[owner], cmp.op, cmp.literal});
  }
  return out;
}

/// AND-combines conjuncts on `schema`'s columns into one predicate
/// (MatchAll when empty) and multiplies their selectivity guesses. Each
/// conjunct becomes one leaf: the typed leaf LowerComparison gives, or a
/// PredicateFor row leaf when it gives none.
std::pair<Predicate, double> CombinePredicates(
    const Schema& schema, const std::vector<Conjunct>& conjuncts) {
  double selectivity = 1.0;
  std::vector<PredExpr> leaves;
  leaves.reserve(conjuncts.size());
  for (const Conjunct& c : conjuncts) {
    selectivity *= SelectivityGuess(c.op);
    std::optional<PredExpr> leaf = LowerComparison(
        c.column, c.op, c.literal, schema.column(c.column).type);
    leaves.push_back(leaf.has_value()
                         ? std::move(*leaf)
                         : PredicateFor(c.column, c.op, c.literal));
  }
  return std::make_pair(PredExpr::And(std::move(leaves)), selectivity);
}

/// Materializes a repartition of `rel` on `column`, hash-partitioned with
/// the same degree — the subquery boundary of the general join case. The
/// phase runs through the query's own env; its execution is appended to
/// `phase_execs`.
Result<std::unique_ptr<Relation>> MaterializeRepartition(
    const Relation& rel, size_t column, Predicate predicate,
    double selectivity, const EsqlOptions& options, QueryEnv& env,
    std::vector<ExecutionResult>* phase_execs) {
  auto temp = std::make_unique<Relation>(
      rel.name() + "_repart", rel.schema(), column,
      Partitioner(PartitionKind::kHash, rel.degree()));
  Plan plan;
  const size_t filter = plan.AddNode(
      "repartition-scan", ActivationMode::kTriggered, rel.degree(),
      std::make_unique<FilterLogic>(&rel, std::move(predicate), selectivity));
  const size_t store =
      plan.AddNode("store", ActivationMode::kPipelined, rel.degree(),
                   std::make_unique<StoreLogic>(temp.get()));
  DBS3_RETURN_IF_ERROR(
      plan.ConnectByColumn(filter, store, column, temp->partitioner()));
  DBS3_ASSIGN_OR_RETURN(PhaseOutcome out, env.Run(plan, options.schedule));
  phase_execs->push_back(std::move(out.execution));
  return temp;
}

/// One pipelined join of the chain: FROM relation `rel` joined on
/// pipeline column `probe_col` = its column `inner_col`.
struct JoinStep {
  size_t rel;
  size_t probe_col;
  size_t inner_col;
};

/// Builds the scan/join stage of the pipeline into `state`: a left-deep
/// chain of pipelined joins, with the paper's IdealJoin shortcut for a
/// single co-partitioned join and repartition materializations (subquery
/// boundaries) for misaligned inners. Every name — join columns and WHERE
/// columns — is resolved before the first phase runs.
Status BuildSource(Database& db, const EsqlQuery& query,
                   const EsqlOptions& options, QueryEnv& env,
                   PipelineState* state) {
  // Resolve the relation chain.
  std::vector<Relation*> rels;
  DBS3_ASSIGN_OR_RETURN(Relation * from_rel, db.relation(query.from));
  rels.push_back(from_rel);
  for (const EsqlQuery::JoinClause& jc : query.joins) {
    DBS3_ASSIGN_OR_RETURN(Relation * r, db.relation(jc.relation));
    rels.push_back(r);
  }

  if (query.joins.empty()) {
    DBS3_ASSIGN_OR_RETURN(auto rel_preds, ClassifyWhere(rels, query.where));
    auto pred = CombinePredicates(from_rel->schema(), rel_preds[0]);
    state->tail = static_cast<int>(state->plan.AddNode(
        "scan(" + from_rel->name() + ")", ActivationMode::kTriggered,
        from_rel->degree(),
        std::make_unique<FilterLogic>(from_rel, std::move(pred.first),
                                      pred.second)));
    state->instances = from_rel->degree();
    state->schema = from_rel->schema();
    state->bindings = BindingsOf(*from_rel);
    state->description = "scan(" + from_rel->name() + ")";
    return Status::OK();
  }

  // Resolve the first join's sides against the two base relations.
  auto side_of = [](const ColumnRef& ref, const Relation& a,
                    const Relation& b) -> Result<int> {
    const bool in_a = (ref.relation.empty() || ref.relation == a.name()) &&
                      a.schema().IndexOf(ref.column).ok();
    const bool in_b = (ref.relation.empty() || ref.relation == b.name()) &&
                      b.schema().IndexOf(ref.column).ok();
    if (in_a && in_b) {
      return Status::InvalidArgument("ambiguous join column '" +
                                     ref.ToString() + "'");
    }
    if (in_a) return 0;
    if (in_b) return 1;
    return Status::NotFound("unknown join column '" + ref.ToString() + "'");
  };
  const EsqlQuery::JoinClause& jc = query.joins[0];
  DBS3_ASSIGN_OR_RETURN(const int ls, side_of(jc.left, *rels[0], *rels[1]));
  DBS3_ASSIGN_OR_RETURN(const int rs, side_of(jc.right, *rels[0], *rels[1]));
  if (ls == rs) {
    return Status::InvalidArgument(
        "join condition must reference both relations");
  }
  const ColumnRef& left_ref = ls == 0 ? jc.left : jc.right;
  const ColumnRef& right_ref = ls == 0 ? jc.right : jc.left;
  DBS3_ASSIGN_OR_RETURN(const size_t left_col,
                        rels[0]->schema().IndexOf(left_ref.column));
  DBS3_ASSIGN_OR_RETURN(const size_t right_col,
                        rels[1]->schema().IndexOf(right_ref.column));

  // Resolve the later join clauses: each has one side among the relations
  // already joined (in FROM order, so their bindings are known now) and
  // the other in the relation it adds.
  std::vector<Binding> pipeline = BindingsOf(*rels[0]);
  for (Binding& b : BindingsOf(*rels[1])) pipeline.push_back(std::move(b));
  std::vector<JoinStep> later;
  for (size_t j = 1; j < query.joins.size(); ++j) {
    const Relation& inner = *rels[j + 1];
    auto resolve = [&](const ColumnRef& ref)
        -> Result<std::pair<bool, size_t>> {
      auto in_pipe = ResolveBinding(pipeline, ref);
      if (!in_pipe.ok() &&
          in_pipe.status().code() == StatusCode::kInvalidArgument) {
        return in_pipe.status();  // Ambiguous within the pipeline.
      }
      const bool in_rel =
          (ref.relation.empty() || ref.relation == inner.name()) &&
          inner.schema().IndexOf(ref.column).ok();
      if (in_pipe.ok() && in_rel) {
        return Status::InvalidArgument("ambiguous join column '" +
                                       ref.ToString() + "'");
      }
      if (in_pipe.ok()) return std::make_pair(true, in_pipe.value());
      if (in_rel) {
        return std::make_pair(false,
                              inner.schema().IndexOf(ref.column).value());
      }
      return Status::NotFound("unknown join column '" + ref.ToString() +
                              "'");
    };
    DBS3_ASSIGN_OR_RETURN(auto a, resolve(query.joins[j].left));
    DBS3_ASSIGN_OR_RETURN(auto b, resolve(query.joins[j].right));
    if (a.first == b.first) {
      return Status::InvalidArgument(
          "join condition must reference the joined relation and the "
          "preceding pipeline");
    }
    later.push_back({j + 1, a.first ? a.second : b.second,
                     a.first ? b.second : a.second});
    for (Binding& bd : BindingsOf(inner)) pipeline.push_back(std::move(bd));
  }

  DBS3_ASSIGN_OR_RETURN(auto rel_preds, ClassifyWhere(rels, query.where));

  const bool copartitioned =
      rels[0]->partitioner() == rels[1]->partitioner() &&
      rels[0]->partition_column() == left_col &&
      rels[1]->partition_column() == right_col && rel_preds[0].empty() &&
      rel_preds[1].empty();
  if (copartitioned && query.joins.size() == 1) {
    // IdealJoin (Figure 10): one triggered instance per fragment pair.
    state->tail = static_cast<int>(state->plan.AddNode(
        "ideal-join", ActivationMode::kTriggered, rels[0]->degree(),
        std::make_unique<TriggeredJoinLogic>(rels[0], left_col, rels[1],
                                             right_col, options.algorithm)));
    state->instances = rels[0]->degree();
    state->schema = Schema::Concat(rels[0]->schema(), rels[1]->schema());
    state->bindings = std::move(pipeline);  // No later joins: both sides.
    state->description =
        "IdealJoin(" + rels[0]->name() + ", " + rels[1]->name() + ")";
    return Status::OK();
  }

  // Orient the first join: prefer the side partitioned on its join
  // attribute (and free of pushdown predicates) as the inner.
  size_t probe_idx = 0, inner_idx = 1;
  size_t probe_col = left_col, inner_col = right_col;
  const bool right_inner_ok =
      rels[1]->partition_column() == right_col && rel_preds[1].empty();
  const bool left_inner_ok =
      rels[0]->partition_column() == left_col && rel_preds[0].empty();
  if (!right_inner_ok && left_inner_ok && query.joins.size() == 1) {
    std::swap(probe_idx, inner_idx);
    std::swap(probe_col, inner_col);
  }

  // Repartitions an inner that is not partitioned on its join attribute
  // or carries pushdown predicates (subquery boundary); returns the
  // relation the join probes.
  auto resolve_inner = [&](size_t rel_index,
                           size_t join_col) -> Result<Relation*> {
    Relation* inner = rels[rel_index];
    if (inner->partition_column() == join_col &&
        rel_preds[rel_index].empty()) {
      return inner;
    }
    auto inner_pred =
        CombinePredicates(inner->schema(), rel_preds[rel_index]);
    DBS3_ASSIGN_OR_RETURN(
        std::unique_ptr<Relation> temp,
        MaterializeRepartition(*inner, join_col, std::move(inner_pred.first),
                               inner_pred.second, options, env,
                               &state->phase_execs));
    state->description =
        "repartition(" + inner->name() + ") ; " + state->description;
    inner = temp.get();
    state->temps.push_back(std::move(temp));
    return inner;
  };
  // The first join's inner is resolved before the probe scan, so a key
  // filter covers exactly the relation that join probes.
  DBS3_ASSIGN_OR_RETURN(Relation* const first_inner,
                        resolve_inner(inner_idx, inner_col));

  // Start the pipeline with the probe-side scan (pushdown predicates
  // applied in the scan — the FilterLogic generalization of Transmit),
  // ANDed with a filter over the first inner's join keys when the probe
  // has at least as many rows.
  Relation* probe = rels[probe_idx];
  auto probe_pred = CombinePredicates(probe->schema(), rel_preds[probe_idx]);
  const std::string scan = "scan(" + probe->name() + ")";
  std::string scan_description = scan;
  std::optional<PredExpr> key_filter =
      ProbeKeyFilter(*probe, probe_col, *first_inner, inner_col);
  if (key_filter.has_value()) {
    probe_pred.first = PredExpr::And(
        {std::move(probe_pred.first), std::move(*key_filter)});
    scan_description = "scan(" + probe->name() + ", keyfilter(" +
                       first_inner->name() + "." +
                       first_inner->schema().column(inner_col).name + "))";
  }
  state->tail = static_cast<int>(state->plan.AddNode(
      scan, ActivationMode::kTriggered, probe->degree(),
      std::make_unique<FilterLogic>(probe, std::move(probe_pred.first),
                                    probe_pred.second)));
  state->instances = probe->degree();
  state->schema = probe->schema();
  state->description += scan_description;

  // The chain: the oriented first join, then the later clauses in order.
  std::vector<JoinStep> chain = {{inner_idx, probe_col, inner_col}};
  chain.insert(chain.end(), later.begin(), later.end());
  for (size_t step = 0; step < chain.size(); ++step) {
    const JoinStep& js = chain[step];
    Relation* inner = first_inner;
    if (step > 0) {
      DBS3_ASSIGN_OR_RETURN(inner, resolve_inner(js.rel, js.inner_col));
    }
    const size_t join = state->plan.AddNode(
        "pipelined-join", ActivationMode::kPipelined, inner->degree(),
        std::make_unique<PipelinedJoinLogic>(inner, js.inner_col,
                                             js.probe_col, options.algorithm));
    DBS3_RETURN_IF_ERROR(state->plan.ConnectByColumn(
        static_cast<size_t>(state->tail), join, js.probe_col,
        inner->partitioner()));
    state->tail = static_cast<int>(join);
    state->instances = inner->degree();
    state->schema = Schema::Concat(state->schema, inner->schema());
    const std::string probe_name =
        step == 0 ? probe->name() : std::string("pipeline");
    state->description += " ; AssocJoin(probe=" + probe_name +
                          ", inner=" + inner->name() + ")";
  }

  // A swapped first join produced (right, left) column order; restore the
  // SQL order (FROM relation first) with a projection.
  if (probe_idx == 1) {
    const size_t n_right = rels[1]->schema().num_columns();
    const size_t n_left = rels[0]->schema().num_columns();
    std::vector<size_t> reorder;
    for (size_t c = 0; c < n_left; ++c) reorder.push_back(n_right + c);
    for (size_t c = 0; c < n_right; ++c) reorder.push_back(c);
    std::vector<Column> columns;
    for (size_t c : reorder) columns.push_back(state->schema.column(c));
    const size_t project = state->plan.AddNode(
        "reorder", ActivationMode::kPipelined, state->instances,
        std::make_unique<ProjectLogic>(std::move(reorder)));
    DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
        static_cast<size_t>(state->tail), project));
    state->tail = static_cast<int>(project);
    state->schema = Schema(std::move(columns));
  }
  // FROM order, each relation under its own name, also where the join
  // probes its repartitioned temporary.
  state->bindings = std::move(pipeline);
  return Status::OK();
}

/// Appends the aggregation stage (global or grouped).
Status BuildAggregation(const EsqlQuery& query, PipelineState* state) {
  std::vector<AggSpec> aggs;
  std::vector<std::string> agg_names;
  for (const SelectItem& item : query.items) {
    if (item.kind != SelectItem::Kind::kAggregate) continue;
    AggSpec spec;
    spec.kind = item.aggregate;
    if (!item.count_star) {
      DBS3_ASSIGN_OR_RETURN(spec.column,
                            ResolveBinding(state->bindings, item.column));
    }
    aggs.push_back(spec);
    agg_names.push_back(
        !item.alias.empty()
            ? item.alias
            : std::string(AggKindName(item.aggregate)) + "_" +
                  (item.count_star ? "all" : item.column.column));
  }
  // Validate the non-aggregate select items against GROUP BY.
  for (const SelectItem& item : query.items) {
    if (item.kind == SelectItem::Kind::kAggregate) continue;
    if (item.kind == SelectItem::Kind::kStar ||
        !query.group_by.has_value() ||
        item.column.column != query.group_by->column) {
      return Status::InvalidArgument(
          "with aggregates, every plain select item must be the GROUP BY "
          "column");
    }
  }

  size_t group_col = 0;
  std::string group_name = "all";
  ValueType group_type = ValueType::kInt64;
  if (query.group_by.has_value()) {
    DBS3_ASSIGN_OR_RETURN(group_col,
                          ResolveBinding(state->bindings, *query.group_by));
    group_name = query.group_by->column;
    group_type = state->schema.column(group_col).type;
  } else {
    // Global aggregate: prepend a constant grouping key so every tuple
    // lands in the same group (and instance).
    // In-place map form: the constant key row is built once, and each call
    // overwrites the recycled scratch row via AssignConcat — no per-tuple
    // construction.
    const size_t map = state->plan.AddNode(
        "const-key", ActivationMode::kPipelined, state->instances,
        std::make_unique<MapLogic>([](const Tuple& t, Tuple* out) {
          static const Tuple kKey({Value(int64_t{0})});
          out->AssignConcat(kKey, t);
        }));
    DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
        static_cast<size_t>(state->tail), map));
    state->tail = static_cast<int>(map);
    std::vector<Binding> bindings = {{"", "_const"}};
    for (Binding& b : state->bindings) bindings.push_back(std::move(b));
    state->bindings = std::move(bindings);
    for (AggSpec& spec : aggs) ++spec.column;  // Shifted by the new key.
    group_col = 0;
  }

  const size_t group = state->plan.AddNode(
      "group-by", ActivationMode::kPipelined, state->instances,
      std::make_unique<GroupByLogic>(group_col, aggs));
  // Repartition on the grouping key so equal keys meet in one instance.
  DBS3_RETURN_IF_ERROR(state->plan.ConnectByColumn(
      static_cast<size_t>(state->tail), group, group_col,
      Partitioner(PartitionKind::kHash, state->instances)));
  state->tail = static_cast<int>(group);

  // The grouping key keeps its input type; aggregates are integers.
  std::vector<Column> columns = {{group_name, group_type}};
  std::vector<Binding> bindings = {{"", group_name}};
  for (const std::string& name : agg_names) {
    columns.push_back({name, ValueType::kInt64});
    bindings.push_back({"", name});
  }
  state->schema = Schema(std::move(columns));
  state->bindings = std::move(bindings);
  state->description += " ; group-by(" + group_name + ")";
  return Status::OK();
}

/// `SELECT *`: the whole row, no projection.
bool SelectsStar(const EsqlQuery& query) {
  return query.items.size() == 1 &&
         query.items[0].kind == SelectItem::Kind::kStar;
}

/// Resolves a plain select list, item by item, against `bindings` (the
/// columns of `schema`): the kept columns in output order, and the result
/// columns, each named by its alias or else its column.
Result<std::pair<std::vector<size_t>, std::vector<Column>>> ResolveSelectList(
    const EsqlQuery& query, const std::vector<Binding>& bindings,
    const Schema& schema) {
  std::pair<std::vector<size_t>, std::vector<Column>> out;
  for (const SelectItem& item : query.items) {
    DBS3_ASSIGN_OR_RETURN(const size_t col,
                          ResolveBinding(bindings, item.column));
    out.first.push_back(col);
    out.second.push_back(
        {!item.alias.empty() ? item.alias : item.column.column,
         schema.column(col).type});
  }
  return out;
}

/// Appends the projection stage for plain (non-aggregate) select lists.
Status BuildProjection(const EsqlQuery& query, PipelineState* state) {
  if (SelectsStar(query)) return Status::OK();
  DBS3_ASSIGN_OR_RETURN(
      auto projection,
      ResolveSelectList(query, state->bindings, state->schema));
  auto& [columns, out_columns] = projection;
  std::vector<Binding> out_bindings;
  for (size_t i = 0; i < columns.size(); ++i) {
    out_bindings.push_back(
        {state->bindings[columns[i]].relation, out_columns[i].name});
  }
  const size_t project = state->plan.AddNode(
      "project", ActivationMode::kPipelined, state->instances,
      std::make_unique<ProjectLogic>(std::move(columns)));
  DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
      static_cast<size_t>(state->tail), project));
  state->tail = static_cast<int>(project);
  state->schema = Schema(std::move(out_columns));
  state->bindings = std::move(out_bindings);
  state->description += " ; project";
  return Status::OK();
}

/// The query body: compiles `query` and runs every phase (repartition
/// materializations, then the final pipeline) through the query's env.
Result<QueryResult> RunEsql(Database& db, const EsqlQuery& query,
                            const EsqlOptions& options, QueryEnv& env) {
  if (query.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  const bool has_aggregate =
      std::any_of(query.items.begin(), query.items.end(),
                  [](const SelectItem& item) {
                    return item.kind == SelectItem::Kind::kAggregate;
                  });
  if (query.group_by.has_value() && !has_aggregate) {
    return Status::InvalidArgument("GROUP BY requires aggregates");
  }

  PipelineState state;
  DBS3_RETURN_IF_ERROR(BuildSource(db, query, options, env, &state));
  if (has_aggregate) {
    DBS3_RETURN_IF_ERROR(BuildAggregation(query, &state));
  }
  if (query.order_by.has_value()) {
    DBS3_ASSIGN_OR_RETURN(
        const size_t sort_col,
        ResolveBinding(state.bindings, query.order_by->column));
    const size_t sort = state.plan.AddNode(
        "sort", ActivationMode::kPipelined, state.instances,
        std::make_unique<SortLogic>(sort_col, query.order_by->order));
    DBS3_RETURN_IF_ERROR(state.plan.ConnectSameInstance(
        static_cast<size_t>(state.tail), sort));
    state.tail = static_cast<int>(sort);
    state.description += " ; sort";
  }
  if (!has_aggregate) {
    DBS3_RETURN_IF_ERROR(BuildProjection(query, &state));
  }

  auto result = std::make_unique<Relation>(
      options.result_name, state.schema, /*partition_column=*/0,
      Partitioner(PartitionKind::kHash, state.instances));
  const size_t store = state.plan.AddNode(
      "store", ActivationMode::kPipelined, state.instances,
      std::make_unique<StoreLogic>(result.get()));
  DBS3_RETURN_IF_ERROR(state.plan.ConnectSameInstance(
      static_cast<size_t>(state.tail), store));

  DBS3_ASSIGN_OR_RETURN(PhaseOutcome final_phase,
                        env.Run(state.plan, options.schedule));
  QueryResult out;
  out.result = std::move(result);
  out.execution = std::move(final_phase.execution);
  out.schedule = std::move(final_phase.schedule);
  out.detail = state.description + " ; store";
  out.phases = std::move(state.phase_execs);
  return out;
}

/// Whether the query only scans: no joins, aggregates, grouping or
/// ordering. Such a query runs as a one-node shared scan, alone or folded
/// into a batch.
bool ScanOnly(const EsqlQuery& query) {
  if (!query.joins.empty()) return false;
  if (query.group_by.has_value() || query.order_by.has_value()) return false;
  for (const SelectItem& item : query.items) {
    if (item.kind == SelectItem::Kind::kAggregate) return false;
  }
  return !query.items.empty();
}

/// The plan of a scan-only query: its shared-scan payload, resolved in
/// RunEsql's order (the relation, then WHERE, then each select item) so a
/// bad query fails with the status RunEsql would give it.
Result<std::shared_ptr<const SharedScanSpec>> MakeSharedSpec(
    Database& db, const EsqlQuery& query, const EsqlOptions& options) {
  DBS3_ASSIGN_OR_RETURN(Relation * rel, db.relation(query.from));
  DBS3_ASSIGN_OR_RETURN(auto where, ClassifyWhere({rel}, query.where));
  auto spec = std::make_shared<SharedScanSpec>();
  spec->relation = rel;
  auto pred = CombinePredicates(rel->schema(), where[0]);
  spec->predicate = std::move(pred.first);
  spec->selectivity = pred.second;
  if (SelectsStar(query)) {
    spec->result_schema = rel->schema();  // Empty projection = whole row.
  } else {
    DBS3_ASSIGN_OR_RETURN(
        auto projection,
        ResolveSelectList(query, BindingsOf(*rel), rel->schema()));
    spec->projection = std::move(projection.first);
    spec->result_schema = Schema(std::move(projection.second));
  }
  spec->result_name = options.result_name;
  spec->schedule = options.schedule;
  spec->share_class = ComputeShareClass(*rel, spec->projection);
  return std::shared_ptr<const SharedScanSpec>(std::move(spec));
}

/// A query that failed before it could run: its handle completes with
/// `error` once the query leaves admission, like any other failure.
QueryHandle SubmitFailed(Database& db, Status error,
                         const EsqlOptions& options) {
  return db.Submit(MakeQuerySpec(
      options, [error = std::move(error)](QueryEnv&) -> Result<QueryResult> {
        return error;
      }));
}

QueryHandle SubmitParsed(Database& db, EsqlQuery query,
                         const EsqlOptions& options) {
  if (!ScanOnly(query)) {
    return db.Submit(MakeQuerySpec(
        options, [&db, query = std::move(query),
                  options](QueryEnv& env) -> Result<QueryResult> {
          return RunEsql(db, query, options, env);
        }));
  }
  Result<std::shared_ptr<const SharedScanSpec>> shared =
      MakeSharedSpec(db, query, options);
  if (!shared.ok()) return SubmitFailed(db, shared.status(), options);
  QuerySpec spec = MakeQuerySpec(options, QueryBody());
  spec.shared = std::move(shared).value();
  return db.Submit(std::move(spec));
}

}  // namespace

Result<QueryResult> ExecuteEsql(Database& db, const EsqlQuery& query,
                                const EsqlOptions& options) {
  return SubmitEsql(db, query, options).Take();
}

Result<QueryResult> ExecuteEsql(Database& db, const std::string& query,
                                const EsqlOptions& options) {
  return SubmitEsql(db, query, options).Take();
}

QueryHandle SubmitEsql(Database& db, const EsqlQuery& query,
                       const EsqlOptions& options) {
  return SubmitParsed(db, query, options);
}

QueryHandle SubmitEsql(Database& db, const std::string& query,
                       const EsqlOptions& options) {
  // Parse eagerly so a scan-only query is planned at submit; a syntax
  // error still surfaces through the handle like every other query
  // failure.
  Result<EsqlQuery> parsed = ParseEsql(query);
  if (!parsed.ok()) return SubmitFailed(db, parsed.status(), options);
  return SubmitParsed(db, std::move(parsed).value(), options);
}

}  // namespace dbs3

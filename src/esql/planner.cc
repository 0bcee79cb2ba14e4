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

/// AND-combines comparisons resolved against `bindings` into one predicate
/// (MatchAll when empty) and multiplies their selectivity guesses. Each
/// conjunct becomes one leaf: the typed leaf LowerComparison gives (typed
/// against `schema`), or a PredicateFor row leaf when it gives none.
Result<std::pair<Predicate, double>> CombinePredicates(
    const std::vector<Binding>& bindings, const Schema& schema,
    const std::vector<Comparison>& comparisons) {
  double selectivity = 1.0;
  std::vector<PredExpr> conjuncts;
  conjuncts.reserve(comparisons.size());
  for (const Comparison& cmp : comparisons) {
    DBS3_ASSIGN_OR_RETURN(const size_t col,
                          ResolveBinding(bindings, cmp.column));
    selectivity *= SelectivityGuess(cmp.op);
    std::optional<PredExpr> leaf =
        LowerComparison(col, cmp.op, cmp.literal, schema.column(col).type);
    conjuncts.push_back(leaf.has_value()
                            ? std::move(*leaf)
                            : PredicateFor(col, cmp.op, cmp.literal));
  }
  return std::make_pair(PredExpr::And(std::move(conjuncts)), selectivity);
}

/// Whether the comparison's column belongs to relation `rel` (given the
/// bare column name exists there and, if qualified, the names agree).
bool BelongsTo(const Comparison& cmp, const Relation& rel) {
  if (!cmp.column.relation.empty() && cmp.column.relation != rel.name()) {
    return false;
  }
  return rel.schema().IndexOf(cmp.column.column).ok();
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
  DBS3_ASSIGN_OR_RETURN(PhaseOutcome out,
                        env.Run(plan, CostModel{}, options.schedule));
  phase_execs->push_back(std::move(out.execution));
  return temp;
}

/// Strips the repartition suffix so qualified references keep working.
std::string OriginalName(const Relation& rel) {
  const std::string& name = rel.name();
  constexpr const char* kSuffix = "_repart";
  constexpr size_t kSuffixLen = 7;
  if (name.size() > kSuffixLen &&
      name.substr(name.size() - kSuffixLen) == kSuffix) {
    return name.substr(0, name.size() - kSuffixLen);
  }
  return name;
}

/// Appends a pipelined filter node for `comparisons` (no-op when empty).
Status AppendFilter(const std::vector<Comparison>& comparisons,
                    PipelineState* state) {
  if (comparisons.empty()) return Status::OK();
  DBS3_ASSIGN_OR_RETURN(
      auto pred,
      CombinePredicates(state->bindings, state->schema, comparisons));
  const size_t filter = state->plan.AddNode(
      "post-filter", ActivationMode::kPipelined, state->instances,
      std::make_unique<PipelinedFilterLogic>(std::move(pred.first),
                                             pred.second));
  DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
      static_cast<size_t>(state->tail), filter));
  state->tail = static_cast<int>(filter);
  state->description += " ; filter";
  return Status::OK();
}

/// Builds the scan/join stage of the pipeline into `state`: a left-deep
/// chain of pipelined joins, with the paper's IdealJoin shortcut for a
/// single co-partitioned join and repartition materializations (subquery
/// boundaries) for misaligned inners.
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

  // Classify WHERE conjuncts by the unique base relation they reference;
  // ambiguous ones run as a final post-filter (where resolution may still
  // demand qualification).
  std::vector<std::vector<Comparison>> rel_preds(rels.size());
  std::vector<Comparison> post_preds;
  for (const Comparison& cmp : query.where) {
    int owner = -1;
    bool ambiguous = false;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (BelongsTo(cmp, *rels[i])) {
        if (owner >= 0) ambiguous = true;
        owner = static_cast<int>(i);
      }
    }
    if (owner < 0 || ambiguous) {
      post_preds.push_back(cmp);
    } else {
      rel_preds[static_cast<size_t>(owner)].push_back(cmp);
    }
  }

  if (query.joins.empty()) {
    DBS3_ASSIGN_OR_RETURN(auto pred,
                          CombinePredicates(BindingsOf(*from_rel),
                                            from_rel->schema(),
                                            rel_preds[0]));
    state->tail = static_cast<int>(state->plan.AddNode(
        "scan(" + from_rel->name() + ")", ActivationMode::kTriggered,
        from_rel->degree(),
        std::make_unique<FilterLogic>(from_rel, std::move(pred.first),
                                      pred.second)));
    state->instances = from_rel->degree();
    state->schema = from_rel->schema();
    state->bindings = BindingsOf(*from_rel);
    state->description = "scan(" + from_rel->name() + ")";
    return AppendFilter(post_preds, state);
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
  {
    const EsqlQuery::JoinClause& jc = query.joins[0];
    DBS3_ASSIGN_OR_RETURN(const int ls, side_of(jc.left, *rels[0], *rels[1]));
    DBS3_ASSIGN_OR_RETURN(const int rs,
                          side_of(jc.right, *rels[0], *rels[1]));
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
      state->schema =
          Schema::Concat(rels[0]->schema(), rels[1]->schema());
      state->bindings = BindingsOf(*rels[0]);
      for (const Binding& b : BindingsOf(*rels[1])) {
        state->bindings.push_back(b);
      }
      state->description = "IdealJoin(" + rels[0]->name() + ", " +
                           rels[1]->name() + ")";
      return AppendFilter(post_preds, state);
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
      DBS3_ASSIGN_OR_RETURN(
          auto inner_pred,
          CombinePredicates(BindingsOf(*inner), inner->schema(),
                            rel_preds[rel_index]));
      DBS3_ASSIGN_OR_RETURN(
          std::unique_ptr<Relation> temp,
          MaterializeRepartition(*inner, join_col,
                                 std::move(inner_pred.first),
                                 inner_pred.second, options, env,
                                 &state->phase_execs));
      state->description =
          "repartition(" + inner->name() + ") ; " + state->description;
      inner = temp.get();
      state->temps.push_back(std::move(temp));
      rel_preds[rel_index].clear();
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
    DBS3_ASSIGN_OR_RETURN(
        auto probe_pred,
        CombinePredicates(BindingsOf(*probe), probe->schema(),
                          rel_preds[probe_idx]));
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
        scan, ActivationMode::kTriggered,
        probe->degree(),
        std::make_unique<FilterLogic>(probe, std::move(probe_pred.first),
                                      probe_pred.second)));
    state->instances = probe->degree();
    state->schema = probe->schema();
    state->bindings = BindingsOf(*probe);
    state->description += scan_description;
    rel_preds[probe_idx].clear();

    // Make the first join clause reference the resolved inner.
    // Fall through to the generic chain below by rotating rels so the
    // remaining chain is [inner_idx, rest...]: handled via explicit
    // ordering vector.
    std::vector<size_t> chain = {inner_idx};
    for (size_t i = 2; i < rels.size(); ++i) chain.push_back(i);
    std::vector<size_t> probe_cols = {probe_col};
    std::vector<size_t> inner_cols = {inner_col};
    // Resolve the remaining joins against the accumulated pipeline.
    for (size_t j = 1; j < query.joins.size(); ++j) {
      probe_cols.push_back(0);  // Filled below, after bindings accumulate.
      inner_cols.push_back(0);
    }

    for (size_t step = 0; step < chain.size(); ++step) {
      Relation* inner = step == 0 ? first_inner : rels[chain[step]];
      size_t this_probe_col, this_inner_col;
      if (step == 0) {
        this_probe_col = probe_cols[0];
        this_inner_col = inner_cols[0];
      } else {
        // Resolve this join clause: one side in the pipeline bindings, the
        // other in the new relation.
        const EsqlQuery::JoinClause& clause = query.joins[step];
        auto resolve = [&](const ColumnRef& ref)
            -> Result<std::pair<bool, size_t>> {
          auto in_pipe = ResolveBinding(state->bindings, ref);
          if (!in_pipe.ok() &&
              in_pipe.status().code() == StatusCode::kInvalidArgument) {
            return in_pipe.status();  // Ambiguous within the pipeline.
          }
          const bool in_rel =
              (ref.relation.empty() || ref.relation == inner->name()) &&
              inner->schema().IndexOf(ref.column).ok();
          if (in_pipe.ok() && in_rel) {
            return Status::InvalidArgument("ambiguous join column '" +
                                           ref.ToString() + "'");
          }
          if (in_pipe.ok()) return std::make_pair(true, in_pipe.value());
          if (in_rel) {
            return std::make_pair(
                false, inner->schema().IndexOf(ref.column).value());
          }
          return Status::NotFound("unknown join column '" + ref.ToString() +
                                  "'");
        };
        DBS3_ASSIGN_OR_RETURN(auto a, resolve(clause.left));
        DBS3_ASSIGN_OR_RETURN(auto b, resolve(clause.right));
        if (a.first == b.first) {
          return Status::InvalidArgument(
              "join condition must reference the joined relation and the "
              "preceding pipeline");
        }
        this_probe_col = a.first ? a.second : b.second;
        this_inner_col = a.first ? b.second : a.second;
        DBS3_ASSIGN_OR_RETURN(inner,
                              resolve_inner(chain[step], this_inner_col));
      }

      const size_t join = state->plan.AddNode(
          "pipelined-join", ActivationMode::kPipelined, inner->degree(),
          std::make_unique<PipelinedJoinLogic>(
              inner, this_inner_col, this_probe_col, options.algorithm));
      DBS3_RETURN_IF_ERROR(state->plan.ConnectByColumn(
          static_cast<size_t>(state->tail), join, this_probe_col,
          inner->partitioner()));
      state->tail = static_cast<int>(join);
      state->instances = inner->degree();
      state->schema = Schema::Concat(state->schema, inner->schema());
      const std::string inner_name = OriginalName(*inner);
      for (const Column& c : inner->schema().columns()) {
        state->bindings.push_back({inner_name, c.name});
      }
      const std::string probe_name =
          step == 0 ? rels[probe_idx]->name() : std::string("pipeline");
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
      std::vector<Binding> bindings;
      for (size_t c : reorder) {
        columns.push_back(state->schema.column(c));
        bindings.push_back(state->bindings[c]);
      }
      const size_t project = state->plan.AddNode(
          "reorder", ActivationMode::kPipelined, state->instances,
          std::make_unique<ProjectLogic>(std::move(reorder)));
      DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
          static_cast<size_t>(state->tail), project));
      state->tail = static_cast<int>(project);
      state->schema = Schema(std::move(columns));
      state->bindings = std::move(bindings);
    }
  }

  // Anything not pushed (ambiguous, or predicates on the first probe that
  // appeared after orientation) runs as a final pipelined filter.
  std::vector<Comparison> remaining = std::move(post_preds);
  for (std::vector<Comparison>& preds : rel_preds) {
    remaining.insert(remaining.end(), preds.begin(), preds.end());
  }
  return AppendFilter(remaining, state);
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

/// Appends the projection stage for plain (non-aggregate) select lists.
Status BuildProjection(const EsqlQuery& query, PipelineState* state) {
  if (query.items.size() == 1 &&
      query.items[0].kind == SelectItem::Kind::kStar) {
    return Status::OK();
  }
  std::vector<size_t> columns;
  std::vector<Column> out_columns;
  std::vector<Binding> out_bindings;
  for (const SelectItem& item : query.items) {
    DBS3_ASSIGN_OR_RETURN(const size_t col,
                          ResolveBinding(state->bindings, item.column));
    columns.push_back(col);
    const std::string name =
        !item.alias.empty() ? item.alias : item.column.column;
    out_columns.push_back({name, state->schema.column(col).type});
    out_bindings.push_back({state->bindings[col].relation, name});
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

  DBS3_ASSIGN_OR_RETURN(
      PhaseOutcome final_phase,
      env.Run(state.plan, options.cost_model, options.schedule));
  QueryResult out;
  out.result = std::move(result);
  out.execution = std::move(final_phase.execution);
  out.schedule = std::move(final_phase.schedule);
  out.detail = state.description + " ; store";
  out.phases = std::move(state.phase_execs);
  return out;
}

/// Whether the query's shape may ride a shared scan at all (cheap
/// pre-check before MakeSharedSpec does name resolution): scan-only — no
/// joins, aggregates, grouping or ordering — and no declared memory.
bool ShareableShape(const EsqlQuery& query, const EsqlOptions& options) {
  if (!options.share_work) return false;
  if (options.memory_units != 0) return false;
  if (!query.joins.empty()) return false;
  if (query.group_by.has_value() || query.order_by.has_value()) return false;
  for (const SelectItem& item : query.items) {
    if (item.kind == SelectItem::Kind::kAggregate) return false;
  }
  return !query.items.empty();
}

/// Builds the shared-scan payload for a shareable shape, mirroring the
/// solo plan exactly: CombinePredicates for the WHERE conjunction and
/// BuildProjection's naming for the result schema. Any resolution error
/// means "not shareable" — the caller falls back to the solo body, which
/// re-reports real errors through the normal path.
Result<std::shared_ptr<const SharedScanSpec>> MakeSharedSpec(
    Database& db, const EsqlQuery& query, const EsqlOptions& options) {
  DBS3_ASSIGN_OR_RETURN(Relation * rel, db.relation(query.from));
  auto spec = std::make_shared<SharedScanSpec>();
  spec->relation = rel;

  if (query.items.size() == 1 &&
      query.items[0].kind == SelectItem::Kind::kStar) {
    spec->result_schema = rel->schema();  // Empty projection = whole row.
  } else {
    const std::vector<Binding> bindings = BindingsOf(*rel);
    std::vector<Column> out_columns;
    for (const SelectItem& item : query.items) {
      if (item.kind != SelectItem::Kind::kColumn) {
        return Status::InvalidArgument("not a shareable select list");
      }
      DBS3_ASSIGN_OR_RETURN(const size_t col,
                            ResolveBinding(bindings, item.column));
      spec->projection.push_back(col);
      const std::string name =
          !item.alias.empty() ? item.alias : item.column.column;
      out_columns.push_back({name, rel->schema().column(col).type});
    }
    spec->result_schema = Schema(std::move(out_columns));
  }

  DBS3_ASSIGN_OR_RETURN(
      auto pred,
      CombinePredicates(BindingsOf(*rel), rel->schema(), query.where));
  spec->predicate = std::move(pred.first);
  spec->selectivity = pred.second;
  spec->result_name = options.result_name;
  spec->schedule = options.schedule;
  spec->cost_model = options.cost_model;
  spec->share_class = ComputeShareClass(*rel, spec->projection);
  return std::shared_ptr<const SharedScanSpec>(std::move(spec));
}

QueryHandle SubmitParsed(Database& db, EsqlQuery query,
                         const EsqlOptions& options) {
  std::shared_ptr<const SharedScanSpec> shared;
  if (ShareableShape(query, options)) {
    Result<std::shared_ptr<const SharedScanSpec>> spec =
        MakeSharedSpec(db, query, options);
    if (spec.ok()) shared = std::move(spec).value();
  }
  QuerySpec spec = MakeQuerySpec(
      options, [&db, query = std::move(query),
                options](QueryEnv& env) -> Result<QueryResult> {
        return RunEsql(db, query, options, env);
      });
  spec.shared = std::move(shared);
  return db.Submit(std::move(spec));
}

}  // namespace

Result<EsqlResult> ExecuteEsql(Database& db, const EsqlQuery& query,
                               const EsqlOptions& options) {
  DBS3_ASSIGN_OR_RETURN(QueryResult result,
                        SubmitEsql(db, query, options).Take());
  EsqlResult out;
  out.result = std::move(result.result);
  out.execution = std::move(result.execution);
  out.schedule = std::move(result.schedule);
  out.physical_plan = std::move(result.detail);
  out.phases = result.phases.size() + 1;
  return out;
}

Result<EsqlResult> ExecuteEsql(Database& db, const std::string& query,
                               const EsqlOptions& options) {
  DBS3_ASSIGN_OR_RETURN(EsqlQuery parsed, ParseEsql(query));
  return ExecuteEsql(db, parsed, options);
}

QueryHandle SubmitEsql(Database& db, const EsqlQuery& query,
                       const EsqlOptions& options) {
  return SubmitParsed(db, query, options);
}

QueryHandle SubmitEsql(Database& db, const std::string& query,
                       const EsqlOptions& options) {
  // Parse eagerly so shareable queries get their shared-scan payload
  // attached; a syntax error still surfaces through the handle like every
  // other query failure.
  Result<EsqlQuery> parsed = ParseEsql(query);
  if (parsed.ok()) {
    return SubmitParsed(db, std::move(parsed).value(), options);
  }
  return db.Submit(MakeQuerySpec(
      options, [error = parsed.status()](QueryEnv&) -> Result<QueryResult> {
        return error;
      }));
}

}  // namespace dbs3

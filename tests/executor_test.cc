#include "engine/executor.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "dbs3/database.h"
#include "dbs3/query.h"
#include "storage/skew.h"

namespace dbs3 {
namespace {

/// Reference single-threaded join of two relations on given columns.
std::vector<Tuple> ReferenceJoin(const Relation& left, size_t left_col,
                                 const Relation& right, size_t right_col) {
  std::vector<Tuple> out;
  std::multimap<std::string, const Tuple*> index;
  for (size_t f = 0; f < right.degree(); ++f) {
    for (const Tuple& t : right.fragment(f).tuples) {
      index.emplace(t.at(right_col).ToString(), &t);
    }
  }
  for (size_t f = 0; f < left.degree(); ++f) {
    for (const Tuple& t : left.fragment(f).tuples) {
      auto [lo, hi] = index.equal_range(t.at(left_col).ToString());
      for (auto it = lo; it != hi; ++it) out.push_back(t.Concat(*it->second));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Populates `db` in place: Database is intentionally non-movable (the
/// query runtime pins it), so tests fill a stack instance.
void MakeSmallSkewedDb(Database& db, double theta) {
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 400;
  spec.degree = 16;
  spec.theta = theta;
  spec.seed = 7;
  EXPECT_TRUE(db.CreateSkewedPair(spec, "A", "Bp").ok());
}

TEST(ExecutorTest, IdealJoinMatchesReferenceJoin) {
  Database db(4);
  MakeSmallSkewedDb(db, 0.5);
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto result = RunIdealJoin(db, "A", "key", "Bp", "key", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Relation* a = db.relation("A").value();
  Relation* b = db.relation("Bp").value();
  std::vector<Tuple> expected = ReferenceJoin(*a, 0, *b, 0);
  std::vector<Tuple> actual = result.value().result->Scan();
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual.size(), 2'000u);  // Each A tuple matches one B' tuple.
  EXPECT_EQ(actual, expected);
}

TEST(ExecutorTest, AssocJoinMatchesIdealJoin) {
  Database db(4);
  MakeSmallSkewedDb(db, 0.8);
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto ideal = RunIdealJoin(db, "A", "key", "Bp", "key", options);
  ASSERT_TRUE(ideal.ok()) << ideal.status().ToString();
  // AssocJoin probes with B' against A: result columns are (B', A); remap
  // by comparing join cardinalities and key multiplicity instead of raw
  // tuples.
  auto assoc = RunAssocJoin(db, "Bp", "key", "A", "key", options);
  ASSERT_TRUE(assoc.ok()) << assoc.status().ToString();
  EXPECT_EQ(assoc.value().result->cardinality(),
            ideal.value().result->cardinality());

  // Tuple-level check: swap the column order of the assoc result.
  std::vector<Tuple> expected = ideal.value().result->Scan();
  std::sort(expected.begin(), expected.end());
  std::vector<Tuple> actual;
  for (const Tuple& t : assoc.value().result->Scan()) {
    std::vector<Value> vals;
    vals.push_back(t.at(2));  // A.key
    vals.push_back(t.at(3));  // A.payload
    vals.push_back(t.at(0));  // Bp.key
    vals.push_back(t.at(1));  // Bp.payload
    actual.push_back(Tuple(std::move(vals)));
  }
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

TEST(ExecutorTest, SelectKeepsMatchingTuplesOnly) {
  Database db(4);
  MakeSmallSkewedDb(db, 0.0);
  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  auto result =
      RunSelect(db, "A", ColumnBetween(/*column=*/1, 0, 9), 0.1, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const Tuple& t : result.value().result->Scan()) {
    EXPECT_GE(t.at(1).AsInt(), 0);
    EXPECT_LE(t.at(1).AsInt(), 9);
  }
  // Payload column counts 0..count-1 per fragment, so every fragment keeps
  // min(10, |fragment|) tuples.
  uint64_t expected = 0;
  Relation* a = db.relation("A").value();
  for (uint64_t c : a->FragmentCardinalities()) {
    expected += std::min<uint64_t>(c, 10);
  }
  EXPECT_EQ(result.value().result->cardinality(), expected);
}

TEST(ExecutorTest, FilterJoinPipelineProducesJoin) {
  Database db(4);
  MakeSmallSkewedDb(db, 0.3);
  QueryOptions options;
  options.schedule.total_threads = 3;
  options.schedule.processors = 4;
  // Filter keeps all of B', joins against A: same cardinality as the join.
  auto result = RunFilterJoin(db, "Bp", MatchAll(), 1.0, "key", "A", "key",
                              options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().result->cardinality(), 2'000u);
}

TEST(ExecutorTest, StatsAccountForEveryActivation) {
  Database db(4);
  MakeSmallSkewedDb(db, 0.6);
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto result = RunAssocJoin(db, "Bp", "key", "A", "key", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ops = result.value().execution.op_stats;
  ASSERT_EQ(ops.size(), 3u);  // transmit, join, store.
  // Transmit processes one trigger per fragment.
  uint64_t transmit_total = 0;
  for (uint64_t c : ops[0].per_thread_processed) transmit_total += c;
  EXPECT_EQ(transmit_total, 16u);
  EXPECT_EQ(ops[0].emitted, 400u);  // All B' tuples redistributed.
  // Join processes one data activation per redistributed tuple.
  uint64_t join_total = 0;
  for (uint64_t c : ops[1].per_thread_processed) join_total += c;
  EXPECT_EQ(join_total, 400u);
  EXPECT_EQ(ops[1].emitted, 2'000u);
  // Store consumes every result tuple.
  uint64_t store_total = 0;
  for (uint64_t c : ops[2].per_thread_processed) store_total += c;
  EXPECT_EQ(store_total, 2'000u);
}

TEST(ExecutorTest, NoUnitsDroppedOnWellFormedPlans) {
  // Activations pushed onto closed queues used to disappear with only a log
  // line. On a well-formed plan (consumers outlive their producers) nothing
  // may ever be dropped — across all four query shapes.
  Database db(4);
  MakeSmallSkewedDb(db, 0.7);
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;

  auto check = [](const char* what, const ExecutionResult& execution) {
    EXPECT_EQ(execution.units_dropped, 0u) << what;
    for (const OperationStats& op : execution.op_stats) {
      EXPECT_EQ(op.dropped, 0u) << what << " op " << op.name;
    }
  };
  auto ideal = RunIdealJoin(db, "A", "key", "Bp", "key", options);
  ASSERT_TRUE(ideal.ok()) << ideal.status().ToString();
  check("IdealJoin", ideal.value().execution);

  auto assoc = RunAssocJoin(db, "Bp", "key", "A", "key", options);
  ASSERT_TRUE(assoc.ok()) << assoc.status().ToString();
  check("AssocJoin", assoc.value().execution);

  auto filter = RunFilterJoin(db, "Bp", MatchAll(), 1.0, "key", "A", "key",
                              options);
  ASSERT_TRUE(filter.ok()) << filter.status().ToString();
  check("FilterJoin", filter.value().execution);

  auto select =
      RunSelect(db, "A", ColumnBetween(/*column=*/1, 0, 9), 0.1, options);
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  check("Select", select.value().execution);
}

TEST(ExecutorTest, MetricsSnapshotAggregatesPerOperationCounters) {
  Database db(4);
  MakeSmallSkewedDb(db, 0.4);
  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  auto result = RunAssocJoin(db, "Bp", "key", "A", "key", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionResult& execution = result.value().execution;
  // op_stats is the one record of the per-operation counts: an untraced,
  // unbudgeted run spills nothing, so its snapshot holds no counters, and
  // with tracing off there is no trace JSON and no queue-depth series.
  EXPECT_TRUE(execution.metrics.counters.empty());
  EXPECT_TRUE(execution.metrics.series.empty());
  EXPECT_TRUE(execution.trace_json.empty());
  // transmit -> join -> store, in plan node order: each operation ran,
  // dropped nothing, and processed exactly what its producer emitted.
  const std::vector<OperationStats>& ops = execution.op_stats;
  ASSERT_EQ(ops.size(), 3u);
  for (const OperationStats& op : ops) {
    EXPECT_GT(op.activations, 0u) << op.name;
    EXPECT_EQ(op.dropped, 0u) << op.name;
  }
  const auto processed = [](const OperationStats& op) {
    uint64_t units = 0;
    for (uint64_t c : op.per_instance_processed) units += c;
    return units;
  };
  EXPECT_GT(ops[0].emitted, 0u);
  EXPECT_EQ(processed(ops[1]), ops[0].emitted);
  EXPECT_EQ(processed(ops[2]), ops[1].emitted);
  EXPECT_EQ(execution.units_dropped, 0u);
}

TEST(ExecutorTest, TracingProducesSpansAndQueueDepthSeries) {
  Database db(4);
  MakeSmallSkewedDb(db, 0.4);
  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  options.schedule.trace.enabled = true;
  options.schedule.trace.sample_interval_us = 50;
  auto result = RunAssocJoin(db, "Bp", "key", "A", "key", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionResult& execution = result.value().execution;
  EXPECT_NE(execution.trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(execution.trace_json.find("\"ph\":\"X\""), std::string::npos);
  // One sampled queue-depth series per operation.
  EXPECT_EQ(execution.metrics.series.size(), 3u);
  for (const auto& [name, series] : execution.metrics.series) {
    EXPECT_EQ(name.rfind("op.", 0), 0u) << name;
    EXPECT_GE(series.min, 0);
  }
}

TEST(ExecutorTest, RejectsNonCopartitionedIdealJoin) {
  Database db(2);
  SkewSpec spec;
  spec.degree = 8;
  spec.a_cardinality = 100;
  spec.b_cardinality = 50;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "Bp").ok());
  spec.degree = 4;
  spec.b_cardinality = 50;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "C", "D").ok());
  QueryOptions options;
  auto result = RunIdealJoin(db, "A", "key", "D", "key", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dbs3

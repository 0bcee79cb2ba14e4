#include "engine/blocking_operators.h"

#include <mutex>

#include <gtest/gtest.h>

#include "common/memory_quota.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/executor.h"
#include "storage/skew.h"

namespace dbs3 {
namespace {

class CapturingEmitter : public Emitter {
 public:
  void Emit(size_t producer_instance, Tuple tuple) override {
    std::lock_guard<std::mutex> lock(mu_);
    emitted_.emplace_back(producer_instance, std::move(tuple));
  }
  std::vector<std::pair<size_t, Tuple>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(emitted_);
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<size_t, Tuple>> emitted_;
};

Tuple Row(int64_t a, int64_t b) { return Tuple({Value(a), Value(b)}); }

/// Delivers `row` to `logic` as a one-tuple data activation.
void Push(OperatorLogic& logic, size_t instance, Tuple row, Emitter* out) {
  logic.OnDataBatch(instance, std::span<Tuple>(&row, 1), out);
}

TEST(GroupByLogicTest, CountSumMinMax) {
  GroupByLogic group(
      0, {{AggKind::kCount, 0}, {AggKind::kSum, 1}, {AggKind::kMin, 1},
          {AggKind::kMax, 1}});
  ASSERT_TRUE(group.Prepare(1).ok());
  Push(group, 0, Row(1, 10), nullptr);
  Push(group, 0, Row(1, 30), nullptr);
  Push(group, 0, Row(2, -5), nullptr);
  CapturingEmitter out;
  group.OnFinish(0, &out);
  auto rows = out.take();
  ASSERT_EQ(rows.size(), 2u);  // Groups 1 and 2 (map order: ascending).
  const Tuple& g1 = rows[0].second;
  EXPECT_EQ(g1.at(0).AsInt(), 1);
  EXPECT_EQ(g1.at(1).AsInt(), 2);   // count
  EXPECT_EQ(g1.at(2).AsInt(), 40);  // sum
  EXPECT_EQ(g1.at(3).AsInt(), 10);  // min
  EXPECT_EQ(g1.at(4).AsInt(), 30);  // max
  const Tuple& g2 = rows[1].second;
  EXPECT_EQ(g2.at(0).AsInt(), 2);
  EXPECT_EQ(g2.at(1).AsInt(), 1);
  EXPECT_EQ(g2.at(2).AsInt(), -5);
  EXPECT_EQ(g2.at(3).AsInt(), -5);
  EXPECT_EQ(g2.at(4).AsInt(), -5);
}

TEST(GroupByLogicTest, InstancesIsolated) {
  GroupByLogic group(0, {{AggKind::kCount, 0}});
  ASSERT_TRUE(group.Prepare(2).ok());
  Push(group, 0, Row(7, 0), nullptr);
  Push(group, 1, Row(7, 0), nullptr);
  CapturingEmitter out;
  group.OnFinish(0, &out);
  group.OnFinish(1, &out);
  auto rows = out.take();
  ASSERT_EQ(rows.size(), 2u);  // One group per instance (no merge).
  EXPECT_EQ(rows[0].first, 0u);
  EXPECT_EQ(rows[1].first, 1u);
}

TEST(GroupByLogicTest, FinishTwiceEmitsNothingSecondTime) {
  GroupByLogic group(0, {{AggKind::kCount, 0}});
  ASSERT_TRUE(group.Prepare(1).ok());
  Push(group, 0, Row(1, 1), nullptr);
  CapturingEmitter out;
  group.OnFinish(0, &out);
  EXPECT_EQ(out.take().size(), 1u);
  group.OnFinish(0, &out);
  EXPECT_TRUE(out.take().empty());
}

TEST(GroupByLogicTest, MinMaxOverStringOnlyColumnEmitsSentinelNotZero) {
  // Group 1's aggregate column never holds an int: min/max must emit the
  // empty-string sentinel (ranked above every int in Value's total order),
  // not a fabricated 0. Sum stays 0 — an empty sum is genuinely zero.
  GroupByLogic group(
      0, {{AggKind::kMin, 1}, {AggKind::kMax, 1}, {AggKind::kSum, 1}});
  ASSERT_TRUE(group.Prepare(1).ok());
  Push(group, 0, Tuple({Value(int64_t{1}), Value(std::string("x"))}),
       nullptr);
  Push(group, 0, Tuple({Value(int64_t{1}), Value(std::string("y"))}),
       nullptr);
  CapturingEmitter out;
  group.OnFinish(0, &out);
  auto rows = out.take();
  ASSERT_EQ(rows.size(), 1u);
  const Tuple& g = rows[0].second;
  EXPECT_EQ(g.at(1).AsString(), "");  // min sentinel
  EXPECT_EQ(g.at(2).AsString(), "");  // max sentinel
  EXPECT_EQ(g.at(3).AsInt(), 0);      // sum of no ints
}

TEST(GroupByLogicTest, MinMaxIgnoreStringCellsWhenIntsExist) {
  // Mixed column: the strings are skipped, the extrema come from the ints
  // alone (previously a leading string cell left min/max pinned at 0).
  GroupByLogic group(0, {{AggKind::kMin, 1}, {AggKind::kMax, 1}});
  ASSERT_TRUE(group.Prepare(1).ok());
  Push(group, 0, Tuple({Value(int64_t{1}), Value(std::string("noise"))}),
       nullptr);
  Push(group, 0, Tuple({Value(int64_t{1}), Value(int64_t{42})}), nullptr);
  Push(group, 0, Tuple({Value(int64_t{1}), Value(int64_t{17})}), nullptr);
  CapturingEmitter out;
  group.OnFinish(0, &out);
  auto rows = out.take();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second.at(1).AsInt(), 17);
  EXPECT_EQ(rows[0].second.at(2).AsInt(), 42);
}

TEST(SortLogicTest, OverBudgetFailsWithResourceExhausted) {
  // Row by row, and all three rows in one activation.
  for (const bool one_activation : {false, true}) {
    SCOPED_TRACE(one_activation ? "one activation" : "row by row");
    MemoryQuota quota(2);
    SortLogic sort(0, SortOrder::kAscending);
    ExecResources resources;
    resources.quota = &quota;
    sort.BindExecution(resources);
    ASSERT_TRUE(sort.Prepare(1).ok());
    std::vector<Tuple> rows = {Row(3, 0), Row(1, 1), Row(2, 2)};
    if (one_activation) {
      sort.OnDataBatch(0, std::span<Tuple>(rows), nullptr);
    } else {
      for (Tuple& row : rows) Push(sort, 0, std::move(row), nullptr);
    }
    // The third row is over budget.
    EXPECT_EQ(sort.error().code(), StatusCode::kResourceExhausted);
    CapturingEmitter out;
    sort.OnFinish(0, &out);
    EXPECT_TRUE(out.take().empty());  // A failed sort emits nothing.
    EXPECT_EQ(quota.used(), 0u);      // Buffered rows were released.
  }
}

TEST(GroupByLogicTest, StringGroupKeys) {
  GroupByLogic group(0, {{AggKind::kSum, 1}});
  ASSERT_TRUE(group.Prepare(1).ok());
  Push(group, 0, Tuple({Value(std::string("paris")), Value(int64_t{2})}),
       nullptr);
  Push(group, 0, Tuple({Value(std::string("paris")), Value(int64_t{3})}),
       nullptr);
  Push(group, 0, Tuple({Value(std::string("lyon")), Value(int64_t{1})}),
       nullptr);
  CapturingEmitter out;
  group.OnFinish(0, &out);
  auto rows = out.take();
  ASSERT_EQ(rows.size(), 2u);
  // Value ordering puts ints before strings; both keys are strings sorted
  // lexicographically: lyon then paris.
  EXPECT_EQ(rows[0].second.at(0).AsString(), "lyon");
  EXPECT_EQ(rows[1].second.at(0).AsString(), "paris");
  EXPECT_EQ(rows[1].second.at(1).AsInt(), 5);
}

TEST(SortLogicTest, AscendingAndDescending) {
  for (SortOrder order : {SortOrder::kAscending, SortOrder::kDescending}) {
    SortLogic sort(0, order);
    ASSERT_TRUE(sort.Prepare(1).ok());
    Push(sort, 0, Row(3, 0), nullptr);
    Push(sort, 0, Row(1, 1), nullptr);
    Push(sort, 0, Row(2, 2), nullptr);
    CapturingEmitter out;
    sort.OnFinish(0, &out);
    auto rows = out.take();
    ASSERT_EQ(rows.size(), 3u);
    if (order == SortOrder::kAscending) {
      EXPECT_EQ(rows[0].second.at(0).AsInt(), 1);
      EXPECT_EQ(rows[2].second.at(0).AsInt(), 3);
    } else {
      EXPECT_EQ(rows[0].second.at(0).AsInt(), 3);
      EXPECT_EQ(rows[2].second.at(0).AsInt(), 1);
    }
  }
}

TEST(SortLogicTest, StableOnEqualKeys) {
  SortLogic sort(0, SortOrder::kAscending);
  ASSERT_TRUE(sort.Prepare(1).ok());
  Push(sort, 0, Row(1, 100), nullptr);
  Push(sort, 0, Row(1, 200), nullptr);
  CapturingEmitter out;
  sort.OnFinish(0, &out);
  auto rows = out.take();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].second.at(1).AsInt(), 100);  // Arrival order kept.
  EXPECT_EQ(rows[1].second.at(1).AsInt(), 200);
}

TEST(BlockingInPlanTest, GroupByThroughExecutor) {
  // End-to-end: scan -> repartition-by-key -> group-by -> store on the real
  // engine, exercising the OnFinish flush between Join and downstream
  // close.
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 1'000;
  spec.b_cardinality = 100;
  spec.degree = 10;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  Relation* a = db.relation("A").value();

  Relation result("counts",
                  Schema({{"key", ValueType::kInt64},
                          {"cnt", ValueType::kInt64}}),
                  0, Partitioner(PartitionKind::kHash, 10));
  Plan plan;
  const size_t scan =
      plan.AddNode("scan", ActivationMode::kTriggered, 10,
                   std::make_unique<FilterLogic>(a, MatchAll()));
  const size_t group = plan.AddNode(
      "group", ActivationMode::kPipelined, 10,
      std::make_unique<GroupByLogic>(
          0, std::vector<AggSpec>{{AggKind::kCount, 0}}));
  const size_t store = plan.AddNode(
      "store", ActivationMode::kPipelined, 10,
      std::make_unique<StoreLogic>(&result));
  ASSERT_TRUE(plan.ConnectByColumn(scan, group, 0,
                                   Partitioner(PartitionKind::kHash, 10))
                  .ok());
  ASSERT_TRUE(plan.ConnectSameInstance(group, store).ok());
  for (size_t i = 0; i < plan.num_nodes(); ++i) plan.params(i).threads = 2;

  Executor executor;
  auto run = executor.Run(plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // 100 distinct keys (B's key set), counts summing to 1000.
  EXPECT_EQ(result.cardinality(), 100u);
  int64_t total = 0;
  for (const Tuple& t : result.Scan()) total += t.at(1).AsInt();
  EXPECT_EQ(total, 1'000);
}

}  // namespace
}  // namespace dbs3

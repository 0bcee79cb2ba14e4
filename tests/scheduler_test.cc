#include "sched/scheduler.h"

#include <numeric>

#include <gtest/gtest.h>

#include "dbs3/database.h"
#include "engine/operators.h"
#include "storage/skew.h"

namespace dbs3 {
namespace {

struct TestPlan {
  std::unique_ptr<Relation> a;
  std::unique_ptr<Relation> b;
  std::unique_ptr<Relation> result;
  Plan plan;
};

/// Builds an AssocJoin-shaped plan over a skewed pair.
TestPlan MakeAssocPlan(double theta, size_t degree = 20) {
  TestPlan tp;
  SkewSpec spec;
  spec.a_cardinality = 20'000;
  spec.b_cardinality = 2'000;
  spec.degree = degree;
  spec.theta = theta;
  auto db = BuildSkewedDatabase(spec);
  EXPECT_TRUE(db.ok());
  tp.a = std::move(db.value().a);
  tp.b = std::move(db.value().b);
  tp.result = std::make_unique<Relation>(
      "Res", Schema::Concat(tp.b->schema(), tp.a->schema()), 0,
      Partitioner(PartitionKind::kModulo, degree));
  const size_t transmit =
      tp.plan.AddNode("transmit", ActivationMode::kTriggered, degree,
                      std::make_unique<FilterLogic>(tp.b.get(), MatchAll()));
  const size_t join = tp.plan.AddNode(
      "join", ActivationMode::kPipelined, degree,
      std::make_unique<PipelinedJoinLogic>(tp.a.get(), 0, 0,
                                           JoinAlgorithm::kNestedLoop));
  const size_t store =
      tp.plan.AddNode("store", ActivationMode::kPipelined, degree,
                      std::make_unique<StoreLogic>(tp.result.get()));
  EXPECT_TRUE(
      tp.plan.ConnectByColumn(transmit, join, 0, tp.a->partitioner()).ok());
  EXPECT_TRUE(tp.plan.ConnectSameInstance(join, store).ok());
  return tp;
}

TEST(SchedulerTest, FixedThreadCountDistributedByComplexity) {
  TestPlan tp = MakeAssocPlan(0.0);
  ScheduleOptions options;
  options.total_threads = 10;
  options.processors = 64;
  auto report = ScheduleQuery(tp.plan, CostModel{}, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().total_threads, 10u);
  const size_t sum = std::accumulate(report.value().threads.begin(),
                                     report.value().threads.end(), 0ul);
  EXPECT_EQ(sum, 10u);
  // The nested-loop join dominates the complexity and gets the most
  // threads.
  EXPECT_GT(report.value().threads[1], report.value().threads[0]);
  EXPECT_GT(report.value().threads[1], report.value().threads[2]);
  // The decisions land in the plan params.
  EXPECT_EQ(tp.plan.params(1).threads, report.value().threads[1]);
}

TEST(SchedulerTest, DerivedThreadCountGrowsWithComplexity) {
  TestPlan small = MakeAssocPlan(0.0);
  ScheduleOptions options;
  options.processors = 64;
  options.startup_cost = 50'000.0;
  auto small_report = ScheduleQuery(small.plan, CostModel{}, options);
  ASSERT_TRUE(small_report.ok());

  // Same shape, 4x the data: more threads chosen (step 1: n* grows as
  // sqrt of the work).
  SkewSpec spec;
  spec.a_cardinality = 80'000;
  spec.b_cardinality = 8'000;
  spec.degree = 20;
  TestPlan big = MakeAssocPlan(0.0);
  // Rebuild with larger relations.
  auto db = BuildSkewedDatabase(spec);
  ASSERT_TRUE(db.ok());
  big.a = std::move(db.value().a);
  big.b = std::move(db.value().b);
  Plan plan;
  const size_t transmit =
      plan.AddNode("transmit", ActivationMode::kTriggered, 20,
                   std::make_unique<FilterLogic>(big.b.get(), MatchAll()));
  const size_t join = plan.AddNode(
      "join", ActivationMode::kPipelined, 20,
      std::make_unique<PipelinedJoinLogic>(big.a.get(), 0, 0,
                                           JoinAlgorithm::kNestedLoop));
  ASSERT_TRUE(
      plan.ConnectByColumn(transmit, join, 0, big.a->partitioner()).ok());
  auto big_report = ScheduleQuery(plan, CostModel{}, options);
  ASSERT_TRUE(big_report.ok());
  EXPECT_GT(big_report.value().total_threads,
            small_report.value().total_threads);
  EXPECT_GT(big_report.value().total_work,
            small_report.value().total_work * 3.0);
}

TEST(SchedulerTest, ThreadCountCappedByProcessors) {
  TestPlan tp = MakeAssocPlan(0.0);
  ScheduleOptions options;
  options.total_threads = 1'000;
  options.processors = 8;
  auto report = ScheduleQuery(tp.plan, CostModel{}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().total_threads, 8u);
}

TEST(SchedulerTest, ThreadsPerNodeCappedByInstances) {
  // Degree of partitioning must be >= degree of parallelism (the paper's
  // invariant): a 4-fragment plan cannot get more than 4 threads per node.
  TestPlan tp = MakeAssocPlan(0.0, /*degree=*/4);
  ScheduleOptions options;
  options.total_threads = 32;
  options.processors = 64;
  auto report = ScheduleQuery(tp.plan, CostModel{}, options);
  ASSERT_TRUE(report.ok());
  for (size_t t : report.value().threads) EXPECT_LE(t, 4u);
}

TEST(SchedulerTest, UtilizationReducesThreads) {
  TestPlan tp = MakeAssocPlan(0.0);
  ScheduleOptions options;
  options.processors = 64;
  options.startup_cost = 10'000.0;
  auto full = ScheduleQuery(tp.plan, CostModel{}, options);
  ASSERT_TRUE(full.ok());
  options.utilization = 0.5;
  auto half = ScheduleQuery(tp.plan, CostModel{}, options);
  ASSERT_TRUE(half.ok());
  EXPECT_LT(half.value().total_threads, full.value().total_threads);
}

TEST(SchedulerTest, SkewedTriggeredNodeGetsLpt) {
  TestPlan skewed = MakeAssocPlan(1.0);
  ScheduleOptions options;
  options.total_threads = 8;
  options.processors = 16;
  auto report = ScheduleQuery(skewed.plan, CostModel{}, options);
  ASSERT_TRUE(report.ok());
  // The transmit node is triggered over Zipf(1)-skewed B'? No — B' is
  // uniform; the *join estimates* are skewed but the join is pipelined, so
  // it stays Random; transmit over uniform fragments stays Random too.
  EXPECT_EQ(report.value().strategies[0], Strategy::kRandom);
  EXPECT_EQ(report.value().strategies[1], Strategy::kRandom);

  // A triggered join over the skewed A does get LPT.
  TestPlan tp = MakeAssocPlan(1.0);
  Plan ideal;
  auto result = std::make_unique<Relation>(
      "Res", Schema::Concat(tp.a->schema(), tp.b->schema()), 0,
      Partitioner(PartitionKind::kModulo, 20));
  const size_t join = ideal.AddNode(
      "join", ActivationMode::kTriggered, 20,
      std::make_unique<TriggeredJoinLogic>(tp.a.get(), 0, tp.b.get(), 0,
                                           JoinAlgorithm::kNestedLoop));
  const size_t store =
      ideal.AddNode("store", ActivationMode::kPipelined, 20,
                    std::make_unique<StoreLogic>(result.get()));
  ASSERT_TRUE(ideal.ConnectSameInstance(join, store).ok());
  auto ideal_report = ScheduleQuery(ideal, CostModel{}, options);
  ASSERT_TRUE(ideal_report.ok());
  EXPECT_EQ(ideal_report.value().strategies[0], Strategy::kLpt);
  // LPT ordering keys land in the plan.
  EXPECT_FALSE(ideal.params(0).cost_estimates.empty());
}

TEST(SchedulerTest, UnskewedTriggeredNodeStaysRandom) {
  TestPlan tp = MakeAssocPlan(0.0);
  Plan ideal;
  auto result = std::make_unique<Relation>(
      "Res", Schema::Concat(tp.a->schema(), tp.b->schema()), 0,
      Partitioner(PartitionKind::kModulo, 20));
  const size_t join = ideal.AddNode(
      "join", ActivationMode::kTriggered, 20,
      std::make_unique<TriggeredJoinLogic>(tp.a.get(), 0, tp.b.get(), 0,
                                           JoinAlgorithm::kNestedLoop));
  const size_t store =
      ideal.AddNode("store", ActivationMode::kPipelined, 20,
                    std::make_unique<StoreLogic>(result.get()));
  ASSERT_TRUE(ideal.ConnectSameInstance(join, store).ok());
  ScheduleOptions options;
  options.total_threads = 8;
  options.processors = 16;
  auto report = ScheduleQuery(ideal, CostModel{}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().strategies[0], Strategy::kRandom);
}

TEST(SchedulerTest, ForceStrategyOverridesStepFour) {
  TestPlan tp = MakeAssocPlan(0.0);
  ScheduleOptions options;
  options.total_threads = 4;
  options.processors = 8;
  options.force_strategy = Strategy::kLpt;
  auto report = ScheduleQuery(tp.plan, CostModel{}, options);
  ASSERT_TRUE(report.ok());
  for (Strategy s : report.value().strategies) {
    EXPECT_EQ(s, Strategy::kLpt);
  }
}

TEST(SchedulerTest, RejectsBadOptions) {
  TestPlan tp = MakeAssocPlan(0.0);
  ScheduleOptions options;
  options.processors = 0;
  EXPECT_FALSE(ScheduleQuery(tp.plan, CostModel{}, options).ok());
  options.processors = 4;
  options.utilization = 0.0;
  EXPECT_FALSE(ScheduleQuery(tp.plan, CostModel{}, options).ok());
  options.utilization = 2.0;
  EXPECT_FALSE(ScheduleQuery(tp.plan, CostModel{}, options).ok());
}

TEST(SchedulerTest, ReportToStringMentionsEveryNode) {
  TestPlan tp = MakeAssocPlan(0.0);
  ScheduleOptions options;
  options.total_threads = 4;
  options.processors = 8;
  auto report = ScheduleQuery(tp.plan, CostModel{}, options);
  ASSERT_TRUE(report.ok());
  const std::string text = report.value().ToString();
  EXPECT_NE(text.find("node 0"), std::string::npos);
  EXPECT_NE(text.find("node 2"), std::string::npos);
}

}  // namespace
}  // namespace dbs3

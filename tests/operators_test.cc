#include "engine/operators.h"

#include <algorithm>
#include <mutex>

#include <gtest/gtest.h>

#include "storage/skew.h"

namespace dbs3 {
namespace {

/// Captures emitted tuples per producer instance (thread-safe).
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

std::unique_ptr<Relation> KeyedRelation(size_t degree,
                                        std::vector<int64_t> keys) {
  auto r = std::make_unique<Relation>(
      "R", SkewSchema(), 0, Partitioner(PartitionKind::kModulo, degree));
  int64_t payload = 0;
  for (int64_t k : keys) {
    EXPECT_TRUE(r->Insert(Tuple({Value(k), Value(payload++)})).ok());
  }
  return r;
}

TEST(FilterLogicTest, EmitsOnlyMatches) {
  auto r = KeyedRelation(2, {0, 1, 2, 3, 4, 5});
  FilterLogic filter(r.get(), ColumnEquals(0, Value(int64_t{2})));
  ASSERT_TRUE(filter.Prepare(2).ok());
  CapturingEmitter out;
  filter.OnTrigger(0, &out);  // Key 2 lives in fragment 0 (2 % 2).
  auto emitted = out.take();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].second.at(0).AsInt(), 2);
}

TEST(FilterLogicTest, MatchAllEmitsWholeFragment) {
  auto r = KeyedRelation(2, {0, 1, 2, 3, 4, 5});
  FilterLogic filter(r.get(), MatchAll());
  ASSERT_TRUE(filter.Prepare(2).ok());
  CapturingEmitter out;
  filter.OnTrigger(1, &out);
  EXPECT_EQ(out.take().size(), 3u);  // Keys 1, 3, 5.
}

TEST(FilterLogicTest, RejectsMoreInstancesThanFragments) {
  auto r = KeyedRelation(2, {0, 1});
  FilterLogic filter(r.get(), MatchAll());
  const Status s = filter.Prepare(5);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FilterLogicTest, PrepareRefusesAnEmptyRowTest) {
  auto r = KeyedRelation(2, {0, 1});
  FilterLogic filter(r.get(), TuplePredicate());
  EXPECT_EQ(filter.Prepare(2).code(), StatusCode::kInvalidArgument);
  PipelinedFilterLogic pipelined(
      PredExpr::And({ColumnEquals(0, Value(int64_t{1})), TuplePredicate()}));
  EXPECT_EQ(pipelined.Prepare(2).code(), StatusCode::kInvalidArgument);
  PipelinedFilterLogic fine([](const Tuple& t) { return t.size() == 2; });
  EXPECT_TRUE(fine.Prepare(2).ok());
}

TEST(TransmitLogicTest, EmitsWholeFragmentTagged) {
  auto r = KeyedRelation(4, {0, 1, 2, 3, 4, 5, 6, 7});
  TransmitLogic transmit(r.get());
  ASSERT_TRUE(transmit.Prepare(4).ok());
  CapturingEmitter out;
  transmit.OnTrigger(2, &out);
  auto emitted = out.take();
  ASSERT_EQ(emitted.size(), 2u);  // Keys 2 and 6.
  for (const auto& [inst, tuple] : emitted) {
    EXPECT_EQ(inst, 2u);
    EXPECT_EQ(tuple.at(0).AsInt() % 4, 2);
  }
}

class TriggeredJoinAlgoTest
    : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(TriggeredJoinAlgoTest, JoinsCoPartitionedFragments) {
  auto outer = KeyedRelation(2, {0, 1, 2, 2, 3});
  auto inner = KeyedRelation(2, {2, 3, 4});
  TriggeredJoinLogic join(outer.get(), 0, inner.get(), 0, GetParam());
  ASSERT_TRUE(join.Prepare(2).ok());
  CapturingEmitter out;
  join.OnTrigger(0, &out);  // Fragment 0: outer {0,2,2}, inner {2,4}.
  auto emitted = out.take();
  ASSERT_EQ(emitted.size(), 2u);  // Both outer 2s match inner 2.
  for (const auto& [inst, tuple] : emitted) {
    EXPECT_EQ(tuple.at(0).AsInt(), 2);
    EXPECT_EQ(tuple.at(2).AsInt(), 2);
    ASSERT_EQ(tuple.size(), 4u);  // Concatenated schema.
  }
  out.take();
  join.OnTrigger(1, &out);  // Fragment 1: outer {1,3}, inner {3}.
  EXPECT_EQ(out.take().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TriggeredJoinAlgoTest,
                         ::testing::Values(JoinAlgorithm::kNestedLoop,
                                           JoinAlgorithm::kHash));

TEST(TriggeredJoinTest, RejectsMismatchedDegrees) {
  auto outer = KeyedRelation(2, {0, 1});
  auto inner = KeyedRelation(4, {0, 1});
  TriggeredJoinLogic join(outer.get(), 0, inner.get(), 0,
                          JoinAlgorithm::kNestedLoop);
  EXPECT_EQ(join.Prepare(2).code(), StatusCode::kFailedPrecondition);
}

TEST(TriggeredJoinTest, RequiresOneInstancePerFragment) {
  auto outer = KeyedRelation(4, {0, 1, 2, 3});
  auto inner = KeyedRelation(4, {0, 1, 2, 3});
  TriggeredJoinLogic join(outer.get(), 0, inner.get(), 0,
                          JoinAlgorithm::kNestedLoop);
  EXPECT_FALSE(join.Prepare(2).ok());
  EXPECT_TRUE(join.Prepare(4).ok());
}

class PipelinedJoinAlgoTest
    : public ::testing::TestWithParam<JoinAlgorithm> {};

TEST_P(PipelinedJoinAlgoTest, ProbesAgainstInstanceFragment) {
  auto inner = KeyedRelation(2, {0, 1, 2, 2, 3});
  PipelinedJoinLogic join(inner.get(), /*inner_column=*/0,
                          /*probe_column=*/0, GetParam());
  ASSERT_TRUE(join.Prepare(2).ok());
  CapturingEmitter out;
  // Probe with key 2 at instance 0 (2 % 2 == 0): matches the two 2s.
  join.OnData(0, Tuple({Value(int64_t{2}), Value(int64_t{77})}), &out);
  auto emitted = out.take();
  ASSERT_EQ(emitted.size(), 2u);
  for (const auto& [inst, tuple] : emitted) {
    EXPECT_EQ(inst, 0u);
    EXPECT_EQ(tuple.at(1).AsInt(), 77);     // Probe payload first.
    EXPECT_EQ(tuple.at(2).AsInt(), 2);      // Inner key appended.
  }
  // A probe with no match at instance 1.
  join.OnData(1, Tuple({Value(int64_t{9}), Value(int64_t{0})}), &out);
  EXPECT_TRUE(out.take().empty());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PipelinedJoinAlgoTest,
                         ::testing::Values(JoinAlgorithm::kNestedLoop,
                                           JoinAlgorithm::kHash));

TEST(StoreLogicTest, AppendsToInstanceFragment) {
  Relation result("Res", SkewSchema(), 0,
                  Partitioner(PartitionKind::kModulo, 3));
  StoreLogic store(&result);
  ASSERT_TRUE(store.Prepare(3).ok());
  store.OnData(1, Tuple({Value(int64_t{4}), Value(int64_t{0})}), nullptr);
  store.OnData(1, Tuple({Value(int64_t{7}), Value(int64_t{0})}), nullptr);
  store.OnData(2, Tuple({Value(int64_t{5}), Value(int64_t{0})}), nullptr);
  EXPECT_EQ(result.fragment(0).cardinality(), 0u);
  EXPECT_EQ(result.fragment(1).cardinality(), 2u);
  EXPECT_EQ(result.fragment(2).cardinality(), 1u);
}

TEST(MapLogicTest, TransformsAndForwards) {
  MapLogic map([](const Tuple& t, Tuple* out) {
    out->AssignFrom(t);
    out->at(0) = Value(t.at(0).AsInt() * 10);
  });
  CapturingEmitter out;
  map.OnData(3, Tuple({Value(int64_t{4}), Value(int64_t{7})}), &out);
  std::vector<Tuple> chunk = {Tuple({Value(int64_t{1}), Value(int64_t{8})}),
                              Tuple({Value(int64_t{2}), Value(int64_t{9})})};
  map.OnDataBatch(1, std::span<Tuple>(chunk), &out);
  auto emitted = out.take();
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[0].first, 3u);
  EXPECT_EQ(emitted[0].second, Tuple({Value(int64_t{40}), Value(int64_t{7})}));
  EXPECT_EQ(emitted[1].first, 1u);
  EXPECT_EQ(emitted[1].second, Tuple({Value(int64_t{10}), Value(int64_t{8})}));
  EXPECT_EQ(emitted[2].second, Tuple({Value(int64_t{20}), Value(int64_t{9})}));
}

TEST(EstimateTest, FilterEstimateUsesSelectivity) {
  auto r = KeyedRelation(4, std::vector<int64_t>(100, 0));
  // All 100 keys are 0 -> fragment 0 holds everything.
  FilterLogic filter(r.get(), MatchAll(), /*selectivity=*/0.25);
  const NodeEstimate e = filter.Estimate(CostModel{}, 0.0);
  EXPECT_DOUBLE_EQ(e.output_tuples, 25.0);
  EXPECT_DOUBLE_EQ(e.activations, 4.0);
  ASSERT_EQ(e.per_instance_work.size(), 4u);
  EXPECT_GT(e.per_instance_work[0], e.per_instance_work[1]);
}

TEST(EstimateTest, TriggeredJoinNestedLoopQuadratic) {
  auto outer = KeyedRelation(2, {0, 0, 0, 0, 1, 1});  // 4 and 2 per fragment.
  auto inner = KeyedRelation(2, {0, 0, 1, 1});        // 2 and 2.
  TriggeredJoinLogic join(outer.get(), 0, inner.get(), 0,
                          JoinAlgorithm::kNestedLoop);
  CostModel cm;
  const NodeEstimate e = join.Estimate(cm, 0.0);
  EXPECT_DOUBLE_EQ(e.per_instance_work[0], 4.0 * 2.0 * cm.nl_pair);
  EXPECT_DOUBLE_EQ(e.per_instance_work[1], 2.0 * 2.0 * cm.nl_pair);
  EXPECT_DOUBLE_EQ(e.total_work, 12.0 * cm.nl_pair);
  EXPECT_DOUBLE_EQ(e.output_tuples, 6.0);
}

TEST(EstimateTest, PipelinedJoinScalesWithInput) {
  auto inner = KeyedRelation(2, {0, 0, 1, 1});
  PipelinedJoinLogic join(inner.get(), 0, 0, JoinAlgorithm::kNestedLoop);
  CostModel cm;
  const NodeEstimate a = join.Estimate(cm, 100.0);
  const NodeEstimate b = join.Estimate(cm, 200.0);
  EXPECT_DOUBLE_EQ(b.total_work, 2.0 * a.total_work);
  EXPECT_DOUBLE_EQ(a.activations, 100.0);
}

TEST(EstimateTest, StoreLinearInInput) {
  Relation result("Res", SkewSchema(), 0,
                  Partitioner(PartitionKind::kModulo, 2));
  StoreLogic store(&result);
  CostModel cm;
  const NodeEstimate e = store.Estimate(cm, 50.0);
  EXPECT_DOUBLE_EQ(e.total_work, 50.0 * cm.store_tuple);
  EXPECT_DOUBLE_EQ(e.output_tuples, 0.0);
}

TEST(JoinAlgorithmTest, Names) {
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kNestedLoop), "nested-loop");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kHash), "hash");
}

}  // namespace
}  // namespace dbs3

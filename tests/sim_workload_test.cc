#include "sim/workload.h"

#include <numeric>

#include <gtest/gtest.h>

#include "common/zipf.h"

namespace dbs3 {
namespace {

JoinWorkloadSpec SmallSpec(double theta = 0.0) {
  JoinWorkloadSpec spec;
  spec.a_cardinality = 10'000;
  spec.b_cardinality = 1'000;
  spec.degree = 50;
  spec.theta = theta;
  spec.threads = 8;
  return spec;
}

TEST(WorkloadTest, IdealJoinHasOneTriggerPerFragment) {
  SimCosts costs;
  auto plan = BuildIdealJoinSim(SmallSpec(), costs);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().ops.size(), 1u);
  const SimOpSpec& join = plan.value().ops[0];
  EXPECT_TRUE(join.triggered());
  EXPECT_EQ(join.triggers.size(), 50u);
  EXPECT_EQ(join.instances, 50u);
  EXPECT_EQ(join.output, -1);
}

TEST(WorkloadTest, IdealJoinCostsFollowFragmentSkew) {
  SimCosts costs;
  auto flat = BuildIdealJoinSim(SmallSpec(0.0), costs);
  auto skewed = BuildIdealJoinSim(SmallSpec(1.0), costs);
  ASSERT_TRUE(flat.ok() && skewed.ok());
  auto total = [](const SimOpSpec& op) {
    double t = 0.0;
    for (const auto& trig : op.triggers) t += trig.cost;
    return t;
  };
  // Same total work whatever the skew (sum |A_i| x |B_i| is invariant when
  // B is uniform)...
  EXPECT_NEAR(total(flat.value().ops[0]), total(skewed.value().ops[0]),
              total(flat.value().ops[0]) * 0.01);
  // ...but the skewed max activation dominates.
  auto max_cost = [](const SimOpSpec& op) {
    double m = 0.0;
    for (const auto& trig : op.triggers) m = std::max(m, trig.cost);
    return m;
  };
  EXPECT_GT(max_cost(skewed.value().ops[0]),
            5.0 * max_cost(flat.value().ops[0]));
}

TEST(WorkloadTest, AssocJoinRedistributesAllBTuples) {
  SimCosts costs;
  auto plan = BuildAssocJoinSim(SmallSpec(0.5), costs);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().ops.size(), 2u);
  const SimOpSpec& transmit = plan.value().ops[0];
  const SimOpSpec& join = plan.value().ops[1];
  EXPECT_TRUE(transmit.triggered());
  EXPECT_EQ(transmit.output, 1);
  EXPECT_FALSE(join.triggered());
  uint64_t emitted = 0;
  for (const auto& trig : transmit.triggers) {
    for (const auto& e : trig.emissions) {
      emitted += e.count;
      EXPECT_LT(e.dest_instance, join.instances);
    }
  }
  EXPECT_EQ(emitted, 1'000u);
}

TEST(WorkloadTest, AssocJoinProbeLoadsUniformButCostsSkewed) {
  SimCosts costs;
  auto plan = BuildAssocJoinSim(SmallSpec(1.0), costs);
  ASSERT_TRUE(plan.ok());
  const SimOpSpec& transmit = plan.value().ops[0];
  const SimOpSpec& join = plan.value().ops[1];
  // Probe counts per instance are near-uniform (B's key domain is uniform
  // per residue class).
  std::vector<uint64_t> probes(join.instances, 0);
  for (const auto& trig : transmit.triggers) {
    for (const auto& e : trig.emissions) probes[e.dest_instance] += e.count;
  }
  const double expected = 1'000.0 / 50.0;
  for (uint64_t p : probes) {
    EXPECT_NEAR(static_cast<double>(p), expected, expected * 0.3);
  }
  // Per-probe costs mirror A's Zipf fragment sizes.
  const std::vector<uint64_t> a_counts = ZipfCounts(10'000, 50, 1.0);
  for (size_t i = 1; i < join.data_cost.size(); ++i) {
    EXPECT_LE(join.data_cost[i], join.data_cost[i - 1] + 1e-12);
  }
  EXPECT_GT(join.data_cost.front() / join.data_cost.back(), 10.0);
  (void)a_counts;
}

TEST(WorkloadTest, ThreadSplitRespectsBudget) {
  SimCosts costs;
  for (size_t n : {1ul, 2ul, 5ul, 20ul}) {
    JoinWorkloadSpec spec = SmallSpec();
    spec.threads = n;
    auto plan = BuildAssocJoinSim(spec, costs);
    ASSERT_TRUE(plan.ok());
    const size_t total =
        plan.value().ops[0].threads + plan.value().ops[1].threads;
    if (n == 1) {
      EXPECT_EQ(total, 2u);  // Each pool needs one thread.
    } else {
      EXPECT_EQ(total, n);
    }
    EXPECT_GE(plan.value().ops[1].threads, plan.value().ops[0].threads);
  }
}

TEST(WorkloadTest, IndexAlgorithmAddsSetupCost) {
  SimCosts costs;
  JoinWorkloadSpec spec = SmallSpec();
  spec.algorithm = JoinAlgorithm::kHash;
  auto plan = BuildAssocJoinSim(spec, costs);
  ASSERT_TRUE(plan.ok());
  const SimOpSpec& join = plan.value().ops[1];
  ASSERT_EQ(join.data_setup_cost.size(), join.instances);
  for (double s : join.data_setup_cost) EXPECT_GT(s, 0.0);
  // Index probes are far cheaper than nested-loop scans.
  spec.algorithm = JoinAlgorithm::kNestedLoop;
  auto nl_plan = BuildAssocJoinSim(spec, costs);
  ASSERT_TRUE(nl_plan.ok());
  EXPECT_LT(join.data_cost[0], nl_plan.value().ops[1].data_cost[0] / 5.0);
}

TEST(WorkloadTest, JoinProfileCountsActivations) {
  SimCosts costs;
  auto triggered = JoinProfile(SmallSpec(0.7), costs, /*pipelined=*/false);
  auto pipelined = JoinProfile(SmallSpec(0.7), costs, /*pipelined=*/true);
  ASSERT_TRUE(triggered.ok() && pipelined.ok());
  EXPECT_EQ(triggered.value().activations, 50u);
  EXPECT_EQ(pipelined.value().activations, 1'000u);
  // Pipelined granularity shrinks the worst-case overhead (Section 4.1).
  EXPECT_LT(OverheadBound(pipelined.value(), 8),
            OverheadBound(triggered.value(), 8));
}

TEST(WorkloadTest, ValidatesSpecs) {
  SimCosts costs;
  JoinWorkloadSpec spec = SmallSpec();
  spec.degree = 0;
  EXPECT_FALSE(BuildIdealJoinSim(spec, costs).ok());
  spec = SmallSpec();
  spec.theta = -0.1;
  EXPECT_FALSE(BuildAssocJoinSim(spec, costs).ok());
  spec = SmallSpec();
  spec.threads = 0;
  EXPECT_FALSE(BuildIdealJoinSim(spec, costs).ok());
  spec = SmallSpec();
  spec.b_cardinality = 10;  // Below the degree.
  EXPECT_FALSE(BuildAssocJoinSim(spec, costs).ok());
}

TEST(ScanWorkloadTest, RemoteCostsMoreAndShipsOnce) {
  SimCosts costs;
  ScanWorkloadSpec spec;
  spec.cardinality = 10'000;
  spec.degree = 20;
  spec.threads = 4;
  spec.remote = false;
  auto local = BuildScanSim(spec, costs);
  spec.remote = true;
  auto remote = BuildScanSim(spec, costs);
  ASSERT_TRUE(local.ok() && remote.ok());
  double local_total = 0.0, remote_total = 0.0;
  for (const auto& t : local.value().ops[0].triggers) local_total += t.cost;
  for (const auto& t : remote.value().ops[0].triggers) {
    remote_total += t.cost;
  }
  EXPECT_GT(remote_total, local_total);
  // The surcharge equals the subpage shipping cost of the whole relation.
  const double expected_extra =
      spec.allcache.RemoteExtraCost(spec.cardinality * spec.tuple_bytes);
  EXPECT_NEAR(remote_total - local_total, expected_extra,
              expected_extra * 0.05);
}

TEST(AllcacheTest, RemoteExtraCostRoundsUpSubpages) {
  AllcacheModel model;
  model.subpage_bytes = 128;
  model.remote_subpage_cost = 2.0;
  EXPECT_DOUBLE_EQ(model.RemoteExtraCost(0), 0.0);
  EXPECT_DOUBLE_EQ(model.RemoteExtraCost(1), 2.0);
  EXPECT_DOUBLE_EQ(model.RemoteExtraCost(128), 2.0);
  EXPECT_DOUBLE_EQ(model.RemoteExtraCost(129), 4.0);
}

TEST(AllcacheTest, LocalFeasibilityThreshold) {
  AllcacheModel model;
  model.local_cache_bytes = 1'000;
  EXPECT_TRUE(model.LocalFeasible(4'000, 4));
  EXPECT_FALSE(model.LocalFeasible(4'001, 4));
  EXPECT_FALSE(model.LocalFeasible(100, 0));
  // The paper's configuration: a 200K x 208 B relation fits 5 x 32 MB
  // local caches but the paper could not obtain local execution under 5
  // threads (per-thread share vs. what the run leaves resident); with the
  // default 32 MB caches our threshold flags 1 thread as still feasible in
  // capacity terms — 41.6 MB > 32 MB makes 1 thread infeasible.
  AllcacheModel ksr;
  EXPECT_FALSE(ksr.LocalFeasible(200'000ull * 208, 1));
  EXPECT_TRUE(ksr.LocalFeasible(200'000ull * 208, 5));
}

}  // namespace
}  // namespace dbs3

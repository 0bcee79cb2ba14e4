// Regression guards for the paper reproduction: every headline property of
// Figures 8-19 (as recorded in EXPERIMENTS.md) asserted programmatically,
// on reduced-size workloads where the full sweep would be slow.

#include <algorithm>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "model/analysis.h"
#include "sim/machine.h"
#include "sim/workload.h"

namespace dbs3 {
namespace {

SimMachineConfig Ksr(const SimCosts& costs, size_t processors = 70) {
  SimMachineConfig config;
  config.processors = processors;
  config.thread_startup_cost = costs.thread_startup;
  config.queue_create_cost = costs.queue_create;
  config.queue_scan_cost = costs.queue_scan;
  config.seed = 42;
  return config;
}

double RunPlan(const SimPlanSpec& plan, const SimMachineConfig& config) {
  SimMachine machine(config);
  auto result = machine.Run(plan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result.value().elapsed : -1.0;
}

TEST(PaperFiguresTest, Fig08AllcacheOverheadSmallAndDecreasing) {
  SimCosts costs;
  double prev_delta = 1e30;
  for (size_t n : {5ul, 15ul, 30ul}) {
    ScanWorkloadSpec spec;
    spec.cardinality = 200'000;
    spec.degree = 200;
    spec.threads = n;
    spec.remote = false;
    auto local = BuildScanSim(spec, costs);
    spec.remote = true;
    auto remote = BuildScanSim(spec, costs);
    ASSERT_TRUE(local.ok() && remote.ok());
    const double tl = RunPlan(local.value(), Ksr(costs, 30));
    const double tr = RunPlan(remote.value(), Ksr(costs, 30));
    const double delta = tr - tl;
    EXPECT_GT(delta, 0.0);
    EXPECT_LT(delta / tr, 0.06) << "overhead should stay ~4%";
    EXPECT_LT(delta, prev_delta) << "Tr - Tl must decrease with threads";
    prev_delta = delta;
  }
}

TEST(PaperFiguresTest, Fig12AssocJoinFlatAcrossSkew) {
  SimCosts costs;
  std::vector<double> times;
  for (double theta : {0.0, 0.5, 1.0}) {
    JoinWorkloadSpec spec;
    spec.a_cardinality = 50'000;
    spec.b_cardinality = 5'000;
    spec.degree = 200;
    spec.theta = theta;
    spec.threads = 10;
    auto plan = BuildAssocJoinSim(spec, costs);
    ASSERT_TRUE(plan.ok());
    times.push_back(RunPlan(plan.value(), Ksr(costs)));
  }
  const Summary s = Summarize(times);
  EXPECT_LT(s.max / s.min - 1.0, 0.03)
      << "pipelined execution must be skew-insensitive";
}

TEST(PaperFiguresTest, Fig12EngineThreadsBalancedDespiteInstanceSkew) {
  // The engine-side counterpart of Figure 12, on the real thread pool: the
  // Zipf skew of the transmitted A lands squarely on the join *instances*
  // (per-instance tuple counts spread by multiples of the mean), but the
  // shared pool absorbs it — every join thread's busy time stays within a
  // factor of the others'. That decoupling is the paper's core claim.
  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 20'000;
  spec.b_cardinality = 4'000;
  spec.degree = 32;
  spec.theta = 1.0;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "Bp").ok());

  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto result = RunAssocJoin(db, "A", "key", "Bp", "key", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const OperationStats* join = nullptr;
  for (const OperationStats& op : result.value().execution.op_stats) {
    if (op.name == "join") join = &op;
  }
  ASSERT_NE(join, nullptr);

  // Instance side: Zipf-1 over 32 fragments puts several times the mean on
  // the heaviest instance (analytically ~8x; leave margin for hashing).
  uint64_t max_units = 0, total_units = 0;
  for (uint64_t c : join->per_instance_processed) {
    max_units = std::max(max_units, c);
    total_units += c;
  }
  const double mean_units =
      static_cast<double>(total_units) / static_cast<double>(32);
  ASSERT_GT(mean_units, 0.0);
  EXPECT_GT(static_cast<double>(max_units) / mean_units, 3.0)
      << "the workload must actually be instance-skewed";

  // Thread side: per-thread busy seconds of the pipelined join stay
  // comparable — no thread does the overwhelming share.
  ASSERT_FALSE(join->per_thread_busy_seconds.empty());
  double busy_max = 0.0, busy_sum = 0.0;
  for (double b : join->per_thread_busy_seconds) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  const double busy_mean =
      busy_sum / static_cast<double>(join->per_thread_busy_seconds.size());
  ASSERT_GT(busy_mean, 0.0);
  EXPECT_LT(busy_max / busy_mean, 2.0)
      << "pipelined activations must spread instance skew over the pool";
  // And the split accounting holds: summed thread busy == busy_seconds.
  EXPECT_NEAR(busy_sum, join->busy_seconds, 1e-9);
}

TEST(PaperFiguresTest, Fig13LptFlatToZipf08ThenPmaxBound) {
  SimCosts costs;
  JoinWorkloadSpec spec;
  spec.a_cardinality = 100'000;
  spec.b_cardinality = 10'000;
  spec.degree = 200;
  spec.threads = 10;
  spec.strategy = Strategy::kLpt;

  spec.theta = 0.0;
  auto p0 = JoinProfile(spec, costs, false);
  ASSERT_TRUE(p0.ok());
  const double ideal = TIdeal(p0.value(), 10);

  spec.theta = 0.8;
  auto plan08 = BuildIdealJoinSim(spec, costs);
  ASSERT_TRUE(plan08.ok());
  const double t08 = RunPlan(plan08.value(), Ksr(costs));
  EXPECT_LT(t08 / ideal, 1.06) << "LPT within a few % of ideal at Zipf 0.8";

  spec.theta = 1.0;
  auto plan10 = BuildIdealJoinSim(spec, costs);
  auto p10 = JoinProfile(spec, costs, false);
  ASSERT_TRUE(plan10.ok() && p10.ok());
  const double t10 = RunPlan(plan10.value(), Ksr(costs));
  // Past the inflection the longest activation bounds the response time.
  EXPECT_GE(t10, p10.value().max_cost * 0.99);
  EXPECT_LE(t10, p10.value().max_cost * 1.10);
}

TEST(PaperFiguresTest, Fig14SkewedAssocJoinTracksUnskewed) {
  SimCosts costs;
  double speedup[2];
  int i = 0;
  for (double theta : {0.0, 1.0}) {
    JoinWorkloadSpec spec;
    spec.a_cardinality = 100'000;
    spec.b_cardinality = 10'000;
    spec.degree = 200;
    spec.theta = theta;
    spec.threads = 70;
    auto plan = BuildAssocJoinSim(spec, costs);
    ASSERT_TRUE(plan.ok());
    auto profile = JoinProfile(spec, costs, true);
    ASSERT_TRUE(profile.ok());
    const double tseq = profile.value().TotalWork();
    speedup[i++] = tseq / RunPlan(plan.value(), Ksr(costs));
  }
  EXPECT_GT(speedup[0], 45.0) << "strong speed-up at 70 threads";
  EXPECT_GT(speedup[1] / speedup[0], 0.93)
      << "skewed within ~5% of unskewed (paper: < 5%)";
}

TEST(PaperFiguresTest, Fig15SpeedupPlateausAtNMax) {
  SimCosts costs;
  // Zipf 1: nmax ~ 5.9 over 200 fragments. Speed-up at 40 threads must not
  // exceed nmax and must roughly reach it.
  JoinWorkloadSpec spec;
  spec.a_cardinality = 100'000;
  spec.b_cardinality = 10'000;
  spec.degree = 200;
  spec.theta = 1.0;
  spec.threads = 40;
  spec.strategy = Strategy::kLpt;
  auto plan = BuildIdealJoinSim(spec, costs);
  auto profile = JoinProfile(spec, costs, false);
  ASSERT_TRUE(plan.ok() && profile.ok());
  const double nmax = NMax(profile.value());
  EXPECT_NEAR(nmax, 5.9, 0.3);
  const double speedup =
      profile.value().TotalWork() / RunPlan(plan.value(), Ksr(costs));
  EXPECT_LE(speedup, nmax * 1.02);
  EXPECT_GE(speedup, nmax * 0.85);
}

TEST(PaperFiguresTest, Fig16OverheadSlopesOrdered) {
  // AssocJoin's partitioning overhead grows much faster than IdealJoin's
  // (paper: ~4 vs ~0.45 ms/degree).
  SimCosts costs;
  auto run = [&](bool assoc, size_t degree) {
    JoinWorkloadSpec spec;
    spec.a_cardinality = 50'000;
    spec.b_cardinality = 5'000;
    spec.degree = degree;
    spec.threads = 20;
    auto plan = assoc ? BuildAssocJoinSim(spec, costs)
                      : BuildIdealJoinSim(spec, costs);
    EXPECT_TRUE(plan.ok());
    return RunPlan(plan.value(), Ksr(costs));
  };
  const double ideal_ovh =
      run(false, 1000) - run(false, 20) * (20.0 / 1000.0);
  const double assoc_ovh = run(true, 1000) - run(true, 20) * (20.0 / 1000.0);
  EXPECT_GT(ideal_ovh, 0.0);
  EXPECT_GT(assoc_ovh, 2.0 * ideal_ovh)
      << "pipelined overhead must dominate (two queue groups + many "
         "activations)";
  // Both stay small in absolute terms (sub-ms per degree).
  EXPECT_LT(ideal_ovh / 980.0, 2e-3);
  EXPECT_LT(assoc_ovh / 980.0, 8e-3);
}

TEST(PaperFiguresTest, Fig17IndexJoinHasUsefulHighDegrees) {
  // With a temporary index, raising the degree from 20 well past 250 must
  // not hurt IdealJoin (the paper's "limited impact of the overhead").
  SimCosts costs;
  auto run = [&](size_t degree) {
    JoinWorkloadSpec spec;
    spec.a_cardinality = 200'000;
    spec.b_cardinality = 20'000;
    spec.degree = degree;
    spec.threads = 20;
    spec.algorithm = JoinAlgorithm::kHash;
    auto plan = BuildIdealJoinSim(spec, costs);
    EXPECT_TRUE(plan.ok());
    return RunPlan(plan.value(), Ksr(costs));
  };
  const double t20 = run(20);
  const double t500 = run(500);
  EXPECT_LT(t500, t20) << "smaller fragments make the index cheaper";
}

TEST(PaperFiguresTest, Fig18HighDegreeErasesTriggeredSkew) {
  SimCosts costs;
  auto v = [&](size_t degree) {
    auto run = [&](double theta) {
      JoinWorkloadSpec spec;
      spec.a_cardinality = 100'000;
      spec.b_cardinality = 10'000;
      spec.degree = degree;
      spec.theta = theta;
      spec.threads = 20;
      spec.strategy = Strategy::kLpt;
      auto plan = BuildIdealJoinSim(spec, costs);
      EXPECT_TRUE(plan.ok());
      return RunPlan(plan.value(), Ksr(costs));
    };
    return run(0.6) / run(0.0) - 1.0;
  };
  const double v_low = v(20);
  const double v_high = v(800);
  EXPECT_GT(v_low, 1.0) << "low degree: the longest fragment dominates";
  EXPECT_LT(v_high, 0.10) << "high degree: LPT rebalances the skew away";
}

TEST(PaperFiguresTest, Fig19SavedTimeExceedsUnskewedTime) {
  SimCosts costs;
  auto run = [&](size_t degree, double theta) {
    JoinWorkloadSpec spec;
    spec.a_cardinality = 200'000;
    spec.b_cardinality = 20'000;
    spec.degree = degree;
    spec.theta = theta;
    spec.threads = 20;
    spec.strategy = Strategy::kLpt;
    spec.algorithm = JoinAlgorithm::kHash;
    auto plan = BuildIdealJoinSim(spec, costs);
    EXPECT_TRUE(plan.ok());
    return RunPlan(plan.value(), Ksr(costs));
  };
  const double saved = run(40, 0.6) - run(1000, 0.6);
  const double t0 = run(250, 0.0);
  EXPECT_GT(saved, t0)
      << "raising the degree saves more than the whole unskewed run";
}

}  // namespace
}  // namespace dbs3

// Reproduces Figure 19: time saved by increasing the degree of
// partitioning, IdealJoin with temporary index on skewed data.
//
// Paper setup: 500K/50K, Zipf 0.6, LPT, 20 threads. The saved time is the
// reduction of T_0.6 relative to the lowest degree (the figure's x axis
// starts at 40); the paper anchors the scale with the unskewed execution
// time T_0 = 7.34 s. Expected: several seconds saved — more than the whole
// unskewed execution time — flattening at high degree.

#include <cstdio>

#include "bench/bench_util.h"
#include "sim/workload.h"

namespace dbs3 {
namespace {

double RunOne(size_t degree, double theta, const SimCosts& costs) {
  JoinWorkloadSpec spec;
  spec.a_cardinality = 500'000;
  spec.b_cardinality = 50'000;
  spec.degree = degree;
  spec.theta = theta;
  spec.threads = 20;
  spec.strategy = Strategy::kLpt;
  spec.algorithm = JoinAlgorithm::kHash;
  SimPlanSpec plan = UnwrapOrDie(BuildIdealJoinSim(spec, costs), "build");
  SimMachine machine(KsrConfig(costs));
  return UnwrapOrDie(machine.Run(plan), "run").elapsed;
}

void Run() {
  PrintHeader("Figure 19",
              "Saved time vs degree, IdealJoin with temp index, Zipf 0.6");
  std::printf("A=500K, B'=50K, 20 threads, LPT\n");

  SimCosts costs;
  const double t0_unskewed = RunOne(250, 0.0, costs);
  std::printf("unskewed execution time T0 = %.2f s (paper: 7.34 s)\n\n",
              t0_unskewed);

  const double base = RunOne(40, 0.6, costs);
  std::printf("%8s %14s %14s\n", "degree", "T_0.6(s)", "saved(s)");
  for (size_t d : {40ul, 100ul, 250ul, 500ul, 750ul, 1000ul, 1250ul,
                   1500ul}) {
    const double t = RunOne(d, 0.6, costs);
    std::printf("%8zu %14.2f %14.2f\n", d, t, base - t);
  }
  std::printf("\npaper: saved time grows to ~8 s, exceeding the whole "
              "unskewed execution time\n");
}

}  // namespace
}  // namespace dbs3

int main() {
  dbs3::Run();
  return 0;
}

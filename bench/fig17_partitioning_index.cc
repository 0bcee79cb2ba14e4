// Reproduces Figure 17: execution time vs. degree of partitioning with a
// temporary index.
//
// Paper setup: 500K/50K unskewed relations, 20 threads, on-the-fly
// temporary index, degree 20..1500. Expected: a U shape — smaller fragments
// make the index cheaper to build and probe, until the partitioning
// overhead dominates (past d ~ 1000 for AssocJoin, d ~ 1400 for IdealJoin);
// absolute times in the 4..12 s range.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/workload.h"

namespace dbs3 {
namespace {

double RunQuery(bool assoc, size_t degree, const SimCosts& costs) {
  JoinWorkloadSpec spec;
  spec.a_cardinality = 500'000;
  spec.b_cardinality = 50'000;
  spec.degree = degree;
  spec.theta = 0.0;
  spec.threads = 20;
  spec.algorithm = JoinAlgorithm::kHash;
  // Production cache setting: with 50K probe activations the pipelined join
  // drains its queues in batches (the engine's internal activation cache).
  spec.cache_size = 8;
  SimPlanSpec plan = UnwrapOrDie(
      assoc ? BuildAssocJoinSim(spec, costs) : BuildIdealJoinSim(spec, costs),
      "build");
  SimMachine machine(KsrConfig(costs));
  return UnwrapOrDie(machine.Run(plan), "run").elapsed;
}

void Run() {
  PrintHeader("Figure 17",
              "Execution time vs degree of partitioning (temp index)");
  std::printf("A=500K, B'=50K unskewed, 20 threads, temporary index\n");
  std::printf("paper: decreasing then rising; overhead dominates past d ~ "
              "1000 (AssocJoin) / ~1400 (IdealJoin)\n\n");

  const std::vector<size_t> degrees = {20,  100,  250,  500, 750,
                                       1000, 1250, 1500};
  SimCosts costs;
  std::printf("%8s %16s %16s\n", "degree", "IdealJoin(s)", "AssocJoin(s)");
  double prev_ideal = 0.0, prev_assoc = 0.0;
  size_t min_ideal_d = 0, min_assoc_d = 0;
  double min_ideal = 1e30, min_assoc = 1e30;
  for (size_t d : degrees) {
    const double t_ideal = RunQuery(false, d, costs);
    const double t_assoc = RunQuery(true, d, costs);
    std::printf("%8zu %16.2f %16.2f\n", d, t_ideal, t_assoc);
    if (t_ideal < min_ideal) {
      min_ideal = t_ideal;
      min_ideal_d = d;
    }
    if (t_assoc < min_assoc) {
      min_assoc = t_assoc;
      min_assoc_d = d;
    }
    prev_ideal = t_ideal;
    prev_assoc = t_assoc;
  }
  (void)prev_ideal;
  (void)prev_assoc;
  std::printf("\nminimum: IdealJoin at d=%zu (paper: gains until ~1400), "
              "AssocJoin at d=%zu (paper: gains until ~1000)\n",
              min_ideal_d, min_assoc_d);
}

}  // namespace
}  // namespace dbs3

int main() {
  dbs3::Run();
  return 0;
}

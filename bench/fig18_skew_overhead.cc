// Reproduces Figure 18: skew overhead of IdealJoin vs. degree of
// partitioning.
//
// Paper setup (Section 5.6.2): IdealJoin, 20 threads, LPT; nested loop on
// 100K/10K and temporary index on 500K/50K; Zipf 0.6 vs unskewed; degree
// 20..1500. v_0.6 = T_0.6 / T_0 - 1. Expected: the two curves nearly
// coincide (the behaviour under skew is independent of the join algorithm)
// and fall towards ~0 as the degree grows, under the analytical bound
// v_worst; at low degree the longest fragment dominates (v ~ 2.5).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "model/analysis.h"
#include "sim/workload.h"

namespace dbs3 {
namespace {

JoinWorkloadSpec MakeSpec(bool index, size_t degree, double theta) {
  JoinWorkloadSpec spec;
  if (index) {
    spec.a_cardinality = 500'000;
    spec.b_cardinality = 50'000;
    spec.algorithm = JoinAlgorithm::kHash;
  } else {
    spec.a_cardinality = 100'000;
    spec.b_cardinality = 10'000;
    spec.algorithm = JoinAlgorithm::kNestedLoop;
  }
  spec.degree = degree;
  spec.theta = theta;
  spec.threads = 20;
  spec.strategy = Strategy::kLpt;
  return spec;
}

double RunOne(const JoinWorkloadSpec& spec, const SimCosts& costs) {
  SimPlanSpec plan = UnwrapOrDie(BuildIdealJoinSim(spec, costs), "build");
  SimMachine machine(KsrConfig(costs));
  return UnwrapOrDie(machine.Run(plan), "run").elapsed;
}

void Run() {
  PrintHeader("Figure 18", "Skew overhead v_0.6 of IdealJoin vs degree");
  std::printf("20 threads, LPT; nested loop on 100K/10K, temp index on "
              "500K/50K; Zipf 0.6\n");
  std::printf("paper: the two curves almost coincide and fall towards 0 as "
              "the degree grows\n\n");
  std::printf("%8s %14s %14s %12s\n", "degree", "v (nested)", "v (index)",
              "v_worst");

  SimCosts costs;
  for (size_t d : {20ul, 100ul, 250ul, 500ul, 750ul, 1000ul, 1250ul,
                   1500ul}) {
    const double v_nl =
        RunOne(MakeSpec(false, d, 0.6), costs) /
            RunOne(MakeSpec(false, d, 0.0), costs) -
        1.0;
    const double v_ix =
        RunOne(MakeSpec(true, d, 0.6), costs) /
            RunOne(MakeSpec(true, d, 0.0), costs) -
        1.0;
    OperationProfile p = UnwrapOrDie(
        JoinProfile(MakeSpec(false, d, 0.6), costs, /*pipelined=*/false),
        "profile");
    std::printf("%8zu %14.2f %14.2f %12.2f\n", d, v_nl, v_ix,
                OverheadBound(p, 20));
  }
  std::printf("\npaper also verified the pipelined AssocJoin stays at "
              "v_0.6 < 0.03 for any degree:\n");
  for (size_t d : {100ul, 500ul, 1500ul}) {
    JoinWorkloadSpec skew = MakeSpec(false, d, 0.6);
    JoinWorkloadSpec flat = MakeSpec(false, d, 0.0);
    SimMachine m1(KsrConfig(costs));
    SimMachine m2(KsrConfig(costs));
    const double t_skew =
        UnwrapOrDie(m1.Run(UnwrapOrDie(BuildAssocJoinSim(skew, costs),
                                       "build")),
                    "run")
            .elapsed;
    const double t_flat =
        UnwrapOrDie(m2.Run(UnwrapOrDie(BuildAssocJoinSim(flat, costs),
                                       "build")),
                    "run")
            .elapsed;
    std::printf("  AssocJoin d=%-5zu v_0.6 = %.3f\n", d,
                t_skew / t_flat - 1.0);
  }
}

}  // namespace
}  // namespace dbs3

int main() {
  dbs3::Run();
  return 0;
}

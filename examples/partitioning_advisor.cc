// Partitioning advisor: given a workload (relation sizes, skew, thread
// budget, join algorithm), sweep the degree of partitioning on the
// simulated machine and recommend the degree minimizing response time —
// automating the tuning study of Section 5.6.
//
//   $ ./build/examples/partitioning_advisor [a_card] [b_card] [zipf]
//         [threads] [nl|index]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "sim/machine.h"
#include "sim/workload.h"

namespace {

double Simulate(const dbs3::JoinWorkloadSpec& spec,
                const dbs3::SimCosts& costs) {
  auto plan = dbs3::BuildIdealJoinSim(spec, costs);
  if (!plan.ok()) return -1.0;
  dbs3::SimMachineConfig config;
  config.processors = 70;
  config.thread_startup_cost = costs.thread_startup;
  config.queue_create_cost = costs.queue_create;
  config.queue_scan_cost = costs.queue_scan;
  dbs3::SimMachine machine(config);
  auto result = machine.Run(plan.value());
  return result.ok() ? result.value().elapsed : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbs3;
  JoinWorkloadSpec spec;
  spec.a_cardinality = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                : 500'000;
  spec.b_cardinality = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                : 50'000;
  spec.theta = argc > 3 ? std::atof(argv[3]) : 0.6;
  spec.threads = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 20;
  spec.algorithm = (argc > 5 && std::strcmp(argv[5], "nl") == 0)
                       ? JoinAlgorithm::kNestedLoop
                       : JoinAlgorithm::kHash;
  spec.strategy = Strategy::kLpt;

  std::printf("advising degree of partitioning for IdealJoin:\n");
  std::printf("  |A| = %llu, |B| = %llu, skew Zipf=%.2f, %zu threads, %s\n\n",
              static_cast<unsigned long long>(spec.a_cardinality),
              static_cast<unsigned long long>(spec.b_cardinality),
              spec.theta, spec.threads,
              JoinAlgorithmName(spec.algorithm));

  SimCosts costs;
  std::printf("%10s %14s\n", "degree", "time(s)");
  double best_time = -1.0;
  size_t best_degree = 0;
  for (size_t degree = spec.threads; degree <= 2'000;
       degree = degree < 100 ? degree * 2 : degree + 200) {
    if (spec.b_cardinality < degree) break;
    spec.degree = degree;
    const double t = Simulate(spec, costs);
    if (t < 0) continue;
    std::printf("%10zu %14.2f%s\n", degree, t,
                (best_time < 0 || t < best_time) ? "  <-" : "");
    if (best_time < 0 || t < best_time) {
      best_time = t;
      best_degree = degree;
    }
  }
  std::printf("\nrecommended degree of partitioning: %zu (%.2f s)\n",
              best_degree, best_time);
  std::printf("constraint honored: degree >= degree of parallelism (%zu)\n",
              spec.threads);
  return 0;
}

// The Wisconsin benchmark queries [Bitton83] — the workload family the
// paper measures with — expressed in ESQL and executed in parallel:
// selections of several selectivities, a projection, joins and an
// aggregation, with per-query physical plans and timings.
//
//   $ ./build/examples/wisconsin_queries [cardinality] [degree]

#include <cstdio>
#include <cstdlib>

#include "esql/planner.h"

namespace {

void Run(dbs3::Database& db, const char* label, const std::string& query) {
  dbs3::EsqlOptions options;
  options.schedule.processors = 8;
  auto result = dbs3::ExecuteEsql(db, query, options);
  if (!result.ok()) {
    std::printf("%-28s ERROR %s\n", label,
                result.status().ToString().c_str());
    return;
  }
  std::printf("%-28s %8llu rows %8.1f ms  [%s]\n", label,
              static_cast<unsigned long long>(
                  result.value().result->cardinality()),
              result.value().execution.seconds * 1e3,
              result.value().detail.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbs3;
  const uint64_t cardinality =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10'000;
  const size_t degree = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;

  Database db(8);
  WisconsinOptions opt;
  opt.cardinality = cardinality;
  opt.degree = degree;
  opt.partition_column = "unique1";
  opt.partition_kind = PartitionKind::kModulo;
  if (!db.CreateWisconsin("tenktup1", opt).ok()) return 1;
  opt.seed = 7;
  if (!db.CreateWisconsin("tenktup2", opt).ok()) return 1;
  std::printf("Wisconsin relations: tenktup1, tenktup2 (%llu tuples, %zu "
              "fragments)\n\n",
              static_cast<unsigned long long>(cardinality), degree);

  // Query 1/3-style selections (1% and 10% selectivity).
  Run(db, "1% selection",
      "SELECT * FROM tenktup1 WHERE onePercent = 5");
  Run(db, "10% selection",
      "SELECT * FROM tenktup1 WHERE tenPercent = 5");
  // Range selection on the key.
  Run(db, "key range",
      "SELECT * FROM tenktup1 WHERE unique1 < 1000");
  // Projection (1% of columns... well, two of them).
  Run(db, "projection",
      "SELECT unique1, onePercent FROM tenktup1 WHERE twentyPercent = 3");
  // JoinAselB: co-partitioned key join with a selection.
  Run(db, "JoinAselB",
      "SELECT * FROM tenktup1 JOIN tenktup2 ON tenktup1.unique1 = "
      "tenktup2.unique1 WHERE tenktup2.tenPercent = 1");
  // Plain key join (IdealJoin-able).
  Run(db, "key join",
      "SELECT * FROM tenktup1 JOIN tenktup2 ON tenktup1.unique1 = "
      "tenktup2.unique1");
  // Aggregates: MIN on the key, grouped aggregation on onePercent.
  Run(db, "MIN(unique1)", "SELECT MIN(unique1) FROM tenktup1");
  Run(db, "grouped SUM",
      "SELECT onePercent, SUM(unique2) FROM tenktup1 GROUP BY onePercent");
  // Sorted output.
  Run(db, "sorted selection",
      "SELECT unique1 FROM tenktup1 WHERE onePercent = 7 "
      "ORDER BY unique1");
  return 0;
}

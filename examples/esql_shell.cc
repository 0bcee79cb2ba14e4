// An interactive ESQL shell over a demo database — type queries, get
// parallel execution with the planner's physical strategy printed.
//
//   $ ./build/examples/esql_shell
//   dbs3> SELECT city_id, COUNT(*) AS n FROM residents GROUP BY city_id ORDER BY n DESC
//
// The demo database models the paper's own skew example: a residents
// relation where 'Paris' dominates the city column (attribute value skew),
// plus a cities relation keyed by city id.
//
// Pass queries as arguments to run non-interactively; the shell exits 1
// when any of them fails:
//   $ ./build/examples/esql_shell "SELECT COUNT(*) FROM residents"

#include <cstdio>
#include <iostream>
#include <string>

#include "common/zipf.h"
#include "esql/planner.h"

namespace {

constexpr const char* kCityNames[] = {
    "Paris",    "Marseille", "Lyon",     "Toulouse", "Nice",
    "Nantes",   "Montpellier", "Strasbourg", "Bordeaux", "Lille",
    "Rennes",   "Reims",     "Toulon",   "Grenoble", "Dijon",
    "Angers",   "Nimes",     "Cannes",   "Avignon",  "Annecy"};
constexpr size_t kCities = sizeof(kCityNames) / sizeof(kCityNames[0]);

dbs3::Status BuildDemoDatabase(dbs3::Database* db) {
  using namespace dbs3;
  const size_t degree = 16;

  // cities(id, name, region): partitioned on id.
  auto cities = std::make_unique<Relation>(
      "cities",
      Schema({{"id", ValueType::kInt64},
              {"name", ValueType::kString},
              {"region", ValueType::kInt64}}),
      0, Partitioner(PartitionKind::kModulo, degree));
  for (size_t c = 0; c < kCities; ++c) {
    DBS3_RETURN_IF_ERROR(cities->Insert(
        Tuple({Value(static_cast<int64_t>(c)), Value(std::string(kCityNames[c])),
               Value(static_cast<int64_t>(c % 5))})));
  }
  DBS3_RETURN_IF_ERROR(db->AddRelation(std::move(cities)));

  // residents(id, city_id, age, income): city frequencies follow Zipf —
  // 'Paris' is far more frequent than 'Cannes' (the paper's AVS example).
  auto residents = std::make_unique<Relation>(
      "residents",
      Schema({{"id", ValueType::kInt64},
              {"city_id", ValueType::kInt64},
              {"age", ValueType::kInt64},
              {"income", ValueType::kInt64}}),
      0, Partitioner(PartitionKind::kModulo, degree));
  ZipfSampler city_sampler(kCities, 0.9);
  Rng rng(2026);
  for (int64_t id = 0; id < 50'000; ++id) {
    const int64_t city = static_cast<int64_t>(city_sampler.Sample(rng));
    const int64_t age = rng.Range(0, 99);
    const int64_t income = rng.Range(10'000, 120'000);
    DBS3_RETURN_IF_ERROR(residents->Insert(
        Tuple({Value(id), Value(city), Value(age), Value(income)})));
  }
  return db->AddRelation(std::move(residents));
}

/// Runs one query and prints its plan and rows; false when it failed.
bool RunQuery(dbs3::Database& db, const std::string& query) {
  dbs3::EsqlOptions options;
  options.schedule.processors = 8;
  auto result = dbs3::ExecuteEsql(db, query, options);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return false;
  }
  const dbs3::Relation& rel = *result.value().result;
  // Header.
  const size_t phases = result.value().phases.size() + 1;
  std::printf("physical: %s  (%zu phase%s, %zu threads, %.1f ms)\n",
              result.value().detail.c_str(), phases, phases > 1 ? "s" : "",
              result.value().schedule.total_threads,
              result.value().execution.seconds * 1e3);
  for (const dbs3::Column& c : rel.schema().columns()) {
    std::printf("%-16s", c.name.c_str());
  }
  std::printf("\n");
  // Rows (capped for the terminal).
  constexpr size_t kMaxRows = 20;
  size_t shown = 0;
  for (const dbs3::Tuple& t : rel.Scan()) {
    if (shown++ >= kMaxRows) break;
    for (const dbs3::Value& v : t.values()) {
      std::printf("%-16s", v.ToString().c_str());
    }
    std::printf("\n");
  }
  const uint64_t total = rel.cardinality();
  if (total > kMaxRows) {
    std::printf("... (%llu rows total)\n",
                static_cast<unsigned long long>(total));
  } else {
    std::printf("(%llu rows)\n", static_cast<unsigned long long>(total));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dbs3::Database db(8);
  const dbs3::Status status = BuildDemoDatabase(&db);
  if (!status.ok()) {
    std::fprintf(stderr, "demo database: %s\n", status.ToString().c_str());
    return 1;
  }

  if (argc > 1) {
    int exit_code = 0;
    for (int i = 1; i < argc; ++i) {
      std::printf("dbs3> %s\n", argv[i]);
      if (!RunQuery(db, argv[i])) exit_code = 1;
    }
    return exit_code;
  }

  std::printf("DBS3 ESQL shell — demo relations: residents(id, city_id, "
              "age, income), cities(id, name, region)\n");
  std::printf("try: SELECT city_id, COUNT(*) AS n FROM residents GROUP BY "
              "city_id ORDER BY n DESC\n");
  std::string line;
  while (true) {
    std::printf("dbs3> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line == "quit" || line == "exit" || line == "\\q") break;
    if (line.empty()) continue;
    RunQuery(db, line);
  }
  return 0;
}

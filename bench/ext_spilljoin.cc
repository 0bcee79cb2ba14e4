// Extension: the memory-budgeted operators under pressure — a sweep of
// build cardinality × declared budget × build-side key skew over a
// join + aggregate ESQL workload.
//
// Each dataset point first runs the workload unbudgeted (the in-memory
// reference rows and baseline wall time), then re-runs it under each
// budget through Database::Submit. Per budgeted run the benchmark
// records whether the rows are byte-identical to the reference, the
// query's quota high-water mark (the enforcement evidence: it must stay
// within the declared budget plus the bounded forced-progress slack),
// the spill bytes the run wrote, and the wall-time overhead of spilling.
// The hot-key datasets concentrate one build partition so the join
// exercises recursive repartitioning and the nested-loop fallback, not
// just the clean partition-wise path.
//
// Writes BENCH_ext_spilljoin.json and exits with its gate's verdict
// (BenchReport). All three checks are hard: every budgeted point matches
// the reference, every high water respects its budget plus
// kHighWaterSlackUnits, and at least one point actually spilled (else the
// sweep never pressured the budget and the gate is vacuous).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "dbs3/database.h"
#include "esql/planner.h"
#include "storage/relation.h"

namespace dbs3 {
namespace {

constexpr int kReps = 3;  // Best-of to damp noise.
// Declared budgets in tuple units. The small one is far below every
// build side (always spills); the large one only pressures the bigger
// datasets.
constexpr uint64_t kBudgets[] = {96, 1024};
// Distinct aggregation groups — enough that tight budgets also flush
// group-by state, not just join partitions.
constexpr int64_t kGroups = 400;
// Gate: how far a quota high-water mark may exceed its budget, in units.
// The slack covers the operators' bounded forced-progress overshoot.
constexpr int64_t kHighWaterSlackUnits = 64;

struct DataSpec {
  const char* skew;     ///< "uniform" or "hot" (80% of B on one key).
  size_t a_rows;        ///< Probe side.
  size_t b_rows;        ///< Build side (what the budget squeezes).
  int hot_percent;      ///< Share of B rows on the hot key.
  uint64_t seed;
};

constexpr DataSpec kDatasets[] = {
    {"uniform", 6'000, 1'500, 0, 17},
    {"hot", 6'000, 1'500, 80, 18},
    {"uniform", 24'000, 6'000, 0, 19},
    {"hot", 24'000, 6'000, 80, 20},
};

const char* kQuery =
    "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) "
    "FROM A JOIN B ON A.k = B.k GROUP BY g";

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// A(k, v) uniform probe side; B(k, g) build side, optionally with
/// `hot_percent` of its rows on key 7 (tuple placement skew on the build
/// relation, so the join's partitions — not just the probe stream — are
/// skewed).
std::unique_ptr<Database> BuildDatabase(const DataSpec& spec) {
  auto db = std::make_unique<Database>(2);
  Rng rng(spec.seed);
  auto a = std::make_unique<Relation>(
      "A", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 4));
  for (size_t i = 0; i < spec.a_rows; ++i) {
    CheckOk(a->Insert(Tuple(
                {Value(rng.Range(0, static_cast<int64_t>(spec.b_rows) - 1)),
                 Value(rng.Range(-50, 50))})),
            "insert A");
  }
  auto b = std::make_unique<Relation>(
      "B", Schema({{"k", ValueType::kInt64}, {"g", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 4));
  for (size_t i = 0; i < spec.b_rows; ++i) {
    const int64_t key =
        rng.Range(0, 99) < spec.hot_percent
            ? int64_t{7}
            : rng.Range(0, static_cast<int64_t>(spec.b_rows) - 1);
    CheckOk(b->Insert(Tuple({Value(key), Value(rng.Range(0, kGroups - 1))})),
            "insert B");
  }
  CheckOk(db->AddRelation(std::move(a)), "add A");
  CheckOk(db->AddRelation(std::move(b)), "add B");
  return db;
}

struct RunOutcome {
  std::vector<Tuple> rows;       ///< Sorted result rows.
  double wall_s = 0.0;           ///< Best-of-kReps.
  uint64_t high_water_units = 0;
  uint64_t spill_bytes = 0;      ///< Delta across the best rep's run.
};

/// Runs the workload at `budget` (0 = unbudgeted) best-of-kReps through
/// the concurrent runtime, so quota high water comes from the query's
/// own stats.
RunOutcome RunWorkload(Database& db, uint64_t budget) {
  EsqlOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  options.memory_units = budget;
  RunOutcome out;
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t spilled_before =
        db.metrics().Snapshot().counters["spill.bytes_written"];
    const auto start = std::chrono::steady_clock::now();
    QueryHandle handle = SubmitEsql(db, kQuery, options);
    Result<QueryResult> taken = handle.Take();
    const double wall = Seconds(std::chrono::steady_clock::now() - start);
    CheckOk(taken.status(), "SubmitEsql");
    const uint64_t spilled =
        db.metrics().Snapshot().counters["spill.bytes_written"] -
        spilled_before;
    if (rep == 0 || wall < out.wall_s) {
      out.wall_s = wall;
      out.rows = taken.value().result->Scan();
      std::sort(out.rows.begin(), out.rows.end());
      out.high_water_units = handle.stats().quota_high_water_units;
      out.spill_bytes = spilled;
    }
  }
  return out;
}

struct Point {
  DataSpec spec;
  uint64_t budget = 0;
  bool match = false;
  uint64_t high_water_units = 0;
  uint64_t spill_bytes = 0;
  double wall_s = 0.0;
  double unbudgeted_wall_s = 0.0;
  double overhead() const {
    return unbudgeted_wall_s > 0 ? wall_s / unbudgeted_wall_s : 0.0;
  }
};

int Run() {
  PrintHeader("Extension: spilling memory-budgeted operators",
              "join+aggregate sweep: cardinality x budget x build skew, "
              "budgeted vs unbudgeted (identical rows required)");

  std::vector<Point> points;
  for (const DataSpec& spec : kDatasets) {
    std::unique_ptr<Database> db = BuildDatabase(spec);
    const RunOutcome reference = RunWorkload(*db, 0);
    for (uint64_t budget : kBudgets) {
      const RunOutcome budgeted = RunWorkload(*db, budget);
      Point p;
      p.spec = spec;
      p.budget = budget;
      p.match = budgeted.rows == reference.rows;
      p.high_water_units = budgeted.high_water_units;
      p.spill_bytes = budgeted.spill_bytes;
      p.wall_s = budgeted.wall_s;
      p.unbudgeted_wall_s = reference.wall_s;
      points.push_back(p);
    }
  }

  BenchReport report("ext_spilljoin", "spill");
  std::printf("%8s %8s %8s %8s %7s %11s %12s %10s %9s\n", "a_rows",
              "b_rows", "skew", "budget", "match", "high_water",
              "spill_bytes", "wall(s)", "overhead");
  size_t matched = 0;
  bool any_spilled = false;
  int64_t max_overshoot = 0;
  for (const Point& p : points) {
    std::printf("%8zu %8zu %8s %8llu %7s %11llu %12llu %10.4f %8.2fx\n",
                p.spec.a_rows, p.spec.b_rows, p.spec.skew,
                static_cast<unsigned long long>(p.budget),
                p.match ? "yes" : "NO",
                static_cast<unsigned long long>(p.high_water_units),
                static_cast<unsigned long long>(p.spill_bytes), p.wall_s,
                p.overhead());
    const std::string c =
        Format("a=%zu b=%zu %s budget=%llu", p.spec.a_rows, p.spec.b_rows,
               p.spec.skew, static_cast<unsigned long long>(p.budget));
    report.Record(c, "high_water_units", "count", BenchReport::kLower,
                  static_cast<double>(p.high_water_units));
    report.Record(c, "spill_bytes", "bytes", BenchReport::kLower,
                  static_cast<double>(p.spill_bytes));
    report.Record(c, "overhead", "ratio", BenchReport::kLower, p.overhead());
    matched += p.match ? 1 : 0;
    any_spilled = any_spilled || p.spill_bytes > 0;
    max_overshoot =
        std::max(max_overshoot, static_cast<int64_t>(p.high_water_units) -
                                    static_cast<int64_t>(p.budget));
  }
  std::printf("\n");
  report.Check("rows match the unbudgeted reference", BenchReport::kHard,
               matched == points.size(),
               Format("%zu of %zu points", matched, points.size()));
  report.Check("quota high water", BenchReport::kHard,
               max_overshoot <= kHighWaterSlackUnits,
               Format("max overshoot %lld units (slack %lld)",
                      static_cast<long long>(max_overshoot),
                      static_cast<long long>(kHighWaterSlackUnits)));
  report.Check("at least one point spilled", BenchReport::kHard, any_spilled,
               any_spilled ? "yes" : "no point wrote spill bytes");
  return report.Finish();
}

}  // namespace
}  // namespace dbs3

int main() { return dbs3::Run(); }

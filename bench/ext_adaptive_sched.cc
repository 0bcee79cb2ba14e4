// Extension: steady-state adaptive scheduling — tail latency of short
// point lookups arriving while a long scan-heavy query holds the whole
// worker pool, mid-query rebalancing on vs off.
//
// One long query (a wide spin-heavy filter over a 128-fragment relation,
// scheduled at the full pool width) runs for a couple of seconds while
// short single-thread lookups against a separate small relation arrive on
// a paced open loop. With rebalancing off (rebalance_interval_us = 0,
// the static pre-adaptive behavior) every short blocks in whole-plan slot
// reservation until the long query drains: short tail latency is the
// long query's remaining wall time. With rebalancing on, the blocked
// reservation registers as pressure, the long query parks workers down to
// its recomputed fair share at the next activation boundary, the shorts
// run, and the parked width is granted back once the pressure clears.
//
// Per mode the flood runs kReps times: long wall is best-of, short
// latencies pool across reps for nearest-rank percentiles. Every rep
// checks results (long cardinality, each lookup's key) — a scheduler that
// drops or duplicates work while parking/granting fails as MISMATCH, not
// as a perf number.
//
// Writes BENCH_ext_adaptive_sched.json and exits with its gate's verdict
// (BenchReport). Hard: both modes' results match, and the adaptive run
// parked and granted at least one worker (else it never reallocated
// anything and the comparison is vacuous). Speed: adaptive short p95 and
// p99 below static, and the long wall within kMaxLongWallRatio of static.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "storage/relation.h"
#include "storage/wisconsin.h"

namespace dbs3 {
namespace {

constexpr int kReps = 3;            // Long wall best-of; latencies pooled.
constexpr size_t kPool = 4;         // Worker-pool threads.
constexpr uint64_t kLongRows = 256'000;
constexpr size_t kLongDegree = 128;  // Fine fragments => responsive parks.
constexpr uint32_t kSpinPerTuple = 4'000;  // Per-tuple work of the long scan.
constexpr uint64_t kShortRows = 8'000;
constexpr size_t kShortDegree = 8;
constexpr size_t kMaxShorts = 24;   // Per rep.
constexpr uint64_t kPaceBaseUs = 80'000;   // Open-loop arrival pacing.
constexpr uint64_t kRebalanceUs = 1'000;   // Adaptive tick period.
// Gate (speed): what parking may cost the long query, as its adaptive
// wall over its static wall.
constexpr double kMaxLongWallRatio = 1.05;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return Seconds(std::chrono::steady_clock::now() - t0) * 1e6;
}

/// Nearest-rank percentile over an unsorted latency pool.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

/// The long query: a full-width scan whose per-tuple cost is dominated by
/// `kSpinPerTuple` synthetic work, keeping exactly the even-unique1 half.
QuerySpec LongQuery(Relation* rel) {
  TuplePredicate spin = [](const Tuple& t) {
    volatile uint32_t sink = 0;
    for (uint32_t i = 0; i < kSpinPerTuple; ++i) sink = sink + i;
    return t.at(0).AsInt() % 2 == 0;
  };
  QuerySpec spec;
  spec.threads_hint = kPool;
  spec.body = [rel, spin](QueryEnv& env) -> Result<QueryResult> {
    auto result = std::make_unique<Relation>(
        "res", rel->schema(), rel->partition_column(),
        Partitioner(rel->partitioner().kind(), rel->degree()));
    Plan plan;
    const size_t filter = plan.AddNode(
        "filter", ActivationMode::kTriggered, rel->degree(),
        std::make_unique<FilterLogic>(rel, spin, 0.5));
    const size_t store =
        plan.AddNode("store", ActivationMode::kPipelined, rel->degree(),
                     std::make_unique<StoreLogic>(result.get()));
    DBS3_RETURN_IF_ERROR(plan.ConnectSameInstance(filter, store));
    ScheduleOptions schedule;
    schedule.total_threads = kPool;
    schedule.processors = kPool;
    DBS3_ASSIGN_OR_RETURN(PhaseOutcome phase, env.Run(plan, schedule));
    QueryResult out;
    out.result = std::move(result);
    out.execution = std::move(phase.execution);
    return out;
  };
  return spec;
}

struct ModeResult {
  double long_wall_s = 0.0;  ///< Best-of-kReps.
  std::vector<double> short_lat_us;
  uint64_t long_parked = 0;
  uint64_t long_granted = 0;
  bool results_match = true;
};

/// One mode: kReps floods of paced shorts under one long query each.
ModeResult RunMode(bool adaptive) {
  ModeResult mode;
  for (int rep = 0; rep < kReps; ++rep) {
    Database db(4);
    WisconsinOptions wlong;
    wlong.cardinality = kLongRows;
    wlong.degree = kLongDegree;
    CheckOk(db.CreateWisconsin("big", wlong), "create big");
    WisconsinOptions wshort;
    wshort.cardinality = kShortRows;
    wshort.degree = kShortDegree;
    CheckOk(db.CreateWisconsin("small", wshort), "create small");
    Relation* big = UnwrapOrDie(db.relation("big"), "big");
    Relation* small = UnwrapOrDie(db.relation("small"), "small");
    const size_t unique1 =
        UnwrapOrDie(small->schema().IndexOf("unique1"), "unique1");

    QueryRuntimeOptions ropt;
    ropt.pool_threads = kPool;
    ropt.max_concurrent_queries = kPool;
    ropt.rebalance_interval_us = adaptive ? kRebalanceUs : 0;
    CheckOk(db.StartRuntime(ropt), "start runtime");

    const auto t0 = std::chrono::steady_clock::now();
    QueryHandle long_handle = db.Submit(LongQuery(big));
    double long_wall_s = 0.0;
    std::thread long_waiter([&long_handle, &long_wall_s, t0] {
      long_handle.Wait();
      long_wall_s = MicrosSince(t0) / 1e6;
    });

    // Paced open loop: shorts arrive while the long query runs, each with
    // its own completion watcher so latency is per-query, not
    // head-of-line. Deterministic jitter stands in for Poisson arrivals.
    std::vector<QueryHandle> shorts;
    std::vector<double> latencies(kMaxShorts, 0.0);
    std::vector<std::thread> watchers;
    std::vector<int64_t> keys;
    size_t n = 0;
    while (n < kMaxShorts && !long_handle.done()) {
      const int64_t key = static_cast<int64_t>((n * 7919) % kShortRows);
      QueryOptions options;
      options.schedule.total_threads = 1;
      options.schedule.processors = 1;
      const auto submit = std::chrono::steady_clock::now();
      shorts.push_back(SubmitSelect(db, "small",
                                    ColumnEquals(unique1, Value(key)),
                                    1.0 / static_cast<double>(kShortRows),
                                    options));
      keys.push_back(key);
      QueryHandle handle = shorts.back();
      watchers.emplace_back([handle, submit, &latencies, n]() mutable {
        handle.Wait();
        latencies[n] = MicrosSince(submit);
      });
      ++n;
      const uint64_t pace = kPaceBaseUs + (n * 7919) % (kPaceBaseUs / 2);
      std::this_thread::sleep_for(std::chrono::microseconds(pace));
    }

    long_waiter.join();
    for (std::thread& w : watchers) w.join();
    for (size_t i = 0; i < n; ++i) mode.short_lat_us.push_back(latencies[i]);

    // Correctness: the long query kept exactly the even-unique1 half;
    // every lookup found exactly its key.
    auto long_taken = long_handle.Take();
    CheckOk(long_taken.status(), "long query");
    if (long_taken.value().result->cardinality() != kLongRows / 2) {
      mode.results_match = false;
      std::fprintf(stderr, "MISMATCH: long cardinality %llu != %llu\n",
                   static_cast<unsigned long long>(
                       long_taken.value().result->cardinality()),
                   static_cast<unsigned long long>(kLongRows / 2));
    }
    for (size_t i = 0; i < n; ++i) {
      auto taken = shorts[i].Take();
      CheckOk(taken.status(), "short query");
      const Relation& res = *taken.value().result;
      bool found = res.cardinality() == 1;
      if (found) {
        for (size_t f = 0; f < res.degree(); ++f) {
          for (const Tuple& t : res.fragment(f).tuples) {
            found = t.at(unique1).AsInt() == keys[i];
          }
        }
      }
      if (!found) {
        mode.results_match = false;
        std::fprintf(stderr, "MISMATCH: lookup unique1=%lld (mode=%s)\n",
                     static_cast<long long>(keys[i]),
                     adaptive ? "adaptive" : "static");
      }
    }

    const QueryRunStats stats = long_handle.stats();
    mode.long_parked += stats.threads_released;
    mode.long_granted += stats.threads_granted;
    if (rep == 0 || long_wall_s < mode.long_wall_s) {
      mode.long_wall_s = long_wall_s;
    }
  }
  return mode;
}

int Run() {
  PrintHeader("EXT adaptive-sched",
              "mid-query worker reallocation: short tails under a long scan");
  std::printf("pool %zu threads, long scan %llu rows x %u spin (degree %zu),"
              " shorts <= %zu/rep paced ~%llums, tick %lluus\n\n",
              kPool, static_cast<unsigned long long>(kLongRows),
              kSpinPerTuple, kLongDegree, kMaxShorts,
              static_cast<unsigned long long>(kPaceBaseUs / 1000),
              static_cast<unsigned long long>(kRebalanceUs));

  const ModeResult stat = RunMode(/*adaptive=*/false);
  const ModeResult adap = RunMode(/*adaptive=*/true);

  std::printf("%10s %8s %12s %12s %12s %10s %8s %8s %7s\n", "mode",
              "shorts", "p50 us", "p95 us", "p99 us", "long s", "parked",
              "granted", "match");
  for (const auto* m : {&stat, &adap}) {
    std::printf("%10s %8zu %12.0f %12.0f %12.0f %10.2f %8llu %8llu %7s\n",
                m == &stat ? "static" : "adaptive", m->short_lat_us.size(),
                Percentile(m->short_lat_us, 0.50),
                Percentile(m->short_lat_us, 0.95),
                Percentile(m->short_lat_us, 0.99), m->long_wall_s,
                static_cast<unsigned long long>(m->long_parked),
                static_cast<unsigned long long>(m->long_granted),
                m->results_match ? "yes" : "NO");
  }
  const double ratio =
      stat.long_wall_s > 0 ? adap.long_wall_s / stat.long_wall_s : 0.0;

  BenchReport report("ext_adaptive_sched", "rebalance");
  for (const ModeResult* m : {&stat, &adap}) {
    const char* c = m == &stat ? "static" : "adaptive";
    report.Record(c, "short_p50_us", "us", BenchReport::kLower,
                  Percentile(m->short_lat_us, 0.50));
    report.Record(c, "short_p95_us", "us", BenchReport::kLower,
                  Percentile(m->short_lat_us, 0.95));
    report.Record(c, "short_p99_us", "us", BenchReport::kLower,
                  Percentile(m->short_lat_us, 0.99));
    report.Record(c, "long_wall_s", "s", BenchReport::kLower, m->long_wall_s);
    report.Check(Format("%s rows match", c), BenchReport::kHard,
                 m->results_match,
                 Format("%zu shorts and the long query",
                        m->short_lat_us.size()));
  }
  report.Record("adaptive/static", "long_wall_ratio", "ratio",
                BenchReport::kLower, ratio);
  report.Check("adaptive parked and granted", BenchReport::kHard,
               adap.long_parked > 0 && adap.long_granted > 0,
               Format("%llu parked, %llu granted",
                      static_cast<unsigned long long>(adap.long_parked),
                      static_cast<unsigned long long>(adap.long_granted)));
  for (const double q : {0.95, 0.99}) {
    const double s = Percentile(stat.short_lat_us, q);
    const double a = Percentile(adap.short_lat_us, q);
    report.Check(Format("short p%.0f adaptive below static", q * 100),
                 BenchReport::kSpeed, a < s,
                 Format("adaptive %.0f us vs static %.0f us", a, s));
  }
  report.Check("long wall adaptive/static", BenchReport::kSpeed,
               ratio <= kMaxLongWallRatio,
               Format("%.3f (at most %.2f)", ratio, kMaxLongWallRatio));
  return report.Finish();
}

}  // namespace
}  // namespace dbs3

int main() { return dbs3::Run(); }

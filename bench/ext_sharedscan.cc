// Extension: shared-work execution — QPS of a flood of concurrent
// point-lookup and scan-heavy ESQL queries against one Wisconsin
// relation, shared-scan batching on vs off.
//
// Per concurrency level (64 / 256 / 1024 in-flight queries) the bench
// runs the identical submission flood twice: once with the admission
// batching window enabled (compatible queries fold into multi-query
// shared-scan plans — one relation pass serves the whole batch) and once
// with folding off (shared_batch_max_queries = 1: every query runs the
// same one-node scan as a batch of one; the table and the JSON call this
// mode "solo"). Each mode is best-of-kReps; on the first rep every
// query's result relation is checked fragment-for-fragment against rows
// computed directly from the base relation (sorted within a fragment, so
// the check does not lean on the scan's storing order).
//
// Writes BENCH_sharedscan.json next to the binary; the CI gate
// (compare_bench.py --sharedscan) requires every point's results to
// match and shared QPS to beat solo QPS at 256 concurrent queries.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dbs3/database.h"
#include "esql/planner.h"
#include "storage/relation.h"
#include "storage/wisconsin.h"

namespace dbs3 {
namespace {

constexpr int kReps = 3;  // Best-of to damp noise.
constexpr uint64_t kRows = 20'000;
constexpr size_t kDegree = 4;
constexpr size_t kDrivers = 4;
constexpr size_t kConcurrency[] = {64, 256, 1024};
constexpr size_t kGateConcurrency = 256;
// Batching knobs of the shared mode: generous K so a flood folds into a
// few wide batches, a window in the paper-era lookup-flood sweet spot.
constexpr size_t kMaxBatch = 64;
constexpr uint64_t kWindowUs = 1500;
// Range predicate of the scan-heavy queries: unique1 < 200 keeps 1%.
constexpr int64_t kRangeLimit = 200;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Query i of the flood: 3 point lookups to 1 range scan, keys spread
/// over the whole key space deterministically.
std::string QueryText(size_t i) {
  if (i % 4 == 3) {
    return "SELECT * FROM wisc WHERE unique1 < " +
           std::to_string(kRangeLimit);
  }
  return "SELECT * FROM wisc WHERE unique1 = " +
         std::to_string((i * 7919) % kRows);
}

/// Reference rows for query i, computed straight off the base relation:
/// per-fragment, sorted within the fragment.
std::vector<std::vector<Tuple>> ExpectedFragments(const Relation& rel,
                                                  size_t unique1, size_t i) {
  const bool range = i % 4 == 3;
  const int64_t key = static_cast<int64_t>((i * 7919) % kRows);
  std::vector<std::vector<Tuple>> out(rel.degree());
  for (size_t f = 0; f < rel.degree(); ++f) {
    for (const Tuple& t : rel.fragment(f).tuples) {
      const int64_t v = t.at(unique1).AsInt();
      if (range ? v < kRangeLimit : v == key) out[f].push_back(t);
    }
    std::sort(out[f].begin(), out[f].end());
  }
  return out;
}

bool Matches(const Relation& result,
             const std::vector<std::vector<Tuple>>& expected) {
  if (result.degree() != expected.size()) return false;
  for (size_t f = 0; f < result.degree(); ++f) {
    std::vector<Tuple> got = result.fragment(f).tuples;
    std::sort(got.begin(), got.end());
    if (got != expected[f]) return false;
  }
  return true;
}

struct ModeResult {
  double wall_s = 0.0;  ///< Best-of-kReps.
  bool results_match = true;
  uint64_t shared_batches = 0;
  double mean_queries_per_batch = 0.0;

  double qps(size_t n) const {
    return wall_s > 0 ? static_cast<double>(n) / wall_s : 0.0;
  }
};

/// One flood of `n` queries, `shared` batching on or off. Fresh database
/// per call so the runtime sizing and metric counters start clean.
ModeResult RunMode(size_t n, bool shared) {
  ModeResult mode;
  for (int rep = 0; rep < kReps; ++rep) {
    Database db(4);
    WisconsinOptions wopt;
    wopt.cardinality = kRows;
    wopt.degree = kDegree;
    CheckOk(db.CreateWisconsin("wisc", wopt), "create wisc");
    QueryRuntimeOptions ropt;
    ropt.max_concurrent_queries = kDrivers;
    ropt.max_queued_queries = n + kDrivers;
    ropt.shared_batch_max_queries = shared ? kMaxBatch : 1;
    ropt.shared_batch_window_us = shared ? kWindowUs : 0;
    CheckOk(db.StartRuntime(ropt), "start runtime");
    Relation* rel = UnwrapOrDie(db.relation("wisc"), "wisc");
    const size_t unique1 =
        UnwrapOrDie(rel->schema().IndexOf("unique1"), "unique1 column");

    EsqlOptions options;  // Shareable; the runtime knobs decide.
    std::vector<QueryHandle> handles;
    handles.reserve(n);
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      handles.push_back(SubmitEsql(db, QueryText(i), options));
    }
    std::vector<QueryResult> results;
    results.reserve(n);
    for (QueryHandle& h : handles) {
      results.push_back(UnwrapOrDie(h.Take(), "query"));
    }
    const double wall = Seconds(std::chrono::steady_clock::now() - start);
    if (rep == 0 || wall < mode.wall_s) mode.wall_s = wall;

    if (rep == 0) {
      // Correctness pass: every query's result fragment-identical to rows
      // computed straight off the base relation.
      for (size_t i = 0; i < n; ++i) {
        if (!Matches(*results[i].result,
                     ExpectedFragments(*rel, unique1, i))) {
          mode.results_match = false;
          std::fprintf(stderr, "MISMATCH: %s (mode=%s)\n",
                       QueryText(i).c_str(), shared ? "shared" : "solo");
        }
      }
      const MetricsSnapshot snap = db.metrics().Snapshot();
      auto batches = snap.counters.find("runtime.shared_batches");
      if (batches != snap.counters.end()) {
        mode.shared_batches = batches->second;
      }
      auto per_batch = snap.series.find("shared.queries_per_batch");
      if (per_batch != snap.series.end()) {
        mode.mean_queries_per_batch = per_batch->second.mean();
      }
      if (shared) {
        std::printf("  [%zu queries, shared] registry:\n", n);
        PrintQueryLatencies(snap);
      }
    }
  }
  return mode;
}

struct SweepPoint {
  size_t concurrency = 0;
  ModeResult solo;
  ModeResult shared;
};

void Run() {
  PrintHeader("EXT sharedscan",
              "multi-query shared scans vs per-query plans (QPS)");
  std::printf("wisconsin %llu rows, degree %zu, %zu drivers; shared mode: "
              "window %lluus, max batch %zu\n\n",
              static_cast<unsigned long long>(kRows), kDegree, kDrivers,
              static_cast<unsigned long long>(kWindowUs), kMaxBatch);

  std::vector<SweepPoint> points;
  for (size_t n : kConcurrency) {
    SweepPoint point;
    point.concurrency = n;
    point.solo = RunMode(n, /*shared=*/false);
    point.shared = RunMode(n, /*shared=*/true);
    points.push_back(point);
  }

  std::printf("\n%12s %14s %14s %10s %10s %10s %8s\n", "concurrency",
              "solo q/s", "shared q/s", "speedup", "batches", "q/batch",
              "match");
  for (const SweepPoint& p : points) {
    std::printf("%12zu %14.1f %14.1f %9.2fx %10llu %10.1f %8s\n",
                p.concurrency, p.solo.qps(p.concurrency),
                p.shared.qps(p.concurrency),
                p.solo.wall_s > 0 ? p.solo.wall_s / p.shared.wall_s : 0.0,
                static_cast<unsigned long long>(p.shared.shared_batches),
                p.shared.mean_queries_per_batch,
                p.solo.results_match && p.shared.results_match ? "yes"
                                                               : "NO");
  }

  const SweepPoint* gate = nullptr;
  for (const SweepPoint& p : points) {
    if (p.concurrency == kGateConcurrency) gate = &p;
  }

  FILE* json = std::fopen("BENCH_sharedscan.json", "w");
  CheckOk(json != nullptr
              ? Status::OK()
              : Status::Internal("cannot open BENCH_sharedscan.json"),
          "open json");
  std::fprintf(json,
               "{\n"
               "  \"rows\": %llu,\n"
               "  \"degree\": %zu,\n"
               "  \"drivers\": %zu,\n"
               "  \"window_us\": %llu,\n"
               "  \"max_batch\": %zu,\n"
               "  \"points\": [\n",
               static_cast<unsigned long long>(kRows), kDegree, kDrivers,
               static_cast<unsigned long long>(kWindowUs), kMaxBatch);
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        json,
        "    {\"concurrency\": %zu,"
        " \"solo_qps\": %.2f,"
        " \"shared_qps\": %.2f,"
        " \"speedup\": %.4f,"
        " \"shared_batches\": %llu,"
        " \"mean_queries_per_batch\": %.2f,"
        " \"results_match\": %s}%s\n",
        p.concurrency, p.solo.qps(p.concurrency),
        p.shared.qps(p.concurrency),
        p.shared.wall_s > 0 ? p.solo.wall_s / p.shared.wall_s : 0.0,
        static_cast<unsigned long long>(p.shared.shared_batches),
        p.shared.mean_queries_per_batch,
        p.solo.results_match && p.shared.results_match ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  const double gate_solo = gate != nullptr ? gate->solo.qps(kGateConcurrency) : 0.0;
  const double gate_shared =
      gate != nullptr ? gate->shared.qps(kGateConcurrency) : 0.0;
  std::fprintf(json,
               "  ],\n"
               "  \"gate_concurrency\": %zu,\n"
               "  \"gate_solo_qps\": %.2f,\n"
               "  \"gate_shared_qps\": %.2f\n"
               "}\n",
               kGateConcurrency, gate_solo, gate_shared);
  std::fclose(json);
  std::printf("\nwrote BENCH_sharedscan.json (gate: shared %.1f q/s vs "
              "solo %.1f q/s at %zu concurrent; CI expects shared > solo)\n",
              gate_shared, gate_solo, kGateConcurrency);
}

}  // namespace
}  // namespace dbs3

int main() {
  dbs3::Run();
  return 0;
}

// Allocation profile of the engine data path. Replaces global operator
// new/delete with counting hooks and adds the row slices row_block hands
// out (row storage no longer reaches operator new), so an "allocation" is
// a heap allocation or a row's value storage. Measures (a) allocations per
// result tuple on a steady-state pipelined join — the chunk pool and the
// assign-in-place emitters are what keep this flat — and (b) the probe
// kernels: TempIndex::Probe (iterator range, zero allocations) against the
// materializing Lookup, and (c) the per-kernel steady-state allocation
// counts of the vectorized path (gather, filter, hash, batched probe),
// each of which must be zero. Writes BENCH_micro_datapath.json and exits
// with its gate's verdict (BenchReport).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/vector/column_batch.h"
#include "engine/vector/kernels.h"
#include "engine/vector/pred.h"
#include "storage/row_block.h"
#include "storage/temp_index.h"

namespace {

/// Every path into the heap bumps this; readers snapshot around the
/// measured region. Relaxed: the bench is effectively single-threaded at
/// snapshot time and only deltas matter.
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) std::abort();  // Bench: OOM is fatal, never thrown.
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size > 0 ? size : 1) != 0) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dbs3 {
namespace {

constexpr int kReps = 5;
// Gate: steady-state allocations (heap + row slices) per result tuple of
// the pipelined join. The store edge legitimately pays about one per
// tuple: it steals each materialized tuple's value storage.
constexpr double kMaxAllocationsPerTuple = 2.0;

/// Heap allocations plus row slices so far. Slices are exact for every row
/// made before the read: the measured query's rows all are, after Take().
uint64_t AllocationsSoFar() {
  return g_allocations.load(std::memory_order_relaxed) +
         row_block::SlicesAllocated();
}

double PerTuple(uint64_t count, uint64_t tuples) {
  return tuples > 0 ? static_cast<double>(count) / static_cast<double>(tuples)
                    : 0.0;
}

struct PipelinePoint {
  double wall_seconds = 0.0;       // Best of kReps.
  uint64_t result_tuples = 0;
  uint64_t allocations = 0;        // Fewest of kReps (steady-state floor).
  uint64_t heap_allocations = 0;   // The two parts of that rep's count.
  uint64_t row_slices = 0;
  double allocations_per_tuple = 0.0;
  uint64_t pool_allocated = 0;     // Chunk-pool stats of the best-alloc rep.
  uint64_t pool_reused = 0;
  double pool_reuse_fraction = 0.0;
};

/// Steady-state pipelined join through the shared runtime: the warm-up
/// runs fill the runtime's chunk pool and spawn its threads, then each
/// measured rep counts every heap allocation and row slice end to end
/// (plan build, scheduling, execution, result materialization).
PipelinePoint MeasurePipeline(Database& db) {
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  for (int warm = 0; warm < 2; ++warm) {
    UnwrapOrDie(RunAssocJoin(db, "B", "key", "A", "key", options),
                "AssocJoin warm-up");
  }

  PipelinePoint point;
  point.wall_seconds = 1e30;
  point.allocations = ~uint64_t{0};
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t heap_before =
        g_allocations.load(std::memory_order_relaxed);
    const uint64_t slices_before = row_block::SlicesAllocated();
    QueryResult r = UnwrapOrDie(
        RunAssocJoin(db, "B", "key", "A", "key", options), "AssocJoin");
    const uint64_t heap =
        g_allocations.load(std::memory_order_relaxed) - heap_before;
    const uint64_t slices = row_block::SlicesAllocated() - slices_before;
    point.wall_seconds = std::min(point.wall_seconds, r.execution.seconds);
    point.result_tuples = r.result->cardinality();
    if (heap + slices < point.allocations) {
      point.allocations = heap + slices;
      point.heap_allocations = heap;
      point.row_slices = slices;
      point.pool_allocated = r.execution.chunk_pool.allocated;
      point.pool_reused = r.execution.chunk_pool.reused;
    }
  }
  point.allocations_per_tuple =
      PerTuple(point.allocations, point.result_tuples);
  const uint64_t acquired = point.pool_allocated + point.pool_reused;
  point.pool_reuse_fraction =
      acquired > 0 ? static_cast<double>(point.pool_reused) /
                         static_cast<double>(acquired)
                   : 0.0;
  return point;
}

struct ProbePoint {
  double probe_seconds = 0.0;   // Best of kReps, whole key sweep.
  double lookup_seconds = 0.0;
  uint64_t matches = 0;         // Per sweep; both kernels must agree.
  uint64_t probe_allocations = 0;
  uint64_t lookup_allocations = 0;
};

/// Sweeps every key of a duplicate-heavy fragment through both probe
/// kernels. The iterator-range Probe must not touch the heap at all; the
/// materializing Lookup pays one vector per hit key.
ProbePoint MeasureProbes(const Fragment& fragment) {
  TempIndex index(fragment, 0);
  constexpr int64_t kKeys = 4'096;
  ProbePoint point;
  point.probe_seconds = 1e30;
  point.lookup_seconds = 1e30;

  uint64_t probe_sum = 0, lookup_sum = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t matches = 0, sum = 0;
    uint64_t before = AllocationsSoFar();
    auto start = std::chrono::steady_clock::now();
    for (int64_t key = 0; key < kKeys; ++key) {
      const Value probe_key(key);
      for (uint32_t i : index.Probe(probe_key)) {
        ++matches;
        sum += i;
      }
    }
    point.probe_seconds = std::min(
        point.probe_seconds,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    point.probe_allocations = AllocationsSoFar() - before;
    point.matches = matches;
    probe_sum = sum;

    matches = 0;
    sum = 0;
    before = AllocationsSoFar();
    start = std::chrono::steady_clock::now();
    for (int64_t key = 0; key < kKeys; ++key) {
      for (uint32_t i : index.Lookup(Value(key))) {
        ++matches;
        sum += i;
      }
    }
    point.lookup_seconds = std::min(
        point.lookup_seconds,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    point.lookup_allocations = AllocationsSoFar() - before;
    lookup_sum = sum;
    if (matches != point.matches || probe_sum != lookup_sum) {
      std::fprintf(stderr, "probe/lookup disagree: %llu vs %llu matches\n",
                   static_cast<unsigned long long>(point.matches),
                   static_cast<unsigned long long>(matches));
      std::exit(1);
    }
  }
  return point;
}

double MatchesPerSecond(uint64_t matches, double seconds) {
  return seconds > 0.0 ? static_cast<double>(matches) / seconds : 0.0;
}

/// Steady-state heap allocations of each vectorized kernel in isolation:
/// the column gather, the predicate kernel, the hash kernel, and the
/// batched probe, each swept over a chunked workload against the warmed
/// thread-local arena. Every count must be zero — the kernels' transient
/// state lives entirely in the arena.
struct KernelAllocs {
  uint64_t gather = 0;
  uint64_t filter = 0;
  uint64_t hash = 0;
  uint64_t probe = 0;
};

KernelAllocs MeasureKernelAllocations(const Fragment& fragment) {
  constexpr size_t kChunk = 256;
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 4'096; ++i) {
    rows.push_back(Tuple({Value(i % 4'096), Value(i)}));
  }
  std::vector<PredExpr> conjuncts;
  conjuncts.push_back(PredExpr::IntBetween(0, 16, 3'000));
  const PredExpr pred = PredExpr::And(std::move(conjuncts));
  const TempIndex index(fragment, 0);
  Arena& arena = ThreadLocalKernelArena();

  const auto sweep = [&](auto&& chunk_body) {
    for (size_t base = 0; base < rows.size(); base += kChunk) {
      const size_t n = std::min(kChunk, rows.size() - base);
      ScopedArena scope(&arena);
      ColumnBatch batch(std::span<const Tuple>(rows.data() + base, n),
                        scope.get());
      chunk_body(batch, *scope.get(), n);
    }
  };
  const auto measure = [&](auto&& chunk_body) {
    uint64_t best = ~uint64_t{0};
    for (int rep = 0; rep < kReps + 1; ++rep) {
      const uint64_t before = AllocationsSoFar();
      sweep(chunk_body);
      const uint64_t allocs = AllocationsSoFar() - before;
      if (rep > 0) best = std::min(best, allocs);  // Rep 0 warms the arena.
    }
    return best;
  };

  KernelAllocs out;
  out.gather = measure([&](ColumnBatch& batch, Arena&, size_t) {
    if (batch.Ints(0) == nullptr) std::abort();
  });
  out.filter = measure([&](ColumnBatch& batch, Arena& a, size_t n) {
    uint32_t* sel = a.AllocateArrayOf<uint32_t>(n);
    EvalPredAll(pred, batch, sel);
  });
  out.hash = measure([&](ColumnBatch& batch, Arena& a, size_t) {
    if (HashColumn(batch, 0, &a) == nullptr) std::abort();
  });
  out.probe = measure([&](ColumnBatch& batch, Arena& a, size_t n) {
    const int64_t* keys = batch.Ints(0);
    uint32_t* first = a.AllocateArrayOf<uint32_t>(n);
    index.ProbeKeys(std::span<const int64_t>(keys, n), first);
  });
  return out;
}

int Main() {
  PrintHeader("micro_datapath",
              "allocations per tuple and probe kernel throughput");

  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 40'000;
  spec.b_cardinality = 8'000;
  spec.degree = 32;
  spec.theta = 0.5;
  CheckOk(db.CreateSkewedPair(spec, "A", "B"), "CreateSkewedPair");

  const PipelinePoint pipeline = MeasurePipeline(db);
  std::printf("pipeline: wall %.2f ms, %llu allocations for %llu result "
              "tuples (%.2f/tuple: %.2f heap + %.2f row slices), pool reuse "
              "%.1f%%\n",
              pipeline.wall_seconds * 1e3,
              static_cast<unsigned long long>(pipeline.allocations),
              static_cast<unsigned long long>(pipeline.result_tuples),
              pipeline.allocations_per_tuple,
              PerTuple(pipeline.heap_allocations, pipeline.result_tuples),
              PerTuple(pipeline.row_slices, pipeline.result_tuples),
              pipeline.pool_reuse_fraction * 100.0);

  // 64K tuples, 16 matches per key: chains long enough that the per-probe
  // vector of the materializing path shows up.
  Fragment fragment;
  for (int64_t k = 0; k < 65'536; ++k) {
    fragment.tuples.push_back(Tuple({Value(k % 4'096), Value(k)}));
  }
  const ProbePoint probe = MeasureProbes(fragment);
  std::printf("probe:    %llu matches/sweep, Probe %.2f ms (%llu allocs), "
              "Lookup %.2f ms (%llu allocs)\n",
              static_cast<unsigned long long>(probe.matches),
              probe.probe_seconds * 1e3,
              static_cast<unsigned long long>(probe.probe_allocations),
              probe.lookup_seconds * 1e3,
              static_cast<unsigned long long>(probe.lookup_allocations));

  const KernelAllocs kernels = MeasureKernelAllocations(fragment);
  std::printf("kernels:  steady-state allocations per sweep — gather %llu, "
              "filter %llu, hash %llu, batch probe %llu\n",
              static_cast<unsigned long long>(kernels.gather),
              static_cast<unsigned long long>(kernels.filter),
              static_cast<unsigned long long>(kernels.hash),
              static_cast<unsigned long long>(kernels.probe));

  BenchReport report("micro_datapath", "emitter+chunk pool");
  const std::string join = "assoc-join";
  report.Record(join, "wall_ms", "ms", BenchReport::kLower,
                pipeline.wall_seconds * 1e3);
  report.Record(join, "allocations_per_tuple", "count", BenchReport::kLower,
                pipeline.allocations_per_tuple);
  report.Record(join, "heap_allocations_per_tuple", "count",
                BenchReport::kLower,
                PerTuple(pipeline.heap_allocations, pipeline.result_tuples));
  report.Record(join, "row_slices_per_tuple", "count", BenchReport::kLower,
                PerTuple(pipeline.row_slices, pipeline.result_tuples));
  report.Record(join, "pool_reuse_fraction", "ratio", BenchReport::kHigher,
                pipeline.pool_reuse_fraction);
  report.Record("Probe()", "matches_per_second", "matches/s",
                BenchReport::kHigher,
                MatchesPerSecond(probe.matches, probe.probe_seconds));
  report.Record("Lookup()", "matches_per_second", "matches/s",
                BenchReport::kHigher,
                MatchesPerSecond(probe.matches, probe.lookup_seconds));
  report.Record("Lookup()", "allocations", "count", BenchReport::kLower,
                static_cast<double>(probe.lookup_allocations));

  report.Check("allocations per tuple", BenchReport::kHard,
               pipeline.allocations_per_tuple <= kMaxAllocationsPerTuple,
               Format("%.3f (budget %.3f)", pipeline.allocations_per_tuple,
                      kMaxAllocationsPerTuple));
  // The iterator-range probe path and the vectorized kernels never touch
  // the heap.
  const std::pair<const char*, uint64_t> zero_allocation[] = {
      {"Probe()", probe.probe_allocations},
      {"kernel gather", kernels.gather},
      {"kernel filter", kernels.filter},
      {"kernel hash", kernels.hash},
      {"kernel batch probe", kernels.probe}};
  for (const auto& [name, allocations] : zero_allocation) {
    report.Record(name, "allocations", "count", BenchReport::kLower,
                  static_cast<double>(allocations));
    report.Check(Format("%s allocates nothing", name), BenchReport::kHard,
                 allocations == 0,
                 Format("%llu allocations (must be 0)",
                        static_cast<unsigned long long>(allocations)));
  }
  return report.Finish();
}

}  // namespace
}  // namespace dbs3

int main() { return dbs3::Main(); }

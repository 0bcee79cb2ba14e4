// Kernel-level throughput of the vectorized batch path against the row
// path it replaces, on identical workloads: (a) the filter kernel — a
// conjunctive predicate through the std::function row path, the PredExpr
// row path, and the columnar EvalPredAll kernel across chunk sizes; (b)
// the probe kernel — per-key Value::Hash + TempIndex::ProbeHashed
// first-match resolution against the batched, pipelined ProbeKeys sweep
// over the gathered key column. Global operator
// new/delete are replaced with counting hooks so every point also reports
// its steady-state allocation count (the vectorized path must stay at
// zero). Writes BENCH_micro_kernels.json and exits with its gate's verdict
// (BenchReport): checksums and zero allocations are hard checks, the
// speedup a speed check.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/rng.h"
#include "engine/vector/column_batch.h"
#include "engine/vector/kernels.h"
#include "engine/vector/pred.h"
#include "storage/temp_index.h"

namespace {

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

constexpr int kReps = 21;
// Filter: a cache-resident row set swept many times per rep, so the sweep
// measures kernel cost, not DRAM streaming (where any path is bandwidth
// bound and the comparison says nothing about the kernels).
constexpr size_t kFilterRows = 1 << 14;   // 16K tuples, 3 int columns.
constexpr size_t kFilterPasses = 64;      // 1M tuple-visits per rep.
constexpr size_t kProbeRows = 1 << 18;    // 256K probe keys.
constexpr size_t kInnerRows = 1 << 18;    // 256K inner tuples, unique keys.
constexpr size_t kChunkSizes[] = {1, 4, 16, 64, 256, 1024};
// Gate: the best batch speedup over the row path among chunk sizes of at
// least kMinGatedChunk must reach kMinSpeedup, per sweep. Each point is
// already best-of-kReps.
constexpr size_t kMinGatedChunk = 16;
constexpr double kMinSpeedup = 2.0;

struct Measurement {
  double seconds = 0.0;        // Best of kReps.
  uint64_t allocations = 0;    // Fewest of kReps (steady-state floor).
  uint64_t checksum = 0;       // All paths over one workload must agree.
};

/// Runs `body` kReps times; keeps the best wall time and the lowest
/// allocation delta. `body` returns a checksum that must be identical
/// across reps and across the paths being compared.
template <typename Body>
Measurement Measure(const Body& body) {
  Measurement m;
  m.seconds = 1e30;
  m.allocations = ~uint64_t{0};
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    const uint64_t checksum = body();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    m.seconds = std::min(m.seconds, seconds);
    m.allocations = std::min(m.allocations, allocs);
    if (rep > 0 && checksum != m.checksum) {
      std::fprintf(stderr, "checksum drifted across reps\n");
      std::exit(1);
    }
    m.checksum = checksum;
  }
  return m;
}

double TuplesPerSecond(size_t n, double seconds) {
  return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
}

struct SweepPoint {
  size_t chunk_size = 0;
  double tuples_per_second = 0.0;
  double speedup = 0.0;  // vs the row-path baseline of the same sweep.
  uint64_t allocations = 0;
  bool checksum_match = false;  // Same checksum as the row path.
};

/// Records one sweep's points and makes its three checks: every checksum
/// matches the row paths' (hard), every point runs allocation-free in
/// steady state (hard), and the best speedup at a gated chunk size
/// reaches kMinSpeedup (speed).
void ReportSweep(BenchReport& report, const char* sweep,
                 bool row_paths_match, const std::vector<SweepPoint>& points) {
  std::string mismatched;
  std::string allocating;
  const SweepPoint* best = nullptr;
  for (const SweepPoint& p : points) {
    const std::string c = Format("%s chunk=%zu", sweep, p.chunk_size);
    report.Record(c, "mtuples_per_second", "Mtuples/s", BenchReport::kHigher,
                  p.tuples_per_second / 1e6);
    report.Record(c, "speedup", "ratio", BenchReport::kHigher, p.speedup);
    report.Record(c, "steady_allocations", "count", BenchReport::kLower,
                  static_cast<double>(p.allocations));
    if (!p.checksum_match) mismatched += Format(" %zu", p.chunk_size);
    if (p.allocations != 0) allocating += Format(" %zu", p.chunk_size);
    if (p.chunk_size >= kMinGatedChunk &&
        (best == nullptr || p.speedup > best->speedup)) {
      best = &p;
    }
  }
  report.Check(Format("%s checksums", sweep), BenchReport::kHard,
               row_paths_match && mismatched.empty(),
               !row_paths_match ? "the row paths disagree"
               : mismatched.empty()
                   ? "every chunk size matches the row path"
                   : "batch disagrees at chunk" + mismatched);
  report.Check(Format("%s zero allocations", sweep), BenchReport::kHard,
               allocating.empty(),
               allocating.empty() ? "at every chunk size"
                                  : "allocating at chunk" + allocating);
  report.Check(Format("%s speedup", sweep), BenchReport::kSpeed,
               best->speedup >= kMinSpeedup,
               Format("best %.2fx at chunk %zu (must reach %.2fx at chunk "
                      ">= %zu)",
                      best->speedup, best->chunk_size, kMinSpeedup,
                      kMinGatedChunk));
}

// ---------------------------------------------------------------- Filter --

std::vector<Tuple> FilterWorkload() {
  Rng rng(17);
  std::vector<Tuple> rows;
  rows.reserve(kFilterRows);
  for (size_t i = 0; i < kFilterRows; ++i) {
    rows.push_back(Tuple({Value(rng.Range(0, 1000)), Value(rng.Range(0, 100)),
                          Value(static_cast<int64_t>(i))}));
  }
  return rows;
}

/// The conjunctive row predicate as esql/planner.cc built a WHERE clause
/// before the vector layer existed (PredicateFor + CombinePredicates): one
/// type-erased std::function per comparison doing Value-level compares
/// (kGe is `literal < v || v == literal`, two variant dispatches), closed
/// over by an outer combinator that loops the conjuncts. This — not a
/// hand-inlined lambda — is what FilterLogic invoked per tuple then.
std::function<bool(const Tuple&)> PlannerPredicate() {
  std::vector<std::function<bool(const Tuple&)>> conjuncts;
  conjuncts.push_back([lit = Value(int64_t{100})](const Tuple& t) {
    const Value& v = t.at(0);
    return lit < v || v == lit;  // a >= 100
  });
  conjuncts.push_back([lit = Value(int64_t{700})](const Tuple& t) {
    const Value& v = t.at(0);
    return v < lit || v == lit;  // a <= 700
  });
  conjuncts.push_back([lit = Value(int64_t{7})](const Tuple& t) {
    return t.at(1) != lit;  // b != 7
  });
  return [conjuncts = std::move(conjuncts)](const Tuple& t) {
    for (const auto& p : conjuncts) {
      if (!p(t)) return false;
    }
    return true;
  };
}

/// The row path as the engine ran it before the vector layer: every tuple
/// enters the operator through a virtual per-tuple hook (the per-tuple
/// OnData the operators then had) which invokes the type-erased
/// TuplePredicate — one virtual and one std::function indirection per
/// tuple. The real path pays emitter dispatch and queue accounting on top,
/// so this baseline flatters the row path if anything.
class RowFilter {
 public:
  explicit RowFilter(std::function<bool(const Tuple&)> fn)
      : fn_(std::move(fn)) {}
  virtual ~RowFilter() = default;
  virtual void OnRow(size_t i, const Tuple& t) {
    if (fn_(t)) sum_ += i;
  }
  uint64_t Take() {
    const uint64_t s = sum_;
    sum_ = 0;
    return s;
  }

 private:
  std::function<bool(const Tuple&)> fn_;
  uint64_t sum_ = 0;
};

__attribute__((noinline)) std::unique_ptr<RowFilter> MakeRowFilter(
    std::function<bool(const Tuple&)> fn) {
  return std::make_unique<RowFilter>(std::move(fn));
}

/// The batch filter kernel over `chunk_size`-tuple spans: one ColumnBatch
/// gather + branch-free EvalPredAll per chunk, transient state in the
/// warmed thread-local arena.
uint64_t BatchFilterSweep(const std::vector<Tuple>& rows, const PredExpr& pred,
                          size_t chunk_size) {
  Arena& arena = ThreadLocalKernelArena();
  uint64_t sum = 0;
  for (size_t base = 0; base < rows.size(); base += chunk_size) {
    const size_t n = std::min(chunk_size, rows.size() - base);
    ScopedArena scope(&arena);
    ColumnBatch batch(std::span<const Tuple>(rows.data() + base, n),
                      scope.get());
    uint32_t* sel = scope.get()->AllocateArrayOf<uint32_t>(n);
    const size_t matches = EvalPredAll(pred, batch, sel);
    for (size_t i = 0; i < matches; ++i) sum += base + sel[i];
  }
  return sum;
}

// ----------------------------------------------------------------- Probe --

/// Inner fragment with unique int keys, sized like a partition's temp
/// index: the engine builds one TempIndex per inner *fragment* (the
/// paper's relations hash-partitioned across the declustered nodes), so
/// the index a probe stream actually hits is a few-MB structure, not a
/// monolithic table — and the comparison measures the per-probe software
/// overhead the batch kernel removes rather than DRAM latency, which is
/// the same dependent-load chain on either path.
Fragment ProbeInner() {
  Fragment fragment;
  fragment.tuples.reserve(kInnerRows);
  for (size_t i = 0; i < kInnerRows; ++i) {
    fragment.tuples.push_back(Tuple({Value(static_cast<int64_t>(i))}));
  }
  return fragment;
}

std::vector<Tuple> ProbeWorkload() {
  Rng rng(23);
  std::vector<Tuple> probes;
  probes.reserve(kProbeRows);
  // Random keys over the inner key range: every probe matches, like the
  // paper's equi-joins (B.b = A.a with A keyed on a) where the probe side
  // references the build side's key domain.
  for (size_t i = 0; i < kProbeRows; ++i) {
    probes.push_back(
        Tuple({Value(rng.Range(0, static_cast<int64_t>(kInnerRows) - 1))}));
  }
  return probes;
}

/// The probe row path exactly as the engine ran it before this
/// optimization, and the gate baseline (the filter sweep gates against the
/// planner's pre-existing std::function path the same way): a replica of
/// the previous TempIndex — power-of-two buckets at load factor <= 1, no
/// inline key cache, each chain step comparing the cached hash and then
/// confirming by Value equality through the fragment tuple's heap-held
/// value vector — probed one tuple at a time through a virtual per-tuple
/// hook (the per-tuple OnData the operators then had), hashing the key
/// through the Value variant. First-match resolution is the probe kernel's
/// whole contract — the chain start for the join, whose subsequent match
/// walk is identical iterator code on either
/// path and so is excluded from all sides here. The real path pays emitter
/// dispatch per match on top.
class SeedIndex {
 public:
  SeedIndex(const Fragment& fragment, size_t key_column)
      : fragment_(fragment), key_column_(key_column) {
    const size_t n = fragment.tuples.size();
    size_t buckets = 1;
    while (buckets < n) buckets <<= 1;
    head_.assign(buckets, TempIndex::kNone);
    mask_ = buckets - 1;
    next_.assign(n, TempIndex::kNone);
    hashes_.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      hashes_[i] = fragment.tuples[i].at(key_column_).Hash();
    }
    for (uint32_t i = static_cast<uint32_t>(n); i-- > 0;) {
      const size_t b = hashes_[i] & mask_;
      next_[i] = head_[b];
      head_[b] = i;
    }
  }

  uint32_t FirstMatch(uint64_t hash, const Value& key) const {
    uint32_t pos = head_[hash & mask_];
    while (pos != TempIndex::kNone) {
      if (hashes_[pos] == hash &&
          fragment_.tuples[pos].at(key_column_) == key) {
        return pos;
      }
      pos = next_[pos];
    }
    return pos;
  }

 private:
  const Fragment& fragment_;
  size_t key_column_;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> hashes_;
  uint64_t mask_ = 0;
};

class RowProber {
 public:
  explicit RowProber(const SeedIndex* index) : index_(index) {}
  virtual ~RowProber() = default;
  virtual void OnRow(const Tuple& t) {
    const Value& key = t.at(0);
    const uint32_t pos = index_->FirstMatch(key.Hash(), key);
    if (pos != TempIndex::kNone) sum_ += pos + 1;
  }
  uint64_t Take() {
    const uint64_t s = sum_;
    sum_ = 0;
    return s;
  }

 private:
  const SeedIndex* index_;
  uint64_t sum_ = 0;
};

__attribute__((noinline)) std::unique_ptr<RowProber> MakeRowProber(
    const SeedIndex* index) {
  return std::make_unique<RowProber>(index);
}

/// The current scalar path — the same rebuilt TempIndex the batch kernel
/// probes (inline int-key cache, load factor <= 0.5), one tuple at a time.
/// Reported alongside the seed baseline so the speedup decomposes into the
/// index-layout share and the batching/pipelining share; the gate compares
/// against the seed path, i.e. what this change replaced end to end.
class CurrentRowProber {
 public:
  explicit CurrentRowProber(const TempIndex* index) : index_(index) {}
  virtual ~CurrentRowProber() = default;
  virtual void OnRow(const Tuple& t) {
    const Value& key = t.at(0);
    const TempIndex::MatchRange r = index_->ProbeHashed(key.Hash(), key);
    if (!r.empty()) sum_ += *r.begin() + 1;
  }
  uint64_t Take() {
    const uint64_t s = sum_;
    sum_ = 0;
    return s;
  }

 private:
  const TempIndex* index_;
  uint64_t sum_ = 0;
};

__attribute__((noinline)) std::unique_ptr<CurrentRowProber>
MakeCurrentRowProber(const TempIndex* index) {
  return std::make_unique<CurrentRowProber>(index);
}

/// The batch probe's first-match stage: gather the key column once (it
/// doubles as hash input and confirm keys), resolve every chunk's first
/// matches with the pipelined tiled wave probe against the index's inline
/// key cache.
uint64_t BatchProbeSweep(const TempIndex& index,
                         const std::vector<Tuple>& probes, size_t chunk_size) {
  Arena& arena = ThreadLocalKernelArena();
  uint64_t sum = 0;
  for (size_t base = 0; base < probes.size(); base += chunk_size) {
    const size_t n = std::min(chunk_size, probes.size() - base);
    ScopedArena scope(&arena);
    ColumnBatch batch(std::span<const Tuple>(probes.data() + base, n),
                      scope.get());
    const int64_t* keys = batch.Ints(0);
    uint32_t* first = scope.get()->AllocateArrayOf<uint32_t>(n);
    index.ProbeKeys(std::span<const int64_t>(keys, n), first);
    for (size_t i = 0; i < n; ++i) {
      if (first[i] != TempIndex::kNone) sum += first[i] + 1;
    }
  }
  return sum;
}

int Main() {
  PrintHeader("micro_kernels",
              "vectorized kernel throughput vs the row path");

  // --- Filter sweep. The row baseline is what FilterLogic did before the
  // vector layer existed: one std::function call per tuple.
  const std::vector<Tuple> rows = FilterWorkload();
  std::vector<PredExpr> conjuncts;
  conjuncts.push_back(PredExpr::IntBetween(0, 100, 700));
  conjuncts.push_back(PredExpr::IntNotEquals(1, 7));
  const PredExpr pred = PredExpr::And(std::move(conjuncts));

  const size_t filter_visits = rows.size() * kFilterPasses;
  std::unique_ptr<RowFilter> row_filter_op = MakeRowFilter(PlannerPredicate());
  const Measurement row_filter = Measure([&] {
    uint64_t sum = 0;
    for (size_t pass = 0; pass < kFilterPasses; ++pass) {
      for (size_t i = 0; i < rows.size(); ++i) {
        row_filter_op->OnRow(i, rows[i]);
      }
      sum += row_filter_op->Take();
    }
    return sum;
  });
  const Measurement evalrow_filter = Measure([&] {
    uint64_t sum = 0;
    for (size_t pass = 0; pass < kFilterPasses; ++pass) {
      for (size_t i = 0; i < rows.size(); ++i) {
        if (pred.EvalRow(rows[i])) sum += i;
      }
    }
    return sum;
  });
  const double filter_row_tps =
      TuplesPerSecond(filter_visits, row_filter.seconds);
  const double filter_evalrow_tps =
      TuplesPerSecond(filter_visits, evalrow_filter.seconds);
  std::printf("filter row path:      %11.0f tuples/s (per-tuple dispatch), "
              "%11.0f tuples/s (EvalRow)\n",
              filter_row_tps, filter_evalrow_tps);

  BatchFilterSweep(rows, pred, 256);  // Warm the thread-local arena.
  std::vector<SweepPoint> filter_points;
  for (size_t chunk_size : kChunkSizes) {
    const Measurement m = Measure([&] {
      uint64_t sum = 0;
      for (size_t pass = 0; pass < kFilterPasses; ++pass) {
        sum += BatchFilterSweep(rows, pred, chunk_size);
      }
      return sum;
    });
    SweepPoint point;
    point.chunk_size = chunk_size;
    point.tuples_per_second = TuplesPerSecond(filter_visits, m.seconds);
    point.speedup = point.tuples_per_second / filter_row_tps;
    point.allocations = m.allocations;
    point.checksum_match = m.checksum == row_filter.checksum;
    filter_points.push_back(point);
    std::printf("filter batch %4zu:    %11.0f tuples/s (%.2fx, %llu allocs)\n",
                chunk_size, point.tuples_per_second, point.speedup,
                static_cast<unsigned long long>(point.allocations));
  }

  // --- Probe sweep.
  const Fragment inner = ProbeInner();
  const TempIndex index(inner, 0);
  const SeedIndex seed_index(inner, 0);
  const std::vector<Tuple> probes = ProbeWorkload();

  std::unique_ptr<RowProber> row_prober = MakeRowProber(&seed_index);
  const Measurement row_probe = Measure([&] {
    for (const Tuple& t : probes) row_prober->OnRow(t);
    return row_prober->Take();
  });
  std::unique_ptr<CurrentRowProber> current_prober =
      MakeCurrentRowProber(&index);
  const Measurement current_row_probe = Measure([&] {
    for (const Tuple& t : probes) current_prober->OnRow(t);
    return current_prober->Take();
  });
  const double probe_row_tps =
      TuplesPerSecond(probes.size(), row_probe.seconds);
  const double probe_current_row_tps =
      TuplesPerSecond(probes.size(), current_row_probe.seconds);
  std::printf("probe row path:       %11.0f probes/s (seed index), "
              "%11.0f probes/s (rebuilt index)\n",
              probe_row_tps, probe_current_row_tps);

  BatchProbeSweep(index, probes, 256);  // Warm the arena for this shape.
  std::vector<SweepPoint> probe_points;
  for (size_t chunk_size : kChunkSizes) {
    const Measurement m =
        Measure([&] { return BatchProbeSweep(index, probes, chunk_size); });
    SweepPoint point;
    point.chunk_size = chunk_size;
    point.tuples_per_second = TuplesPerSecond(probes.size(), m.seconds);
    point.speedup = point.tuples_per_second / probe_row_tps;
    point.allocations = m.allocations;
    point.checksum_match = m.checksum == row_probe.checksum;
    probe_points.push_back(point);
    std::printf("probe batch %4zu:     %11.0f probes/s (%.2fx, %llu allocs)\n",
                chunk_size, point.tuples_per_second, point.speedup,
                static_cast<unsigned long long>(point.allocations));
  }

  BenchReport report("micro_kernels", "kernels");
  report.Record("filter row", "mtuples_per_second", "Mtuples/s",
                BenchReport::kHigher, filter_row_tps / 1e6);
  report.Record("filter EvalRow", "mtuples_per_second", "Mtuples/s",
                BenchReport::kHigher, filter_evalrow_tps / 1e6);
  ReportSweep(report, "filter",
              evalrow_filter.checksum == row_filter.checksum, filter_points);
  report.Record("probe row", "mtuples_per_second", "Mtuples/s",
                BenchReport::kHigher, probe_row_tps / 1e6);
  report.Record("probe rebuilt-index row", "mtuples_per_second", "Mtuples/s",
                BenchReport::kHigher, probe_current_row_tps / 1e6);
  ReportSweep(report, "probe",
              current_row_probe.checksum == row_probe.checksum, probe_points);
  return report.Finish();
}

}  // namespace
}  // namespace dbs3

int main() { return dbs3::Main(); }

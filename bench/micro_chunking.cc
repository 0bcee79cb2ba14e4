// Chunked-activation sweep on the real multithreaded engine: runs the
// pipelined-join workload (transmit -> join -> store, the AssocJoin shape of
// Figure 11) at chunk_size in {1, 4, 16, 64, 256} and reports wall-clock,
// queue-mutex contention, and tuples per activation. chunk_size = 1 is the
// paper-faithful per-tuple mode; larger chunks amortize the producer-side
// queue round-trip. Writes BENCH_micro_chunking.json next to the aligned
// rows and exits with its gate's verdict (BenchReport).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dbs3/database.h"
#include "dbs3/query.h"

namespace dbs3 {
namespace {

struct ChunkPoint {
  size_t chunk_size = 1;
  double wall_seconds = 0.0;       // Best of kReps (noise-robust).
  double busy_seconds = 0.0;       // Processing time summed over workers,
  double span_seconds = 0.0;       // vs. the slowest worker's wall span
                                   // (both from the best-wall rep).
  uint64_t queue_acquisitions = 0; // Summed over all reps and operations.
  uint64_t queue_contended = 0;
  double tuples_per_activation = 0.0;
};

constexpr int kReps = 5;
constexpr size_t kChunkSizes[] = {1, 4, 16, 64, 256};
// The gate compares this chunk size against the per-tuple mode.
constexpr size_t kGateChunk = 16;

ChunkPoint MeasureChunk(Database& db, size_t chunk_size) {
  ChunkPoint point;
  point.chunk_size = chunk_size;
  point.wall_seconds = 1e30;
  uint64_t tuples = 0, activations = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    QueryOptions options;
    options.schedule.total_threads = 4;
    options.schedule.processors = 4;
    options.schedule.chunk_size = chunk_size;
    QueryResult r = UnwrapOrDie(
        RunAssocJoin(db, "B", "key", "A", "key", options), "AssocJoin");
    if (r.execution.seconds < point.wall_seconds) {
      point.busy_seconds = 0.0;
      point.span_seconds = 0.0;
      for (const OperationStats& op : r.execution.op_stats) {
        point.busy_seconds += op.busy_seconds;
        point.span_seconds = std::max(point.span_seconds,
                                      op.wall_span_seconds);
      }
    }
    point.wall_seconds = std::min(point.wall_seconds, r.execution.seconds);
    for (const OperationStats& op : r.execution.op_stats) {
      point.queue_acquisitions += op.queue_acquisitions;
      point.queue_contended += op.queue_contended;
      activations += op.activations;
      for (uint64_t c : op.per_instance_processed) tuples += c;
    }
  }
  point.tuples_per_activation =
      activations > 0
          ? static_cast<double>(tuples) / static_cast<double>(activations)
          : 0.0;
  return point;
}

double ContentionRatio(const ChunkPoint& p) {
  return p.queue_acquisitions > 0
             ? static_cast<double>(p.queue_contended) /
                   static_cast<double>(p.queue_acquisitions)
             : 0.0;
}

int Main() {
  PrintHeader("micro_chunking",
              "chunked data activations on the pipelined join");

  Database db(4);
  SkewSpec spec;
  spec.a_cardinality = 40'000;
  spec.b_cardinality = 8'000;
  spec.degree = 32;
  spec.theta = 0.5;
  CheckOk(db.CreateSkewedPair(spec, "A", "B"), "CreateSkewedPair");

  BenchReport report("micro_chunking", "queue");
  std::vector<ChunkPoint> points;
  std::printf("%-12s %-10s %-10s %-10s %-14s %-12s %-12s %s\n",
              "chunk_size", "wall_ms", "busy_ms", "span_ms", "acquisitions",
              "contended", "cont_ratio", "tuples/activation");
  for (size_t chunk : kChunkSizes) {
    const ChunkPoint p = MeasureChunk(db, chunk);
    std::printf("%-12zu %-10.2f %-10.2f %-10.2f %-14llu %-12llu %-12.6f "
                "%.1f\n",
                p.chunk_size, p.wall_seconds * 1e3, p.busy_seconds * 1e3,
                p.span_seconds * 1e3,
                static_cast<unsigned long long>(p.queue_acquisitions),
                static_cast<unsigned long long>(p.queue_contended),
                ContentionRatio(p), p.tuples_per_activation);
    const std::string c = Format("chunk=%zu", chunk);
    report.Record(c, "wall_ms", "ms", BenchReport::kLower,
                  p.wall_seconds * 1e3);
    report.Record(c, "busy_ms", "ms", BenchReport::kLower,
                  p.busy_seconds * 1e3);
    report.Record(c, "span_ms", "ms", BenchReport::kLower,
                  p.span_seconds * 1e3);
    report.Record(c, "queue_acquisitions", "count", BenchReport::kLower,
                  static_cast<double>(p.queue_acquisitions));
    report.Record(c, "queue_contended", "count", BenchReport::kLower,
                  static_cast<double>(p.queue_contended));
    report.Record(c, "contention_ratio", "ratio", BenchReport::kLower,
                  ContentionRatio(p));
    report.Record(c, "tuples_per_activation", "count", BenchReport::kHigher,
                  p.tuples_per_activation);
    points.push_back(p);
  }

  // Gate: at kGateChunk the wall-clock, the queue traffic (acquisitions)
  // and the contended acquisitions must all be strictly below the
  // per-tuple mode. Every chunk size runs the same workload, so the
  // contended count measures contention per unit of work; the ratio
  // contended/acquisitions is recorded but not gated, because chunking
  // cuts its denominator about 12x and the ratio can rise while
  // contention itself falls.
  const ChunkPoint& base = points.front();
  const ChunkPoint& chunked = *std::find_if(
      points.begin(), points.end(),
      [](const ChunkPoint& p) { return p.chunk_size == kGateChunk; });
  report.Check("chunk 16 wall below chunk 1", BenchReport::kHard,
               chunked.wall_seconds < base.wall_seconds,
               Format("%.2f ms -> %.2f ms", base.wall_seconds * 1e3,
                      chunked.wall_seconds * 1e3));
  report.Check(
      "chunk 16 acquisitions below chunk 1", BenchReport::kHard,
      chunked.queue_acquisitions < base.queue_acquisitions,
      Format("%llu -> %llu",
             static_cast<unsigned long long>(base.queue_acquisitions),
             static_cast<unsigned long long>(chunked.queue_acquisitions)));
  report.Check(
      "chunk 16 contended below chunk 1", BenchReport::kHard,
      chunked.queue_contended < base.queue_contended,
      Format("%llu -> %llu",
             static_cast<unsigned long long>(base.queue_contended),
             static_cast<unsigned long long>(chunked.queue_contended)));
  return report.Finish();
}

}  // namespace
}  // namespace dbs3

int main() { return dbs3::Main(); }

// Per-layer replays for the traced run: the benchmark times calls into each
// module's public functions, on the workload's own relations, keys and
// query texts, and records one span per replayed call (or per block of
// calls for the nanosecond-scale ones).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <vector>

#include "dbs3/database.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Collects replay spans on one trace track, timed against `origin`.
struct SpanSink {
  Clock::time_point origin;
  uint32_t tid = 0;
  std::vector<Span>* spans = nullptr;

  void Add(const char* name, Clock::time_point start, Clock::time_point end);
};

/// Runs every replay and returns its metrics: esql.parse_us,
/// sched.schedule_us, server.admission_cycle_ns, server.pool_dispatch_us,
/// engine.queue_ns.c1, engine.queue_ns.c64, engine.chunk_pool_ns,
/// kernel.filter_mtuples_s, kernel.probe_mkeys_s,
/// storage.index_build_mtuples_s, storage.quota_charge_ns,
/// storage.spill_write_mb_s and storage.spill_read_mb_s.
std::vector<Metric> ReplayLayers(dbs3::Database& db, const Workload& workload,
                                 SpanSink& sink);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

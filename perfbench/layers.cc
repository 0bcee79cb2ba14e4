#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "common/arena.h"
#include "common/memory_quota.h"
#include "engine/activation_queue.h"
#include "engine/chunk_pool.h"
#include "engine/cost_model.h"
#include "engine/vector/column_batch.h"
#include "engine/vector/pred.h"
#include "esql/parser.h"
#include "sched/scheduler.h"
#include "server/admission.h"
#include "server/worker_pool.h"
#include "storage/spill.h"
#include "storage/temp_index.h"

namespace perfbench {

namespace {

using dbs3::Relation;
using dbs3::Tuple;

/// Each throughput replay repeats its pass until it has run this long.
constexpr double kMinReplaySeconds = 0.2;
/// Calls per span for the nanosecond-scale replays.
constexpr size_t kBlock = 4096;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: replay failed: %s\n", what);
    std::exit(2);
  }
}

/// Up to `limit` tuples of `rel`, fragment by fragment.
std::vector<const Tuple*> SomeTuples(const Relation& rel, size_t limit) {
  std::vector<const Tuple*> out;
  for (size_t f = 0; f < rel.degree() && out.size() < limit; ++f) {
    for (const Tuple& t : rel.fragment(f).tuples) {
      if (out.size() == limit) break;
      out.push_back(&t);
    }
  }
  return out;
}

/// Median microseconds per ParseEsql call over the workload's texts.
double ParseUs(const LayerInputs& in, SpanSink& sink) {
  std::vector<double> us;
  for (int rep = 0; rep < 200; ++rep) {
    for (const std::string& text : in.texts) {
      const auto start = Clock::now();
      auto parsed = dbs3::ParseEsql(text);
      const auto end = Clock::now();
      Require(parsed.ok(), "ParseEsql");
      us.push_back(Micros(end - start));
      sink.Add("esql.ParseEsql", start, end);
    }
  }
  return Median(std::move(us));
}

/// Median microseconds per ScheduleQuery call on the workload's plans.
double ScheduleUs(dbs3::Database& db, const Workload& workload,
                  SpanSink& sink) {
  std::vector<PlannedShape> plans = workload.Plans(db);
  const dbs3::ScheduleOptions options = workload.schedule();
  const dbs3::CostModel cost_model;
  std::vector<double> us;
  for (int rep = 0; rep < 300; ++rep) {
    for (PlannedShape& shape : plans) {
      const auto start = Clock::now();
      auto report = dbs3::ScheduleQuery(shape.plan, cost_model, options);
      const auto end = Clock::now();
      Require(report.ok(), "ScheduleQuery");
      us.push_back(Micros(end - start));
      sink.Add("sched.ScheduleQuery", start, end);
    }
  }
  return Median(std::move(us));
}

/// Nanoseconds per TryEnqueue + PopNext pair on a private controller.
double AdmissionCycleNs(SpanSink& sink) {
  dbs3::AdmissionController admission{dbs3::AdmissionConfig{}};
  constexpr size_t kPairs = 64 * kBlock;
  dbs3::PendingQuery out;
  const auto start = Clock::now();
  auto block_start = start;
  for (size_t i = 1; i <= kPairs; ++i) {
    dbs3::PendingQuery q;
    q.id = i;
    q.enqueued_at = Clock::now();
    Require(admission.TryEnqueue(std::move(q)).ok(), "TryEnqueue");
    Require(admission.PopNext(&out), "PopNext");
    if (i % kBlock == 0) {
      const auto now = Clock::now();
      sink.Add("server.admission_cycle", block_start, now);
      block_start = now;
    }
  }
  admission.Shutdown();
  return Seconds(Clock::now() - start) * 1e9 / static_cast<double>(kPairs);
}

/// Median microseconds from WorkerPool::Dispatch to the task starting, on
/// a private pool of the runtime's default size.
double PoolDispatchUs(SpanSink& sink) {
  dbs3::WorkerPool pool(4);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    std::atomic<int64_t> started_ns{0};
    const auto start = Clock::now();
    pool.Dispatch([&started_ns] {
      started_ns.store(Clock::now().time_since_epoch().count(),
                       std::memory_order_release);
    });
    int64_t seen = 0;
    while ((seen = started_ns.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    const Clock::time_point began{Clock::duration(seen)};
    us.push_back(Micros(began - start));
    sink.Add("server.WorkerPool::Dispatch", start, began);
  }
  return Median(std::move(us));
}

/// Nanoseconds per activation for Push + PopBatch at `chunk` tuples per
/// activation, batches of the default cache size (8).
double QueueNs(const std::vector<const Tuple*>& tuples, size_t chunk,
               SpanSink& sink, const char* span_name) {
  constexpr size_t kCache = 8;
  std::vector<dbs3::Activation> held;
  for (size_t a = 0; a < kCache; ++a) {
    dbs3::TupleChunk c;
    for (size_t i = 0; i < chunk; ++i) {
      c.push_back(*tuples[(a * chunk + i) % tuples.size()]);
    }
    held.push_back(dbs3::Activation::DataChunk(std::move(c)));
  }
  dbs3::ActivationQueue queue;
  std::vector<dbs3::Activation> popped;
  popped.reserve(kCache);
  constexpr size_t kRounds = 16 * kBlock;
  const auto start = Clock::now();
  auto block_start = start;
  for (size_t r = 1; r <= kRounds; ++r) {
    for (dbs3::Activation& a : held) {
      Require(queue.Push(std::move(a)), "ActivationQueue::Push");
    }
    popped.clear();
    Require(queue.PopBatch(kCache, &popped) == kCache, "PopBatch");
    for (size_t a = 0; a < kCache; ++a) held[a] = std::move(popped[a]);
    if (r % kBlock == 0) {
      const auto now = Clock::now();
      sink.Add(span_name, block_start, now);
      block_start = now;
    }
  }
  return Seconds(Clock::now() - start) * 1e9 /
         static_cast<double>(kRounds * kCache);
}

/// Nanoseconds per ChunkPool Acquire + Release pair.
double ChunkPoolNs(SpanSink& sink) {
  dbs3::ChunkPool pool;
  constexpr size_t kPairs = 256 * kBlock;
  const auto start = Clock::now();
  auto block_start = start;
  for (size_t i = 1; i <= kPairs; ++i) {
    dbs3::TupleChunk chunk = pool.Acquire(64);
    pool.Release(std::move(chunk));
    if (i % kBlock == 0) {
      const auto now = Clock::now();
      sink.Add("engine.ChunkPool", block_start, now);
      block_start = now;
    }
  }
  return Seconds(Clock::now() - start) * 1e9 / static_cast<double>(kPairs);
}

/// Nanoseconds per MemoryQuota TryCharge + Release pair of one chunk's
/// worth of units, against a bounded quota (the spilling operators'
/// charging path).
double QuotaChargeNs(SpanSink& sink) {
  dbs3::MemoryQuota quota(4096);
  constexpr size_t kPairs = 256 * kBlock;
  uint64_t refused = 0;
  const auto start = Clock::now();
  auto block_start = start;
  for (size_t i = 1; i <= kPairs; ++i) {
    if (quota.TryCharge(64)) {
      quota.Release(64);
    } else {
      ++refused;
    }
    if (i % kBlock == 0) {
      const auto now = Clock::now();
      sink.Add("storage.MemoryQuota", block_start, now);
      block_start = now;
    }
  }
  Require(refused == 0 && quota.high_water() == 64, "MemoryQuota");
  return Seconds(Clock::now() - start) * 1e9 / static_cast<double>(kPairs);
}

/// Million tuples per second through EvalPredAll over 1024-row
/// ColumnBatches of every fragment of the scanned relation.
double FilterMtuplesPerSecond(const LayerInputs& in, SpanSink& sink) {
  constexpr size_t kTile = 1024;
  dbs3::Arena arena;
  uint64_t tuples = 0;
  uint64_t matched = 0;
  const auto start = Clock::now();
  while (Seconds(Clock::now() - start) < kMinReplaySeconds) {
    const auto pass_start = Clock::now();
    for (size_t f = 0; f < in.scan->degree(); ++f) {
      const std::vector<Tuple>& rows = in.scan->fragment(f).tuples;
      for (size_t off = 0; off < rows.size(); off += kTile) {
        const size_t n = std::min(kTile, rows.size() - off);
        dbs3::ScopedArena scope(&arena);
        dbs3::ColumnBatch batch(std::span<const Tuple>(rows.data() + off, n),
                                &arena);
        uint32_t* sel = arena.AllocateArrayOf<uint32_t>(n);
        matched += dbs3::EvalPredAll(in.filter, batch, sel);
      }
      tuples += rows.size();
    }
    sink.Add("kernel.EvalPredAll", pass_start, Clock::now());
  }
  Require(matched <= tuples, "EvalPredAll");
  return static_cast<double>(tuples) / Seconds(Clock::now() - start) / 1e6;
}

/// Million tuples per second of TempIndex construction over every inner
/// fragment.
double IndexBuildMtuplesPerSecond(const LayerInputs& in, SpanSink& sink) {
  uint64_t tuples = 0;
  size_t distinct = 0;
  const auto start = Clock::now();
  while (Seconds(Clock::now() - start) < kMinReplaySeconds) {
    const auto pass_start = Clock::now();
    for (size_t f = 0; f < in.inner->degree(); ++f) {
      dbs3::TempIndex index(in.inner->fragment(f), in.inner_key);
      distinct += index.distinct_keys();
      tuples += in.inner->fragment(f).cardinality();
    }
    sink.Add("storage.TempIndex", pass_start, Clock::now());
  }
  Require(distinct > 0, "TempIndex build");
  return static_cast<double>(tuples) / Seconds(Clock::now() - start) / 1e6;
}

/// Million keys per second through TempIndex::ProbeKeys, each probe key
/// routed to the inner fragment its partitioner names.
double ProbeMkeysPerSecond(const LayerInputs& in, SpanSink& sink) {
  const size_t degree = in.inner->degree();
  std::vector<std::unique_ptr<dbs3::TempIndex>> indexes;
  for (size_t f = 0; f < degree; ++f) {
    indexes.push_back(std::make_unique<dbs3::TempIndex>(in.inner->fragment(f),
                                                        in.inner_key));
    Require(indexes.back()->int_keyed(), "int-keyed TempIndex");
  }
  std::vector<std::vector<int64_t>> keys(degree);
  for (int64_t k : in.probe_keys) {
    keys[in.inner->partitioner().FragmentOf(dbs3::Value(k))].push_back(k);
  }
  std::vector<uint32_t> first(in.probe_keys.size());
  uint64_t probed = 0;
  const auto start = Clock::now();
  while (Seconds(Clock::now() - start) < kMinReplaySeconds) {
    const auto pass_start = Clock::now();
    for (size_t f = 0; f < degree; ++f) {
      if (keys[f].empty()) continue;
      indexes[f]->ProbeKeys(keys[f], first.data());
      probed += keys[f].size();
    }
    sink.Add("kernel.ProbeKeys", pass_start, Clock::now());
  }
  Require(probed > 0, "ProbeKeys");
  return static_cast<double>(probed) / Seconds(Clock::now() - start) / 1e6;
}

/// MB/s of SpillFile::Append (+ the flushing Rewind) and of the
/// Rewind + ReadChunk stream back, medians over a few files.
std::pair<double, double> SpillMbPerSecond(
    const std::vector<const Tuple*>& tuples, SpanSink& sink) {
  std::vector<double> write, read;
  for (int rep = 0; rep < 5; ++rep) {
    dbs3::SpillCounters counters;
    auto created = dbs3::SpillFile::Create(&counters);
    Require(created.ok(), "SpillFile::Create");
    std::unique_ptr<dbs3::SpillFile> file = std::move(created).value();
    const auto write_start = Clock::now();
    for (const Tuple* t : tuples) Require(file->Append(*t).ok(), "Append");
    Require(file->Rewind().ok(), "Rewind");
    const auto write_end = Clock::now();
    sink.Add("storage.SpillFile::Append", write_start, write_end);
    std::vector<Tuple> chunk;
    uint64_t back = 0;
    for (;;) {
      auto more = file->ReadChunk(&chunk);
      Require(more.ok(), "ReadChunk");
      if (!more.value()) break;
      back += chunk.size();
    }
    const auto read_end = Clock::now();
    sink.Add("storage.SpillFile::ReadChunk", write_end, read_end);
    Require(back == tuples.size(), "spill round trip");
    const double mb = static_cast<double>(file->bytes_written()) / 1e6;
    write.push_back(mb / Seconds(write_end - write_start));
    read.push_back(mb / Seconds(read_end - write_end));
  }
  return {Median(std::move(write)), Median(std::move(read))};
}

}  // namespace

void SpanSink::Add(const char* name, Clock::time_point start,
                   Clock::time_point end) {
  spans->push_back(Span{name, "replay", tid, Micros(start - origin),
                        Micros(end - start), 0});
}

std::vector<Metric> ReplayLayers(dbs3::Database& db, const Workload& workload,
                                 SpanSink& sink) {
  const LayerInputs in = workload.Layers(db);
  const std::vector<const Tuple*> tuples = SomeTuples(*in.scan, 64 * 1024);
  std::vector<Metric> out;
  out.push_back({"esql.parse_us", ParseUs(in, sink), "us"});
  out.push_back({"sched.schedule_us", ScheduleUs(db, workload, sink), "us"});
  out.push_back({"server.admission_cycle_ns", AdmissionCycleNs(sink), "ns"});
  out.push_back({"server.pool_dispatch_us", PoolDispatchUs(sink), "us"});
  out.push_back({"engine.queue_ns.c1",
                 QueueNs(tuples, 1, sink, "engine.ActivationQueue.c1"), "ns"});
  out.push_back({"engine.queue_ns.c64",
                 QueueNs(tuples, 64, sink, "engine.ActivationQueue.c64"),
                 "ns"});
  out.push_back({"engine.chunk_pool_ns", ChunkPoolNs(sink), "ns"});
  out.push_back({"kernel.filter_mtuples_s", FilterMtuplesPerSecond(in, sink),
                 "Mtuples/s"});
  out.push_back(
      {"kernel.probe_mkeys_s", ProbeMkeysPerSecond(in, sink), "Mkeys/s"});
  out.push_back({"storage.index_build_mtuples_s",
                 IndexBuildMtuplesPerSecond(in, sink), "Mtuples/s"});
  out.push_back({"storage.quota_charge_ns", QuotaChargeNs(sink), "ns"});
  const auto [write_mb_s, read_mb_s] = SpillMbPerSecond(tuples, sink);
  out.push_back({"storage.spill_write_mb_s", write_mb_s, "MB/s"});
  out.push_back({"storage.spill_read_mb_s", read_mb_s, "MB/s"});
  return out;
}

}  // namespace perfbench

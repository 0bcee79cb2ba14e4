// Micro-benchmarks of the engine mechanisms (google-benchmark): activation
// queue throughput with and without batching (the internal activation
// cache), strategy selection, join algorithms, and an end-to-end query.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/activation_queue.h"
#include "engine/strategy.h"
#include "storage/skew.h"
#include "storage/temp_index.h"

namespace dbs3 {
namespace {

void BM_QueuePushPop(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  ActivationQueue queue;
  std::vector<Activation> out;
  out.reserve(batch);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      queue.Push(Activation::Data(Tuple({Value(int64_t{1})})));
    }
    out.clear();
    benchmark::DoNotOptimize(queue.PopBatch(batch, &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_QueuePushPop)->Arg(1)->Arg(8)->Arg(64);

void BM_QueueVisitOrder(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> estimates(n);
  for (size_t i = 0; i < n; ++i) estimates[i] = static_cast<double>(i * 7 % 101);
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueueVisitOrder(Strategy::kLpt, estimates, n));
  }
}
BENCHMARK(BM_QueueVisitOrder)->Arg(20)->Arg(200)->Arg(1500);

void BM_TempIndexBuild(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Fragment fragment;
  for (size_t k = 0; k < rows; ++k) {
    fragment.tuples.push_back(
        Tuple({Value(static_cast<int64_t>(k % (rows / 4 + 1))),
               Value(static_cast<int64_t>(k))}));
  }
  for (auto _ : state) {
    TempIndex index(fragment, 0);
    benchmark::DoNotOptimize(index.distinct_keys());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_TempIndexBuild)->Arg(1'000)->Arg(10'000);

void BM_TempIndexProbe(benchmark::State& state) {
  Fragment fragment;
  for (int64_t k = 0; k < 10'000; ++k) {
    fragment.tuples.push_back(Tuple({Value(k % 997), Value(k)}));
  }
  TempIndex index(fragment, 0);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Lookup(Value(key)));
    key = (key + 1) % 997;
  }
}
BENCHMARK(BM_TempIndexProbe);

void RunJoinOnce(Database& db, JoinAlgorithm algorithm, size_t threads) {
  QueryOptions options;
  options.schedule.total_threads = threads;
  options.schedule.processors = threads;
  options.algorithm = algorithm;
  auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
  if (!r.ok()) std::abort();
  benchmark::DoNotOptimize(r.value().result->cardinality());
}

void BM_IdealJoinEndToEnd(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database(4);
    SkewSpec spec;
    spec.a_cardinality = 20'000;
    spec.b_cardinality = 2'000;
    spec.degree = 32;
    spec.theta = 0.5;
    if (!d->CreateSkewedPair(spec, "A", "B").ok()) std::abort();
    return d;
  }();
  const auto algorithm = static_cast<JoinAlgorithm>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    RunJoinOnce(*db, algorithm, threads);
  }
  state.SetLabel(JoinAlgorithmName(algorithm));
}
BENCHMARK(BM_IdealJoinEndToEnd)
    ->Args({static_cast<int>(JoinAlgorithm::kNestedLoop), 2})
    ->Args({static_cast<int>(JoinAlgorithm::kHash), 2})
    ->Args({static_cast<int>(JoinAlgorithm::kHash), 4})
    ->Unit(benchmark::kMillisecond);

// The AssocJoin on both sides of the probe-side key filter's rule (probe rows
// >= inner rows). Args: probe rows, inner rows, and the percentage of probe
// rows with a partner; 20K is W2's size in perfbench's join_mix. `shipped`
// counts the rows the probe scan sent through the repartition.
void BM_AssocJoinEndToEnd(benchmark::State& state) {
  const int64_t probe_rows = state.range(0);
  const int64_t inner_rows = state.range(1);
  const int64_t match_pct = state.range(2);
  Database db(4);
  auto make = [](const std::string& name, size_t partition_column) {
    return std::make_unique<Relation>(
        name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
        partition_column, Partitioner(PartitionKind::kHash, 16));
  };
  auto probe = make("P", 1);
  auto inner = make("I", 0);
  for (int64_t k = 0; k < inner_rows; ++k) {
    if (!inner->Insert(Tuple({Value(k), Value(k)})).ok()) std::abort();
  }
  // Keys spread over inner_rows * 100 / match_pct values: match_pct% land
  // inside the inner's key range.
  const int64_t span = inner_rows * 100 / match_pct;
  for (int64_t i = 0; i < probe_rows; ++i) {
    const int64_t key = (i * 7'919) % span;
    if (!probe->Insert(Tuple({Value(key), Value(i)})).ok()) std::abort();
  }
  if (!db.AddRelation(std::move(probe)).ok()) std::abort();
  if (!db.AddRelation(std::move(inner)).ok()) std::abort();
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  options.schedule.chunk_size = 64;
  uint64_t shipped = 0;
  for (auto _ : state) {
    auto r = RunAssocJoin(db, "P", "k", "I", "k", options);
    if (!r.ok()) std::abort();
    shipped = r.value().execution.op_stats[0].emitted;
    benchmark::DoNotOptimize(r.value().result->cardinality());
  }
  state.SetLabel(probe_rows >= inner_rows ? "admitted" : "declined");
  state.counters["shipped"] = static_cast<double>(shipped);
}
BENCHMARK(BM_AssocJoinEndToEnd)
    ->Args({200'000, 20'000, 10})
    ->Args({200'000, 20'000, 100})
    ->Args({20'000, 200'000, 100})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Interference ablation on real threads: the same pipelined drain with and
// without the main/secondary queue split, reporting the fraction of queue
// mutex acquisitions that hit a held lock.
void BM_QueueInterference(benchmark::State& state) {
  const bool main_queues = state.range(0) != 0;
  uint64_t contended = 0, total = 0;
  uint64_t main_acq = 0, secondary_acq = 0;
  double busy = 0.0, span = 0.0;
  for (auto _ : state) {
    Database db(2);
    SkewSpec spec;
    spec.a_cardinality = 4'000;
    spec.b_cardinality = 2'000;
    spec.degree = 16;
    if (!db.CreateSkewedPair(spec, "A", "B").ok()) std::abort();
    Relation* a = db.relation("A").value();
    Relation result("res", a->schema(), 0,
                    Partitioner(PartitionKind::kModulo, 16));
    Plan plan;
    const size_t scan = plan.AddNode(
        "scan", ActivationMode::kTriggered, 16,
        std::make_unique<FilterLogic>(a, MatchAll()));
    const size_t store =
        plan.AddNode("store", ActivationMode::kPipelined, 16,
                     std::make_unique<StoreLogic>(&result));
    if (!plan.ConnectSameInstance(scan, store).ok()) std::abort();
    for (size_t i = 0; i < plan.num_nodes(); ++i) {
      plan.params(i).threads = 4;
      plan.params(i).use_main_queues = main_queues;
      plan.params(i).cache_size = 1;
    }
    Executor executor;
    auto run = executor.Run(plan);
    if (!run.ok()) std::abort();
    for (const OperationStats& op : run.value().op_stats) {
      contended += op.queue_contended;
      total += op.queue_acquisitions;
      main_acq += op.main_queue_acquisitions;
      secondary_acq += op.secondary_queue_acquisitions;
      busy += op.busy_seconds;
      span += op.wall_span_seconds;
    }
  }
  state.SetLabel(main_queues ? "main+secondary" : "all-shared");
  state.counters["contention_pct"] =
      total > 0 ? 100.0 * static_cast<double>(contended) /
                      static_cast<double>(total)
                : 0.0;
  // Share of batch acquisitions that came from a consumer's own main queues
  // (load-balancing steals are the remainder), and how much of the workers'
  // wall span was actual processing.
  const uint64_t acq = main_acq + secondary_acq;
  state.counters["main_queue_pct"] =
      acq > 0 ? 100.0 * static_cast<double>(main_acq) /
                    static_cast<double>(acq)
              : 0.0;
  state.counters["busy_over_span_pct"] = span > 0.0 ? 100.0 * busy / span
                                                    : 0.0;
}
BENCHMARK(BM_QueueInterference)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbs3

BENCHMARK_MAIN();

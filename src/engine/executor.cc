#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "common/logging.h"
#include "engine/verify.h"
#include "storage/spill.h"

namespace dbs3 {
namespace {

/// Queued tuple units one worker is considered enough for when the
/// rebalancer sizes parks (its min grant quantum): an operation's "needed"
/// worker count is ceil(pending / kGrantQuantum), and only workers beyond
/// that are parkable.
constexpr size_t kGrantQuantum = 256;

/// The executor's view of its own plan as a malleable job: park requests
/// routed to the operation with the largest worker surplus, grants
/// dispatched into the hottest (most queued work) operation. Called
/// concurrently with the execution by the server's rebalance tick; every
/// Operation method used here is thread-safe.
class PlanMalleable final : public MalleableExecution {
 public:
  explicit PlanMalleable(std::vector<std::unique_ptr<Operation>>* ops)
      : ops_(ops) {}

  size_t RequestPark(size_t n) override {
    // Largest surplus first, one pass: each operation already clamps its
    // own outstanding requests, so a single sweep cannot over-request.
    std::vector<std::pair<size_t, Operation*>> by_surplus;
    for (const auto& op : *ops_) {
      const size_t surplus = SurplusOf(*op);
      if (surplus > 0) by_surplus.emplace_back(surplus, op.get());
    }
    std::sort(by_surplus.begin(), by_surplus.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    size_t requested = 0;
    for (const auto& [surplus, op] : by_surplus) {
      if (requested >= n) break;
      requested += op->RequestPark(std::min(n - requested, surplus));
    }
    return requested;
  }

  bool TryGrantWorker() override {
    std::vector<Operation*> targets;
    for (const auto& op : *ops_) {
      if (!op->drained()) targets.push_back(op.get());
    }
    std::sort(targets.begin(), targets.end(), [](Operation* a, Operation* b) {
      return a->pending() > b->pending();
    });
    for (Operation* op : targets) {
      if (op->TryGrantWorker()) return true;
    }
    return false;
  }

 private:
  /// Workers the operation could give up right now: everything beyond one
  /// worker per kGrantQuantum queued units (always keeping one). A drained
  /// operation has no surplus — its workers are exiting on their own and
  /// their slots come back through the exit path anyway.
  size_t SurplusOf(const Operation& op) const {
    if (op.drained()) return 0;
    const size_t active = op.active_workers();
    if (active <= 1) return 0;
    const uint64_t pending =
        static_cast<uint64_t>(std::max<int64_t>(0, op.pending()));
    size_t needed =
        static_cast<size_t>((pending + kGrantQuantum - 1) / kGrantQuantum);
    needed = std::clamp<size_t>(needed, 1, active);
    return active - needed;
  }

  std::vector<std::unique_ptr<Operation>>* ops_;
};

}  // namespace

Result<ExecutionResult> Executor::Run(Plan& plan) {
  return Run(plan, ExecOptions{});
}

Result<ExecutionResult> Executor::Run(Plan& plan,
                                      const ExecOptions& options) {
  DBS3_RETURN_IF_ERROR(plan.Validate());
  DBS3_ASSIGN_OR_RETURN(std::vector<size_t> order, plan.TopologicalOrder());

  const TraceOptions& trace = plan.trace_options();
  std::unique_ptr<ActivationTracer> tracer;
  if (trace.enabled) tracer = std::make_unique<ActivationTracer>();

  // Chunk pool shared by every operation: emitters draw their outgoing
  // buffers here and workers return drained ones, so a pipeline in steady
  // state cycles a bounded working set of chunks instead of allocating per
  // activation. The caller may supply a longer-lived pool (ExecOptions),
  // which keeps the free list warm across executions; otherwise a
  // per-execution pool is used. Declared before `ops` so the fallback
  // outlives the operations that hold a pointer to it.
  ChunkPool local_pool;
  ChunkPool* chunk_pool =
      options.chunk_pool != nullptr ? options.chunk_pool : &local_pool;
  const ChunkPool::Stats pool_before = chunk_pool->stats();

  // The run's spill record, declared before the operations so the operator
  // logics may count into it from any execution callback.
  SpillCounters spill;

  // Resources shared by every operator logic this run: the query's memory
  // quota (nullptr = unaccounted), the spill record above, and the cancel
  // token. Bound before Prepare so per-instance state can be sized with the
  // budget in view.
  ExecResources resources;
  resources.quota = options.quota;
  resources.spill = &spill;
  resources.cancel = options.cancel;

  // Instantiate operations consumers-first so producers can hold their
  // consumer's pointer in the output edge.
  std::vector<std::unique_ptr<Operation>> ops(plan.num_nodes());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const size_t i = *it;
    PlanNode& node = plan.node(i);
    node.logic->BindExecution(resources);
    DBS3_RETURN_IF_ERROR(node.logic->Prepare(node.instances));

    OperationConfig config;
    config.name = node.name;
    config.num_instances = node.instances;
    config.num_threads = node.params.threads;
    config.strategy = node.params.strategy;
    config.cache_size = node.params.cache_size;
    config.chunk_size = node.params.chunk_size;
    config.queue_capacity = node.params.queue_capacity;
    config.cost_estimates = node.params.cost_estimates;
    config.use_main_queues = node.params.use_main_queues;
    config.seed = 0x5bd1e995u + i;
    config.tracer = tracer.get();
    config.cancel = options.cancel;
    config.chunk_pool = chunk_pool;

    DataOutput output;
    if (node.output >= 0) {
      output.consumer = ops[static_cast<size_t>(node.output)].get();
      output.route = node.route;
      output.column = node.route_column;
      if (node.route_partitioner.has_value()) {
        output.partitioner = *node.route_partitioner;
      }
    }
    ops[i] = std::make_unique<Operation>(std::move(config), node.logic.get(),
                                         output);
  }

  // Wire producer counts: one per incoming data edge, plus the executor
  // itself as the trigger source of each triggered operation.
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& node = plan.node(i);
    for (size_t p : node.producers) {
      (void)p;
      ops[i]->AddProducer();
    }
    if (node.mode == ActivationMode::kTriggered) ops[i]->AddProducer();
  }

  // A traced run samples each operation's queued tuple units into a series
  // on a registry of its own; an untraced one builds neither.
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<MetricsSampler> sampler;
  if (trace.enabled) {
    registry = std::make_unique<MetricsRegistry>();
    for (size_t i = 0; i < plan.num_nodes(); ++i) {
      Operation* op = ops[i].get();
      registry->RegisterProbe(
          "op." + plan.node(i).name + ".queued_units",
          [op] { return std::max<int64_t>(0, op->pending()); });
    }
    sampler = std::make_unique<MetricsSampler>(
        registry.get(), std::chrono::microseconds(std::max<uint32_t>(
                            1, trace.sample_interval_us)));
    sampler->Start();
  }

  // Steady-state malleability: a pool-backed execution registers on the
  // caller's board before any worker starts, so every worker exit — park
  // or natural drain — credits its pool slot back through the board. The
  // exit callbacks must be installed before StartOn (a worker could run
  // and exit during the start loop).
  const bool adaptive =
      options.board != nullptr && options.workers != nullptr;
  PlanMalleable malleable(&ops);
  uint64_t board_id = 0;
  if (adaptive) {
    size_t reserved = 0;
    for (size_t i = 0; i < plan.num_nodes(); ++i) {
      reserved += plan.node(i).params.threads;
    }
    board_id = options.board->Register(
        &malleable, reserved, std::max(options.desired_threads, reserved));
    ExecutionBoard* board = options.board;
    const uint64_t id = board_id;
    for (auto& op : ops) {
      op->set_exit_callback(
          [board, id](bool parked) { board->OnWorkerExit(id, parked); });
    }
  }

  const auto t0 = std::chrono::steady_clock::now();

  // Producers start before their consumers (topological order), so on a
  // FIFO thread source every dispatched worker either runs or is preceded
  // only by workers it does not wait on.
  for (size_t i : order) {
    if (options.workers != nullptr) {
      ops[i]->StartOn(options.workers);
    } else {
      ops[i]->Start();
    }
  }

  // Fire the control activations (Figure 2: one trigger per instance).
  for (size_t i : order) {
    const PlanNode& node = plan.node(i);
    if (node.mode != ActivationMode::kTriggered) continue;
    for (size_t inst = 0; inst < node.instances; ++inst) {
      ops[i]->PushTrigger(inst);
    }
    ops[i]->ProducerDone();
  }

  // Drain in topological order: once a producer's pool has exited, its
  // consumer sees ProducerDone and can itself drain and exit. Blocking
  // operators flush their per-instance results (OnFinish) between their own
  // drain and the downstream close.
  for (size_t i : order) {
    ops[i]->Join();
    // A cancelled execution withholds OnFinish: the blocking operators'
    // buffered results are partial, and emitting them would only feed
    // downstream cancelled buckets. ProducerDone still runs so every
    // consumer sees its producers close and the drain terminates.
    if (!options.cancel.ShouldStop()) ops[i]->Finish();
    const PlanNode& node = plan.node(i);
    if (node.output >= 0) {
      ops[static_cast<size_t>(node.output)]->ProducerDone();
    }
  }

  const auto t1 = std::chrono::steady_clock::now();

  // Every worker has exited (and credited its slot through the board's
  // exit path); unregister before anything can error out below so the
  // caller's slot accounting settles on every return path. The board
  // serializes this against any in-flight rebalance tick.
  RebalanceTotals rebalance;
  if (adaptive) rebalance = options.board->Unregister(board_id);
  if (options.rebalance_out != nullptr) *options.rebalance_out = rebalance;

  // The sampler's probes point into the operations: stop it (and drop the
  // probes) before the operations can go away.
  if (sampler != nullptr) {
    sampler->Stop();
    registry->ClearProbes();
  }

  // Operator-level failures (spill IO, quota exhaustion without a spill
  // path) have no return channel in the activation callbacks; surface the
  // first one as the run's error. A cancelled run skips the check — its
  // partial state is expected to be inconsistent and `completion` already
  // reports why.
  if (!options.cancel.ShouldStop()) {
    for (size_t i : order) {
      DBS3_RETURN_IF_ERROR(plan.node(i).logic->error());
    }
  }

  ExecutionResult result;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.op_stats.reserve(plan.num_nodes());
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    OperationStats stats = ops[i]->stats();
    result.units_dropped += stats.dropped;
    result.units_cancelled += stats.cancelled_units;
    result.op_stats.push_back(std::move(stats));
  }
  {
    // This execution's recycling activity: the delta over the pool's
    // counters (exact for a private pool, approximate under sharing).
    const ChunkPool::Stats after = chunk_pool->stats();
    result.chunk_pool.allocated = after.allocated - pool_before.allocated;
    result.chunk_pool.reused = after.reused - pool_before.reused;
    result.chunk_pool.released = after.released - pool_before.released;
    result.chunk_pool.discarded = after.discarded - pool_before.discarded;
    result.chunk_pool.free_buffers = after.free_buffers;
  }
  result.completion = options.cancel.ToStatus();
  if (registry != nullptr) result.metrics = registry->Snapshot();
  // Spill activity, cancelled runs included: every spill file and spilling
  // operator counted into `spill` before its worker exited.
  const std::pair<const char*, const std::atomic<uint64_t>*> spilled[] = {
      {"spill.bytes_written", &spill.bytes_written},
      {"spill.bytes_read", &spill.bytes_read},
      {"spill.partitions", &spill.partitions},
      {"spill.recursions", &spill.recursions},
      {"spill.groupby_flushes", &spill.groupby_flushes},
  };
  for (const auto& [name, value] : spilled) {
    const uint64_t v = value->load(std::memory_order_relaxed);
    if (v != 0) result.metrics.counters[name] = v;
  }

#if DBS3_VERIFY_ENABLED
  // Tuple-conservation ledger (debug builds): every unit pushed into an
  // operation — producer emissions plus executor triggers — must come back
  // out as processed or accounted-dropped, and every closed-queue
  // rejection must be mirrored in the drop counter. All pools are joined,
  // so the counters are exact.
  {
    std::vector<verify::LedgerEntry> ledger(plan.num_nodes());
    for (size_t i = 0; i < plan.num_nodes(); ++i) {
      const PlanNode& node = plan.node(i);
      const OperationStats& stats = result.op_stats[i];
      verify::LedgerEntry& entry = ledger[i];
      entry.name = stats.name;
      entry.consumer = node.output;
      entry.emitted = stats.emitted;
      entry.processed = std::accumulate(stats.per_instance_processed.begin(),
                                        stats.per_instance_processed.end(),
                                        uint64_t{0});
      entry.dropped = stats.dropped;
      entry.cancelled = stats.cancelled_units;
      entry.rejected = stats.queue_rejected_units;
      if (node.mode == ActivationMode::kTriggered) {
        entry.triggers = node.instances;
      }
    }
    for (const std::string& violation :
         verify::CheckTupleConservation(ledger)) {
      verify::Fail(violation);
    }
  }
#endif

  if (tracer != nullptr) {
    result.trace_json = tracer->ToChromeJson();
    if (!trace.path.empty()) {
      const Status written = tracer->WriteChromeJson(trace.path);
      if (!written.ok()) {
        DBS3_LOG(kWarning) << "trace dump failed: " << written.ToString();
      }
    }
  }
  return result;
}

}  // namespace dbs3

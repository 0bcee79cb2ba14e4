#include "server/query_runtime.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "server/shared/shared_batch.h"
#include "server/shared/shared_query.h"

namespace dbs3 {

namespace {

size_t DefaultPoolThreads(size_t configured) {
  if (configured > 0) return configured;
  return std::max<unsigned>(1, std::thread::hardware_concurrency());
}

int64_t Micros(double seconds) {
  return static_cast<int64_t>(seconds * 1e6);
}

/// How long `q` waited in the admission queue before `popped_at`.
double AdmissionWait(const PendingQuery& q,
                     std::chrono::steady_clock::time_point popped_at) {
  return std::chrono::duration<double>(popped_at - q.enqueued_at).count();
}

/// Chunk buffers the runtime's shared ChunkPool retains between
/// executions. The pool is what makes the engine's data path
/// allocation-lean across queries (the free list stays warm from one
/// execution to the next); sized to absorb a whole pipeline's in-flight
/// chunk population at the paper-faithful chunk_size of 1 (one buffer per
/// tuple in flight).
constexpr size_t kChunkPoolBuffers = 64 * 1024;

}  // namespace

Result<PhaseOutcome> QueryEnv::Run(Plan& plan,
                                   const ScheduleOptions& schedule) {
  if (cancel_.ShouldStop()) return cancel_.ToStatus();

  ExecOptions exec;
  exec.cancel = cancel_;
  exec.quota = &quota_;
  RebalanceTotals rebalance;
  Result<PhaseOutcome> phase =
      runtime_->RunPhase(plan, schedule, {&cancel_, 1}, &exec, &rebalance);
  stats_.threads_granted += rebalance.granted;
  stats_.threads_released += rebalance.parked;
  DBS3_ASSIGN_OR_RETURN(PhaseOutcome out, std::move(phase));

  // Fold the phase into the query's running stats — cancelled phases too,
  // so a cancelled query reports the partial work it did.
  ++stats_.phases;
  stats_.execution_seconds += out.execution.seconds;
  stats_.units_cancelled += out.execution.units_cancelled;
  for (const OperationStats& op : out.execution.op_stats) {
    stats_.busy_seconds += op.busy_seconds;
    for (uint64_t c : op.per_instance_processed) stats_.units_processed += c;
  }
  if (exec.workers != nullptr) stats_.used_shared_pool = true;
  stats_.quota_high_water_units =
      std::max(stats_.quota_high_water_units, quota_.high_water());
  // Roll the phase's spill activity up into the runtime-wide registry, so
  // operators observe spill.bytes_written etc. across all queries.
  if (runtime_->options_.metrics != nullptr) {
    for (const auto& [name, value] : out.execution.metrics.counters) {
      if (name.rfind("spill.", 0) == 0 && value > 0) {
        runtime_->options_.metrics->counter(name)->Add(value);
      }
    }
  }
  if (publish_) publish_(stats_);

  if (!out.execution.completion.ok()) return out.execution.completion;
  return out;
}

QueryRuntime::QueryRuntime(QueryRuntimeOptions options)
    : options_(options),
      pool_(DefaultPoolThreads(options.pool_threads)),
      chunk_pool_(kChunkPoolBuffers),
      admission_(AdmissionConfig{
          std::max<size_t>(1, options.max_queued_queries),
          options.memory_budget_units,
          // Joint CPU+memory admission: the controller may prefer an
          // equal-priority waiter whose declared thread share is
          // deliverable right now (see AdmissionConfig::pool_threads).
          pool_.num_threads(),
          [this] {
            MutexLock lock(&slots_mu_);
            return free_slots_;
          }}),
      board_(PoolLoadBoard::Hooks{
          [this] { return TryReserveOneWorker(); },
          [this] { ReleaseWorkers(1); }}),
      free_slots_(pool_.num_threads()) {
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("runtime.pool_idle_threads")
        ->Set(static_cast<int64_t>(pool_.idle_threads()));
  }
  if (options_.rebalance_interval_us > 0) {
    rebalancer_ = std::thread([this] { RebalanceLoop(); });
  }
  const size_t drivers = std::max<size_t>(1, options_.max_concurrent_queries);
  drivers_.reserve(drivers);
  for (size_t i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { DriverLoop(); });
  }
}

QueryRuntime::~QueryRuntime() {
  shutdown_.store(true);
  admission_.Shutdown();
  // Stop the rebalancer before draining the drivers: a tick must not plan
  // against executions that are tearing down, and stopping it first keeps
  // the board quiescent while the last queries finish.
  if (rebalancer_.joinable()) {
    {
      MutexLock lock(&rebalance_mu_);
      rebalance_stop_ = true;
    }
    rebalance_cv_.SignalAll();
    rebalancer_.join();
  }
  for (auto& d : drivers_) {
    if (d.joinable()) d.join();
  }
  // pool_ destroys after the drivers: every execution has completed, so
  // its queue is empty and the threads exit immediately.
}

QueryHandle QueryRuntime::Submit(QuerySpec spec) {
  auto state = std::make_shared<QueryHandle::State>();
  state->id = next_id_.fetch_add(1);
  state->cancel = spec.cancel.has_value() ? *spec.cancel : CancelToken();
  if (spec.deadline.has_value()) state->cancel.set_deadline(*spec.deadline);
  QueryHandle handle(state);

  // Cancellation wake-up path: a fired token must promptly wake (a) drivers
  // blocked in PopNext holding this query back on the memory budget and
  // (b) ReserveWorkers waits. Installed before enqueue so no cancel can
  // slip between; Complete clears it under the same mutex, and since
  // Complete runs before the runtime's teardown finishes draining, the
  // captured `this` is live whenever the hook can run.
  {
    MutexLock lock(&state->mu);
    state->cancel_notify = [this] {
      admission_.NotifyCancelled();
      { MutexLock slots(&slots_mu_); }
      slots_cv_.SignalAll();
    };
  }

  if (options_.metrics != nullptr) {
    options_.metrics->counter("runtime.queries_submitted")->Add(1);
  }

  PendingQuery pending;
  pending.id = state->id;
  pending.priority = spec.priority;
  pending.memory_units = spec.memory_units;
  pending.threads_hint = spec.threads_hint;
  pending.cancel = state->cancel;
  pending.enqueued_at = std::chrono::steady_clock::now();
  pending.share_class =
      spec.shared != nullptr ? spec.shared->share_class : 0;
  pending.shared = spec.shared;
  pending.finish = [this, state](Result<QueryResult> outcome,
                                 const QueryRunStats& stats) {
    Complete(state, std::move(outcome), stats);
  };
  pending.run = [this, state, memory_units = spec.memory_units,
                 body = std::move(spec.body)](double wait_seconds) mutable {
    live_.fetch_add(1);
    QueryEnv env(this, state->cancel, memory_units,
                 [state](const QueryRunStats& s) {
                   MutexLock lock(&state->mu);
                   state->stats = s;
                 });
    env.stats_.admission_wait_seconds = wait_seconds;
    env.publish_(env.stats_);
    Result<QueryResult> outcome = body(env);
    live_.fetch_sub(1);
    Complete(state, std::move(outcome), env.stats_);
  };

  const Status queued = admission_.TryEnqueue(std::move(pending));
  if (!queued.ok()) {
    // Shed (or submitted into a shutting-down runtime): the handle
    // completes immediately with the admission error.
    if (options_.metrics != nullptr &&
        queued.code() == StatusCode::kResourceExhausted) {
      options_.metrics->counter("runtime.queries_shed")->Add(1);
    }
    Complete(state, queued, QueryRunStats{});
  }
  return handle;
}

void QueryRuntime::DriverLoop() {
  const BatchWindow window{
      std::chrono::microseconds(options_.shared_batch_window_us),
      std::max<size_t>(1, options_.shared_batch_max_queries)};
  PendingQuery lead;
  std::vector<PendingQuery> popped;  // The lead, then its followers.
  std::vector<PendingQuery*> live;
  double window_wait_seconds = 0.0;
  while (admission_.PopNextBatch(&lead, &popped, window,
                                 &window_wait_seconds)) {
    popped.insert(popped.begin(), std::move(lead));
    // Shed every popped query that died while queued — a deadline expiring
    // inside the batching window sheds the query here instead of riding
    // the batch.
    const auto popped_at = std::chrono::steady_clock::now();
    uint64_t units = 0;
    live.clear();
    for (PendingQuery& q : popped) {
      units += q.memory_units;
      QueryRunStats stats;
      stats.admission_wait_seconds = AdmissionWait(q, popped_at);
      if (shutdown_.load()) {
        q.finish(Status::Cancelled("query runtime shutting down"), stats);
      } else if (q.cancel.ShouldStop()) {
        q.finish(q.cancel.ToStatus(), stats);
      } else {
        live.push_back(&q);
      }
    }
    if (!live.empty() && popped[0].shared != nullptr) {
      RunSharedBatch(live, popped_at, window_wait_seconds);
    } else if (!live.empty()) {
      popped[0].run(AdmissionWait(popped[0], popped_at));
    }
    admission_.ReleaseMemory(units);
    popped.clear();
  }
}

void QueryRuntime::RunSharedBatch(
    const std::vector<PendingQuery*>& members,
    std::chrono::steady_clock::time_point popped_at,
    double window_wait_seconds) {
  // One batch presents as one running query to the scheduler's
  // multiprogramming feedback — that is the point of sharing the pass.
  live_.fetch_add(1);

  std::vector<const SharedScanSpec*> specs;
  std::vector<CancelToken> cancels;
  specs.reserve(members.size());
  cancels.reserve(members.size());
  for (PendingQuery* m : members) {
    specs.push_back(m->shared.get());
    cancels.push_back(m->cancel);
  }

  // The phase runs on behalf of every member: the slot wait lasts while
  // any of them is live, so a cancelled lead hands the wait to the next
  // member instead of pushing the batch onto private threads beside a
  // saturated pool. The engine-level token stays unfired (the default) and
  // the quota empty — member cancellation is the scan's per-tile check,
  // not an execution abort.
  ExecOptions exec;
  MemoryQuota quota(0);
  exec.quota = &quota;
  RebalanceTotals rebalance;
  Result<SharedBatchPlan> built = BuildSharedBatchPlan(specs, cancels);
  Result<PhaseOutcome> phase =
      built.ok() ? RunPhase(built.value().plan, members[0]->shared->schedule,
                            cancels, &exec, &rebalance)
                 : Result<PhaseOutcome>(built.status());

  // A batch of one shares nothing: it is no shared batch in the stats or
  // the metrics, though it still reports how long it was held open.
  const size_t folded = members.size() > 1 ? members.size() : 0;
  double total_busy = 0.0;
  if (phase.ok()) {
    for (const OperationStats& op : phase.value().execution.op_stats) {
      total_busy += op.busy_seconds;
    }
    if (options_.metrics != nullptr && folded > 0) {
      options_.metrics->counter("runtime.shared_batches")->Add(1);
      options_.metrics->summary("shared.queries_per_batch")
          ->Record(static_cast<int64_t>(folded));
      options_.metrics->summary("shared.batch_window_wait_us")
          ->Record(Micros(window_wait_seconds));
    }
  }

  for (size_t i = 0; i < members.size(); ++i) {
    PendingQuery* m = members[i];
    QueryRunStats stats;
    stats.admission_wait_seconds = AdmissionWait(*m, popped_at);
    stats.shared_batch_queries = folded;
    stats.batch_window_wait_seconds = window_wait_seconds;
    if (i == 0) {
      // The batch's grants and parks count once, on its lead.
      stats.threads_granted = rebalance.granted;
      stats.threads_released = rebalance.parked;
    }
    if (phase.ok()) {
      stats.execution_seconds = phase.value().execution.seconds;
      stats.phases = 1;
      stats.used_shared_pool = exec.workers != nullptr;
      // Rows are stored by the scan itself, so nothing is ever in flight
      // to drop: a member's work is what its sink holds.
      stats.units_processed = built.value().sinks[i]->cardinality();
      // The pass was shared; attribute an even share of the busy time.
      stats.busy_seconds = total_busy / static_cast<double>(members.size());
    }

    if (m->cancel.ShouldStop()) {
      m->finish(m->cancel.ToStatus(), stats);
    } else if (!phase.ok()) {
      m->finish(phase.status(), stats);
    } else if (!phase.value().execution.completion.ok()) {
      m->finish(phase.value().execution.completion, stats);
    } else {
      QueryResult result;
      result.result = std::move(built.value().sinks[i]);
      result.execution = phase.value().execution;
      result.schedule = phase.value().schedule;
      result.detail = built.value().detail;
      m->finish(std::move(result), stats);
    }
  }
  live_.fetch_sub(1);
}

Result<PhaseOutcome> QueryRuntime::RunPhase(
    Plan& plan, const ScheduleOptions& schedule,
    std::span<const CancelToken> waiters, ExecOptions* exec,
    RebalanceTotals* rebalance) {
  const auto total_threads = [](const ScheduleReport& report) {
    return std::accumulate(report.threads.begin(), report.threads.end(),
                           size_t{0});
  };

  // Scheduler feedback: the live multiprogramming level reduces this
  // phase's thread allocation [Rahm93], so N concurrent queries together
  // apply roughly single-user thread pressure to the machine.
  const ScheduleOptions adjusted =
      ApplyUtilization(schedule, MultiUserUtilization(live_queries()));

  const bool adaptive = options_.rebalance_interval_us > 0;
  // The grant ceiling for the rebalancer: what this phase would have been
  // scheduled at without the utilization clamp. Scheduling twice is safe —
  // ScheduleQuery overwrites the plan's params, and the clamped pass below
  // runs last so the execution starts at the clamped width.
  size_t desired_threads = 0;
  if (adaptive) {
    Result<ScheduleReport> unclamped = ScheduleQuery(plan, CostModel{},
                                                     schedule);
    if (unclamped.ok()) desired_threads = total_threads(unclamped.value());
  }

  PhaseOutcome out;
  DBS3_ASSIGN_OR_RETURN(out.schedule,
                        ScheduleQuery(plan, CostModel{}, adjusted));
  const size_t threads = total_threads(out.schedule);

  // Whole-plan reservation against the shared pool; a plan too wide for
  // the pool falls back to private threads (correct, just without the
  // spawn amortization).
  exec->chunk_pool = &chunk_pool_;
  exec->rebalance_out = rebalance;
  if (threads <= pool_.num_threads()) {
    if (!ReserveWorkers(threads, waiters)) return waiters.front().ToStatus();
    exec->workers = &pool_;
    // Pool-backed phases register on the load board when adaptivity is
    // on: the rebalance tick may park surplus workers mid-phase (their
    // slots are then credited back per exit through the board) or grant
    // extra workers up to the unclamped width.
    if (adaptive) {
      exec->board = &board_;
      exec->desired_threads = std::max(desired_threads, threads);
    }
  }

  Executor executor;
  Result<ExecutionResult> run = executor.Run(plan, *exec);
  // Slot settlement: a board-registered execution (rebalance->active)
  // already credited one slot per worker exit — reserved plus granted,
  // exactly what it consumed — so releasing the reservation again would
  // double-free capacity. Every other pooled execution, one that failed
  // before its workers started included, releases the whole reservation
  // here, before the error return below.
  if (exec->workers != nullptr && !rebalance->active) ReleaseWorkers(threads);
  DBS3_ASSIGN_OR_RETURN(out.execution, std::move(run));
  return out;
}

void QueryRuntime::Complete(const std::shared_ptr<QueryHandle::State>& state,
                            Result<QueryResult> outcome,
                            const QueryRunStats& stats) {
  if (options_.metrics != nullptr) {
    MetricsRegistry& m = *options_.metrics;
    if (outcome.ok()) {
      m.counter("runtime.queries_completed")->Add(1);
    } else if (outcome.status().code() == StatusCode::kCancelled) {
      m.counter("runtime.queries_cancelled")->Add(1);
    } else if (outcome.status().code() == StatusCode::kDeadlineExceeded) {
      m.counter("runtime.queries_deadline_exceeded")->Add(1);
    }
    // The work of every query, however it ran (facade, ESQL, a shared
    // batch member) and however it ended.
    m.counter("engine.tuple_units")->Add(stats.units_processed);
    m.counter("engine.units_cancelled")->Add(stats.units_cancelled);
    if (stats.threads_granted > 0) {
      m.counter("runtime.threads_granted")->Add(stats.threads_granted);
    }
    if (stats.threads_released > 0) {
      m.counter("runtime.threads_released")->Add(stats.threads_released);
    }
    m.summary("runtime.admission_wait_us")
        ->Record(Micros(stats.admission_wait_seconds));
    m.summary("runtime.execution_wall_us")
        ->Record(Micros(stats.execution_seconds));
    m.summary("runtime.busy_us")->Record(Micros(stats.busy_seconds));
    m.summary("runtime.quota_high_water_units")
        ->Record(static_cast<int64_t>(stats.quota_high_water_units));
  }
  {
    MutexLock lock(&state->mu);
    state->stats = stats;
    state->outcome.emplace(std::move(outcome));
    state->done = true;
    // Drop the wake-up hook: after completion nothing waits on this query,
    // and clearing under mu means no Cancel can invoke it against a
    // runtime that has moved on to teardown.
    state->cancel_notify = nullptr;
  }
  state->cv.SignalAll();
}

bool QueryRuntime::ReserveWorkers(size_t slots,
                                  std::span<const CancelToken> waiters) {
  if (slots == 0) return true;
  if (slots > pool_.num_threads()) return false;
  MutexLock lock(&slots_mu_);
  while (free_slots_ < slots) {
    if (std::all_of(waiters.begin(), waiters.end(),
                    [](const CancelToken& c) { return c.ShouldStop(); })) {
      return false;
    }
    // Announce the blocked reservation: the rebalancer reads this as
    // pressure (running queries should shed down to their fair share) and
    // TryReserveOneWorker yields to it (grants must not starve waiters).
    slot_waiters_.fetch_add(1, std::memory_order_release);
    // Bounded wait: handle-initiated cancels signal this cv (the
    // cancel_notify hook), but deadline expiry and direct external-token
    // cancels do not, so a short poll backstops them.
    slots_cv_.WaitFor(&slots_mu_, std::chrono::milliseconds(2));
    slot_waiters_.fetch_sub(1, std::memory_order_release);
  }
  free_slots_ -= slots;
  return true;
}

void QueryRuntime::ReleaseWorkers(size_t slots) {
  if (slots == 0) return;
  {
    MutexLock lock(&slots_mu_);
    free_slots_ += slots;
  }
  slots_cv_.SignalAll();
}

bool QueryRuntime::TryReserveOneWorker() {
  MutexLock lock(&slots_mu_);
  // Freed capacity serves blocked whole-plan reservations first; a grant
  // taken under a waiter would hand the waiter's slot to a query that
  // already runs.
  if (slot_waiters_.load(std::memory_order_acquire) > 0) return false;
  if (free_slots_ == 0) return false;
  --free_slots_;
  return true;
}

void QueryRuntime::RebalanceTick() {
  size_t free_now = 0;
  {
    MutexLock lock(&slots_mu_);
    free_now = free_slots_;
  }
  const size_t waiters = slot_waiters_.load(std::memory_order_acquire);
  const size_t queued = admission_.queued_now();
  const bool pressure = waiters > 0 || queued > 0;
  board_.Rebalance(pool_.num_threads(), free_now, pressure,
                   waiters + queued);
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("runtime.pool_idle_threads")
        ->Set(static_cast<int64_t>(pool_.idle_threads()));
  }
}

void QueryRuntime::RebalanceLoop() {
  const auto period = std::chrono::microseconds(
      std::max<uint64_t>(1, options_.rebalance_interval_us));
  while (true) {
    {
      MutexLock lock(&rebalance_mu_);
      if (rebalance_stop_) return;
      rebalance_cv_.WaitFor(&rebalance_mu_, period);
      if (rebalance_stop_) return;
    }
    RebalanceTick();
  }
}

}  // namespace dbs3

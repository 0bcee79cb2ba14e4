#ifndef DBS3_SERVER_POOL_LOAD_BOARD_H_
#define DBS3_SERVER_POOL_LOAD_BOARD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/rebalance.h"
#include "sched/reassign.h"

namespace dbs3 {

/// The server's registry of live pool-backed executions and the apply side
/// of the steady-state rebalancer. Each registered execution is a malleable
/// job: the periodic tick (QueryRuntime::RebalanceLoop) snapshots worker
/// counts, asks PlanReassign for park/grant moves, and applies them here —
/// parks via MalleableExecution::RequestPark, grants by taking one pool
/// slot through the hooks and dispatching a worker into the execution.
///
/// Slot accounting contract: a registered execution's reservation is
/// settled per worker exit (OnWorkerExit releases one slot each), not as a
/// whole at the end — that is what lets a parked worker's thread serve a
/// waiter while its execution is still running. RebalanceTotals::active
/// tells the query path which settlement applies.
class PoolLoadBoard final : public ExecutionBoard {
 public:
  /// How the board touches the pool's slot ledger; both must be callable
  /// from worker threads and from the rebalance tick. try_reserve_thread
  /// takes one slot (false = none free or waiters have priority);
  /// release_thread returns one.
  struct Hooks {
    std::function<bool()> try_reserve_thread;
    std::function<void()> release_thread;
  };

  explicit PoolLoadBoard(Hooks hooks) : hooks_(std::move(hooks)) {}

  PoolLoadBoard(const PoolLoadBoard&) = delete;
  PoolLoadBoard& operator=(const PoolLoadBoard&) = delete;

  // ExecutionBoard:
  uint64_t Register(MalleableExecution* exec, size_t reserved,
                    size_t desired) override EXCLUDES(mu_);
  RebalanceTotals Unregister(uint64_t id) override EXCLUDES(mu_);
  void OnWorkerExit(uint64_t id, bool parked) override EXCLUDES(mu_);

  /// One steady-state tick: snapshot the live executions, plan, apply.
  /// `pressure` = someone is waiting on pool capacity (admission queue or
  /// a blocked slot reservation); `extra_load` counts those waiters for
  /// the fair-share computation. Serialized against Register/Unregister
  /// by the board mutex — a granted worker can never land on an execution
  /// that already unregistered.
  void Rebalance(size_t pool_threads, size_t free_threads, bool pressure,
                 size_t extra_load) EXCLUDES(mu_);

 private:
  struct Entry {
    uint64_t id = 0;
    MalleableExecution* exec = nullptr;
    /// Pool slots reserved at admission.
    size_t reserved = 0;
    /// Unclamped schedule width (grant ceiling).
    size_t desired = 0;
    /// Extra workers granted in, worker exits seen, parks among them.
    size_t granted = 0;
    size_t exited = 0;
    size_t parked = 0;
  };

  Entry* FindLocked(uint64_t id) REQUIRES(mu_);

  Mutex mu_{"PoolLoadBoard::mu"};
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  Hooks hooks_;
};

}  // namespace dbs3

#endif  // DBS3_SERVER_POOL_LOAD_BOARD_H_

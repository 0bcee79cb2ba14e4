#ifndef DBS3_ENGINE_REBALANCE_H_
#define DBS3_ENGINE_REBALANCE_H_

#include <cstddef>
#include <cstdint>

namespace dbs3 {

/// A running execution as the rebalancer sees it: a malleable job whose
/// worker count can shrink (cooperative parks at activation boundaries)
/// or grow (extra workers dispatched into its hottest operation)
/// mid-query. Implemented by the executor over the plan's Operations;
/// every method is safe to call concurrently with the execution itself.
class MalleableExecution {
 public:
  virtual ~MalleableExecution() = default;

  /// Asks up to `n` surplus workers to park at their next activation
  /// boundary and return their threads to the pool. Returns how many were
  /// actually requested — every operation always keeps at least one
  /// worker, so the deliverable count can be smaller than `n`.
  virtual size_t RequestPark(size_t n) = 0;

  /// Dispatches one extra worker into the hottest (most queued work)
  /// operation. The caller must already hold a pool thread slot for it;
  /// false = no operation could accept (all drained or at capacity), and
  /// the caller returns the slot.
  virtual bool TryGrantWorker() = 0;
};

/// What the steady-state rebalancer did to one execution over its
/// lifetime. `active` distinguishes "registered on a board" from the
/// static paths (no board, or private-thread fallback), because the two
/// settle their pool-slot accounting differently: a board-registered
/// execution credits one slot back per worker exit, a static one releases
/// its whole reservation at the end.
struct RebalanceTotals {
  bool active = false;
  /// Extra workers granted into the execution mid-query.
  size_t granted = 0;
  /// Workers parked (released back to the pool before their natural
  /// drain).
  size_t parked = 0;
};

/// Registry of running executions eligible for mid-query thread
/// reallocation. Engine-side interface only; the implementation
/// (PoolLoadBoard) lives in the server layer next to the WorkerPool it
/// rebalances. The registered MalleableExecution must stay valid until
/// Unregister returns — the board serializes in-flight grants/parks
/// against Unregister internally.
class ExecutionBoard {
 public:
  virtual ~ExecutionBoard() = default;

  /// Announces a starting execution holding `reserved` pool slots and
  /// wanting `desired` (its unclamped schedule). Returns the registration
  /// id for the other calls.
  virtual uint64_t Register(MalleableExecution* exec, size_t reserved,
                            size_t desired) = 0;

  /// Removes the execution (all its workers have exited) and returns what
  /// the rebalancer did to it.
  virtual RebalanceTotals Unregister(uint64_t id) = 0;

  /// One worker loop of execution `id` exited and its pool thread is free
  /// again — a park (`parked` = true) or a natural drain. The board
  /// credits the slot back to the pool.
  virtual void OnWorkerExit(uint64_t id, bool parked) = 0;
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_REBALANCE_H_

#include "server/pool_load_board.h"

#include <algorithm>
#include <utility>

namespace dbs3 {

uint64_t PoolLoadBoard::Register(MalleableExecution* exec, size_t reserved,
                                 size_t desired) {
  MutexLock lock(&mu_);
  Entry entry;
  entry.id = next_id_++;
  entry.exec = exec;
  entry.reserved = reserved;
  entry.desired = std::max(desired, reserved);
  entries_.push_back(entry);
  return entry.id;
}

RebalanceTotals PoolLoadBoard::Unregister(uint64_t id) {
  MutexLock lock(&mu_);
  RebalanceTotals totals;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id != id) continue;
    totals.active = true;
    totals.granted = it->granted;
    totals.parked = it->parked;
    entries_.erase(it);
    return totals;
  }
  return totals;
}

void PoolLoadBoard::OnWorkerExit(uint64_t id, bool parked) {
  {
    MutexLock lock(&mu_);
    Entry* entry = FindLocked(id);
    if (entry == nullptr) return;  // Never registered here; nothing owed.
    ++entry->exited;
    if (parked) ++entry->parked;
  }
  // Credit the freed slot outside the board mutex: the release path
  // signals reservation waiters and must not nest under mu_ longer than
  // necessary. Every exit frees exactly one slot, park or natural drain —
  // that is the per-exit settlement the registration contract promises.
  hooks_.release_thread();
}

void PoolLoadBoard::Rebalance(size_t pool_threads, size_t free_threads,
                              bool pressure, size_t extra_load) {
  MutexLock lock(&mu_);
  if (entries_.empty()) return;

  std::vector<ExecSnapshot> snapshots;
  snapshots.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ExecSnapshot snap;
    snap.id = e.id;
    // Workers currently holding pool slots for this execution.
    const size_t in = e.reserved + e.granted;
    snap.workers = in > e.exited ? in - e.exited : 0;
    snap.desired = e.desired;
    snapshots.push_back(snap);
  }

  const ReassignPlan plan = PlanReassign(snapshots, pool_threads,
                                         free_threads, pressure, extra_load);

  // Parks: forwarded to the execution, which clamps to what its operations
  // can actually shed (always keeping one worker each). The board mutex is
  // held across the call — lock order board -> operation internals, never
  // the reverse (executions call back only via OnWorkerExit, lock-free on
  // their side).
  for (const ReassignPlan::Move& move : plan.parks) {
    Entry* entry = FindLocked(move.id);
    if (entry == nullptr) continue;
    entry->exec->RequestPark(move.count);
  }

  // Grants: one pool slot is taken *before* each dispatch (the grant's
  // worker must never oversubscribe the pool) and returned if the
  // execution refuses (drained, at capacity, or racing its own join).
  for (const ReassignPlan::Move& move : plan.grants) {
    Entry* entry = FindLocked(move.id);
    if (entry == nullptr) continue;
    for (size_t k = 0; k < move.count; ++k) {
      if (!hooks_.try_reserve_thread()) return;  // Pool dry.
      if (entry->exec->TryGrantWorker()) {
        ++entry->granted;
      } else {
        hooks_.release_thread();
        break;  // This execution won't take more; try the next one.
      }
    }
  }
}

PoolLoadBoard::Entry* PoolLoadBoard::FindLocked(uint64_t id) {
  for (Entry& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

}  // namespace dbs3

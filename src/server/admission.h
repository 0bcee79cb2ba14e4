#ifndef DBS3_SERVER_ADMISSION_H_
#define DBS3_SERVER_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/cancel.h"
#include "server/query_handle.h"

namespace dbs3 {

struct SharedScanSpec;  // server/shared/shared_query.h

/// Load-shedding and budget limits for the admission queue.
struct AdmissionConfig {
  /// Queries allowed to wait for a driver. One past this is shed with
  /// kResourceExhausted instead of queued (bounding worst-case queue time
  /// under overload). Generous by default so the synchronous facade API
  /// never sheds unexpectedly.
  size_t max_queued = 256;
  /// Memory/queue budget in tuple units shared by the running queries.
  /// A query declares its working-set units at submit; the controller
  /// withholds it from a driver until the budget covers it. 0 = unbounded.
  uint64_t memory_budget_units = 0;
  /// Joint CPU+memory packing (Garofalakis/Ioannidis-style multi-resource
  /// admission): with both set, a waiter whose declared thread share
  /// (PendingQuery::threads_hint) currently fits the pool's free capacity
  /// may be admitted ahead of an equal-priority earlier waiter that would
  /// have to block on thread reservation — CPU and memory are packed
  /// together instead of serially. Advisory only: the bypassed waiter is
  /// aged (kMaxCpuBypasses) so it can never starve, and CPU fit never
  /// *blocks* an admission (the reservation path still does the real
  /// waiting). pool_threads = 0 or a null hook = memory-only admission.
  size_t pool_threads = 0;
  std::function<size_t()> free_threads;
};

/// One waiting query, as the runtime enqueues it. The controller is
/// agnostic to what `run` does — the runtime packs the whole drive-this-
/// query sequence into it.
struct PendingQuery {
  uint64_t id = 0;
  /// Higher runs sooner; ties dequeue FIFO.
  int priority = 0;
  /// Declared working-set size in tuple units. A declaration larger than
  /// the controller's whole budget is shed at enqueue with
  /// kResourceExhausted — it could never admit, and silently clamping it
  /// (the old behavior) admitted the query with a reservation smaller than
  /// what it declared it needs.
  uint64_t memory_units = 0;
  /// Declared thread share (the clamped schedule's total), for joint
  /// CPU+memory admission. 0 = unknown: the query is always CPU-fit.
  size_t threads_hint = 0;
  /// Times an equal-priority CPU-fit waiter was admitted past this one
  /// (controller-internal aging; see AdmissionConfig::pool_threads).
  size_t cpu_bypasses = 0;
  CancelToken cancel;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Runs the query; receives the measured admission wait in seconds.
  std::function<void(double)> run;
  /// Shared-work grouping key (0 = not shareable). The controller groups
  /// waiting queries by this opaque value only — compatibility semantics
  /// live with whoever computed it (the ESQL planner).
  uint64_t share_class = 0;
  /// The shared-scan payload when shareable; what the runtime's batch path
  /// builds the multi-query plan from. Opaque to the controller.
  std::shared_ptr<const SharedScanSpec> shared;
  /// Completes the query's handle without running `run` — how the driver
  /// sheds a dead query and how a batch completes each member.
  std::function<void(Result<QueryResult>, const QueryRunStats&)> finish;
};

/// How long a driver popping a shareable query holds it open for
/// compatible followers, and the largest batch it folds.
struct BatchWindow {
  /// Extra wait for stragglers once a shareable lead popped. 0 = group
  /// only queries already waiting (no added latency).
  std::chrono::microseconds window{0};
  /// Queries per batch, lead included. 1 = batching off.
  size_t max_queries = 1;
};

/// The admission queue between Submit and the driver threads: bounded
/// waiting room (excess load shed), priority-then-FIFO dequeue order, and
/// a unit-denominated memory budget that gates when the head query may
/// start. Driver-side concurrency (session slots) is bounded by the number
/// of driver threads calling PopNext, not here.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Queues `q`, or sheds it with ResourceExhausted when the waiting room
  /// is full. Never blocks.
  Status TryEnqueue(PendingQuery q) EXCLUDES(mu_);

  /// Blocks until a query is admissible (best priority/FIFO entry whose
  /// memory reservation fits the remaining budget) and pops it into
  /// `*out`, charging its reservation. Returns false once shut down AND
  /// drained — after Shutdown, queued entries are still handed out so
  /// their handles can be completed. A cancelled waiter is handed out
  /// immediately regardless of budget (its runner sees the fired token and
  /// completes without executing, so it must not wait for memory).
  bool PopNext(PendingQuery* out) EXCLUDES(mu_);

  /// PopNext plus shared-work grouping: after taking an admissible lead,
  /// if it is shareable (share_class != 0) and `window.max_queries` > 1,
  /// pulls same-class waiters into `*followers` (FIFO, charged like any
  /// admission) and — when `window.window` > 0 — keeps the batch open for
  /// stragglers until it fills or the window closes. The wait aborts early
  /// on shutdown or when the lead's own token fires (a dying lead must not
  /// hold followers hostage). `*window_wait_seconds` (optional) reports how
  /// long the lead was held after its pop. A non-shareable lead returns
  /// immediately with no followers, identical to PopNext.
  bool PopNextBatch(PendingQuery* lead, std::vector<PendingQuery>* followers,
                    const BatchWindow& window, double* window_wait_seconds)
      EXCLUDES(mu_);

  /// Returns a popped query's reservation to the budget.
  void ReleaseMemory(uint64_t units) EXCLUDES(mu_);

  /// Wakes blocked PopNext callers so they re-scan for cancelled entries.
  /// The runtime calls this from the cancellation path; without it a
  /// waiter blocked on the memory budget would only notice a fired token
  /// at its next deadline-sized (or indefinite) wait.
  void NotifyCancelled() EXCLUDES(mu_);

  /// Wakes every blocked PopNext; they drain the queue then return false.
  void Shutdown() EXCLUDES(mu_);

  /// Monitoring counters (exact under the controller's own lock).
  uint64_t queries_shed() const { return shed_.load(); }
  size_t queued_now() const EXCLUDES(mu_);

 private:
  /// Index of the best admissible waiter (priority, then FIFO, cancelled
  /// entries always admissible), or waiting_.size() when none fits.
  /// Non-const: joint CPU+memory mode ages the bypassed head
  /// (cpu_bypasses) when a CPU-fit peer is preferred over it.
  size_t BestAdmissibleLocked() REQUIRES(mu_);
  /// Removes waiting_[index] into `*out`, charging its reservation (zeroed
  /// instead when its token already fired).
  void TakeLocked(size_t index, PendingQuery* out) REQUIRES(mu_);
  /// Moves up to `max_followers` waiters with `share_class` into
  /// `*followers` (FIFO order), skipping any whose reservation does not
  /// currently fit the budget — those stay queued for a later batch rather
  /// than stalling this one.
  void CollectShareClassLocked(uint64_t share_class, size_t max_followers,
                               std::vector<PendingQuery>* followers)
      REQUIRES(mu_);

  AdmissionConfig config_;
  mutable Mutex mu_{"AdmissionController::mu"};
  CondVar cv_;
  std::vector<PendingQuery> waiting_ GUARDED_BY(mu_);
  uint64_t memory_in_use_ GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  /// Enqueue order per entry, for FIFO ties (index-aligned with waiting_).
  std::vector<uint64_t> seq_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> shed_{0};
};

}  // namespace dbs3

#endif  // DBS3_SERVER_ADMISSION_H_

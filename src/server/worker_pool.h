#ifndef DBS3_SERVER_WORKER_POOL_H_
#define DBS3_SERVER_WORKER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/thread_source.h"

namespace dbs3 {

/// The engine-wide worker pool: a fixed set of threads, spawned once,
/// from which every in-flight query's operation workers draw. Replaces
/// the per-query spawn/teardown of Operation::Start — under concurrent
/// load the spawn barrier (one of the paper's three start-up barriers)
/// is paid once per server lifetime instead of once per operation.
///
/// Tasks run in FIFO dispatch order. A dispatched worker loop may block
/// (waiting for activations from its producers), so correctness requires
/// the caller never to have more dispatched-but-unfinished tasks than
/// there are threads; QueryRuntime reserves whole-plan thread counts
/// against the pool's capacity before starting any operation to
/// guarantee it.
class WorkerPool final : public ThreadSource {
 public:
  /// Spawns `num_threads` (>= 1) workers immediately.
  explicit WorkerPool(size_t num_threads);

  /// Calls Shutdown() and joins the threads. All executions drawing on
  /// the pool must have completed.
  ~WorkerPool() override;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Requests shutdown: already-queued tasks still drain (a queued worker
  /// loop belongs to an execution someone is Join()ing on), but any later
  /// Dispatch is rejected — the task is dropped, counted in
  /// tasks_rejected(), and logged. Idempotent; the destructor calls it.
  void Shutdown() EXCLUDES(mu_);

  void Dispatch(std::function<void()> fn) override EXCLUDES(mu_);
  size_t num_threads() const override { return threads_.size(); }

  /// Tasks accepted over the pool's lifetime (a task = one operation
  /// worker loop). Post-shutdown rejections are not counted here.
  uint64_t tasks_dispatched() const { return dispatched_.load(); }

  /// Tasks rejected because Dispatch ran after Shutdown(). Always 0 on a
  /// well-sequenced server (QueryRuntime drains executions first).
  uint64_t tasks_rejected() const { return rejected_.load(); }

  /// Threads not currently running a task (approximate, for the
  /// runtime.pool_idle_threads gauge).
  size_t idle_threads() const {
    const size_t busy = busy_.load(std::memory_order_relaxed);
    const size_t n = threads_.size();
    return n > busy ? n - busy : 0;
  }

 private:
  void ThreadMain() EXCLUDES(mu_);

  Mutex mu_{"WorkerPool::mu"};
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<size_t> busy_{0};
};

}  // namespace dbs3

#endif  // DBS3_SERVER_WORKER_POOL_H_

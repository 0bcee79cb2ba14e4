#include "server/worker_pool.h"

#include <cassert>
#include <utility>

#include "common/logging.h"

namespace dbs3 {

WorkerPool::WorkerPool(size_t num_threads) {
  assert(num_threads >= 1);
  threads_.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads_.emplace_back([this] { ThreadMain(); });
  }
}

WorkerPool::~WorkerPool() {
  Shutdown();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void WorkerPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.SignalAll();
}

void WorkerPool::Dispatch(std::function<void()> fn) {
  bool rejected = false;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      // Explicit post-shutdown contract: the task is dropped, never run.
      // Accepting it silently (the old behavior) either ran it on a thread
      // already asked to exit or — worse — queued it forever.
      rejected = true;
    } else {
      tasks_.push_back(std::move(fn));
    }
  }
  if (rejected) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    DBS3_LOG(kWarning) << "WorkerPool::Dispatch after Shutdown(): task "
                          "rejected (see tasks_rejected())";
    return;
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  cv_.Signal();
}

void WorkerPool::ThreadMain() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (tasks_.empty() && !shutdown_) cv_.Wait(&mu_);
      // Drain outstanding tasks even under shutdown: a queued worker loop
      // belongs to an execution someone is still Join()ing on.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    busy_.fetch_add(1, std::memory_order_relaxed);
    task();
    busy_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace dbs3

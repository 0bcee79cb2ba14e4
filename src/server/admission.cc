#include "server/admission.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace dbs3 {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

Status AdmissionController::TryEnqueue(PendingQuery q) {
  if (config_.memory_budget_units > 0 &&
      q.memory_units > config_.memory_budget_units) {
    // A declaration the whole budget cannot cover would wait forever (and
    // the old clamp admitted it with less memory than it declared it
    // needs — exactly the lie the per-query quota now enforces against).
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "declared memory_units (" + std::to_string(q.memory_units) +
        ") exceeds the admission budget (" +
        std::to_string(config_.memory_budget_units) + ")");
  }
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return Status::Cancelled("admission queue shut down");
    }
    if (waiting_.size() >= config_.max_queued) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission queue full: " + std::to_string(waiting_.size()) +
          " queries already waiting (max_queued=" +
          std::to_string(config_.max_queued) + ")");
    }
    waiting_.push_back(std::move(q));
    seq_.push_back(next_seq_++);
  }
  cv_.Signal();
  return Status::OK();
}

namespace {
/// Bypass budget before an equal-priority CPU-unfit waiter wins anyway:
/// bounds how long joint packing can reorder past it, so a wide query is
/// delayed but never starved.
constexpr size_t kMaxCpuBypasses = 16;
}  // namespace

size_t AdmissionController::BestAdmissibleLocked() {
  // Best admissible entry: highest priority, FIFO within a priority,
  // skipping entries whose memory reservation does not fit — except
  // cancelled ones, which are handed out unconditionally so their
  // handles complete without waiting on budget they will never use.
  //
  // Joint CPU+memory mode additionally tracks the best entry that is also
  // CPU-fit (its declared thread share is deliverable from the pool's free
  // capacity right now). When the two differ at equal priority, the
  // CPU-fit one is preferred — that is the multi-resource packing: a
  // narrow query slips past a wide one that would only block in thread
  // reservation. The preference is advisory (never blocks anyone) and
  // aged via cpu_bypasses so the wide query cannot starve.
  const bool cpu_aware =
      config_.pool_threads > 0 && config_.free_threads != nullptr;
  // One hook call per scan: it takes the runtime's slot mutex.
  const size_t free_now = cpu_aware ? config_.free_threads() : 0;
  size_t best = waiting_.size();
  size_t best_cpu = waiting_.size();
  for (size_t i = 0; i < waiting_.size(); ++i) {
    const bool fits = config_.memory_budget_units == 0 ||
                      waiting_[i].memory_units + memory_in_use_ <=
                          config_.memory_budget_units ||
                      waiting_[i].cancel.ShouldStop();
    if (!fits) continue;
    if (best == waiting_.size() ||
        waiting_[i].priority > waiting_[best].priority ||
        (waiting_[i].priority == waiting_[best].priority &&
         seq_[i] < seq_[best])) {
      best = i;
    }
    if (!cpu_aware) continue;
    // Wider-than-pool declarations are CPU-fit by definition: the runtime
    // admits them in fallback mode (private threads), so holding them for
    // free pool capacity they will never use would be wrong. Cancelled
    // entries consume no threads.
    const size_t hint = waiting_[i].threads_hint;
    const bool cpu_fits = hint == 0 || hint > config_.pool_threads ||
                          hint <= free_now ||
                          waiting_[i].cancel.ShouldStop();
    if (!cpu_fits) continue;
    if (best_cpu == waiting_.size() ||
        waiting_[i].priority > waiting_[best_cpu].priority ||
        (waiting_[i].priority == waiting_[best_cpu].priority &&
         seq_[i] < seq_[best_cpu])) {
      best_cpu = i;
    }
  }
  if (cpu_aware && best_cpu < waiting_.size() && best_cpu != best &&
      best < waiting_.size() &&
      waiting_[best_cpu].priority == waiting_[best].priority &&
      waiting_[best].cpu_bypasses < kMaxCpuBypasses) {
    ++waiting_[best].cpu_bypasses;
    return best_cpu;
  }
  return best;
}

void AdmissionController::TakeLocked(size_t index, PendingQuery* out) {
  *out = std::move(waiting_[index]);
  waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(index));
  seq_.erase(seq_.begin() + static_cast<ptrdiff_t>(index));
  if (out->cancel.ShouldStop()) {
    // Nothing charged; zero the reservation so the caller's paired
    // ReleaseMemory is a no-op.
    out->memory_units = 0;
  } else {
    memory_in_use_ += out->memory_units;
  }
}

void AdmissionController::CollectShareClassLocked(
    uint64_t share_class, size_t max_followers,
    std::vector<PendingQuery>* followers) {
  for (size_t i = 0; i < waiting_.size() && followers->size() < max_followers;) {
    if (waiting_[i].share_class != share_class) {
      ++i;
      continue;
    }
    const bool fits = config_.memory_budget_units == 0 ||
                      waiting_[i].memory_units + memory_in_use_ <=
                          config_.memory_budget_units ||
                      waiting_[i].cancel.ShouldStop();
    if (!fits) {
      // Stays queued for a later batch rather than stalling this one.
      ++i;
      continue;
    }
    PendingQuery taken;
    TakeLocked(i, &taken);
    followers->push_back(std::move(taken));
    // No ++i: TakeLocked's erase shifted the next candidate down to i.
  }
}

bool AdmissionController::PopNext(PendingQuery* out) {
  std::vector<PendingQuery> followers;
  // max_queries = 1 disables grouping; this is exactly the old PopNext.
  return PopNextBatch(out, &followers, BatchWindow{}, nullptr);
}

bool AdmissionController::PopNextBatch(PendingQuery* lead,
                                       std::vector<PendingQuery>* followers,
                                       const BatchWindow& window,
                                       double* window_wait_seconds) {
  followers->clear();
  if (window_wait_seconds != nullptr) *window_wait_seconds = 0.0;
  MutexLock lock(&mu_);
  while (true) {
    const size_t best = BestAdmissibleLocked();
    if (best < waiting_.size()) {
      TakeLocked(best, lead);
      if (lead->share_class != 0 && window.max_queries > 1 &&
          !lead->cancel.ShouldStop()) {
        const auto window_start = std::chrono::steady_clock::now();
        CollectShareClassLocked(lead->share_class, window.max_queries - 1,
                                followers);
        if (window.window.count() > 0) {
          // Hold the batch open for stragglers. Signals on cv_ (enqueues,
          // cancels, releases) re-collect; shutdown and the lead's own
          // token abort the wait — a dying lead must not hold followers.
          const auto close_at = window_start + window.window;
          while (followers->size() + 1 < window.max_queries && !shutdown_ &&
                 !lead->cancel.ShouldStop()) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= close_at) break;
            cv_.WaitFor(&mu_, close_at - now);
            CollectShareClassLocked(lead->share_class,
                                    window.max_queries - 1, followers);
          }
        }
        if (window_wait_seconds != nullptr) {
          *window_wait_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            window_start)
                  .count();
        }
      }
      return true;
    }
    if (shutdown_ && waiting_.empty()) return false;
    // Explicit cancellations signal this cv (NotifyCancelled, called by
    // the runtime's cancel path), so the wait needs no poll interval —
    // only a timeout at the nearest waiting deadline, which fires without
    // any signal. No deadlines pending = a plain unbounded wait (this was
    // a 2 ms poll loop; idle drivers burned wakeups and a cancelled
    // queued query waited up to a full period for handout).
    int64_t nearest_deadline_ns = 0;
    for (const PendingQuery& w : waiting_) {
      const int64_t d = w.cancel.deadline_ns();
      if (d > 0 && (nearest_deadline_ns == 0 || d < nearest_deadline_ns)) {
        nearest_deadline_ns = d;
      }
    }
    if (nearest_deadline_ns == 0) {
      cv_.Wait(&mu_);
    } else {
      const int64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count();
      if (nearest_deadline_ns > now_ns) {
        cv_.WaitFor(&mu_,
                    std::chrono::nanoseconds(nearest_deadline_ns - now_ns));
      }
      // Deadline already passed: loop; the re-scan sees ShouldStop latch.
    }
  }
}

void AdmissionController::ReleaseMemory(uint64_t units) {
  if (units == 0) return;
  {
    MutexLock lock(&mu_);
    memory_in_use_ -= std::min(memory_in_use_, units);
  }
  cv_.SignalAll();
}

void AdmissionController::NotifyCancelled() {
  // Empty critical section: a waiter between its predicate re-scan and its
  // cv wait holds mu_, so passing through the lock orders this signal
  // after that scan — the classic missed-wakeup fence.
  { MutexLock lock(&mu_); }
  cv_.SignalAll();
}

void AdmissionController::Shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.SignalAll();
}

size_t AdmissionController::queued_now() const {
  MutexLock lock(&mu_);
  return waiting_.size();
}

}  // namespace dbs3

#ifndef DBS3_TOOLS_TIDY_FIXTURES_DBS3_STUBS_H_
#define DBS3_TOOLS_TIDY_FIXTURES_DBS3_STUBS_H_

// Minimal stand-ins for the engine types the dbs3-tidy fixtures exercise.
// Just enough surface that every fixture compiles as plain C++17 with no
// engine headers — the checks match on *names* (Emit, PopBatch, TryCharge,
// GUARDED_BY, ...), so behavioral fidelity is irrelevant here.

#include <cstddef>
#include <cstdint>
#include <vector>

#ifndef GUARDED_BY
#define GUARDED_BY(mu)
#endif

namespace dbs3 {

struct Status {
  static Status OK() { return Status{}; }
  bool ok() const { return true; }
};

class Mutex {
 public:
  void Lock() {}
  void Unlock() {}
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

class CountingMutexLock {
 public:
  explicit CountingMutexLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  ~CountingMutexLock() { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

struct Tuple {
  int64_t at(size_t) const { return 0; }
};

class Emitter {
 public:
  void Emit(size_t, Tuple) {}
  void EmitCopy(size_t, const Tuple&) {}
  void EmitConcat(size_t, const Tuple&, const Tuple&) {}
  void EmitSelect(size_t, const Tuple&) {}
};

struct Activation {};

class ActivationQueue {
 public:
  size_t PopBatch(size_t, std::vector<Activation>*) { return 0; }
};

class Operation {
 public:
  void PushData(size_t, Tuple) {}
  void PushDataChunk(size_t, std::vector<Tuple>) {}
  void PushTrigger(size_t) {}
  /// The worker-loop acquisition (batch of activations under one queue
  /// lock) — a consume call the cancel-in-consume-loop check recognizes.
  size_t AcquireBatch(size_t, std::vector<Activation>*) { return 0; }
};

class CancelToken {
 public:
  bool ShouldStop() const { return false; }
  bool cancelled() const { return false; }
};

class SpillFile {
 public:
  Status Rewind() { return Status::OK(); }
  bool ReadChunk(std::vector<Tuple>*) { return false; }
};

class MemoryQuota {
 public:
  [[nodiscard]] bool TryCharge(uint64_t) { return true; }
  void ForceCharge(uint64_t) {}
  void Release(uint64_t) {}
};

class ChargeGuard {
 public:
  explicit ChargeGuard(MemoryQuota* quota) : quota_(quota) {}
  ChargeGuard(MemoryQuota* quota, uint64_t units) : quota_(quota) {
    ok_ = quota_ == nullptr || quota_->TryCharge(units);
    if (ok_) held_ = units;
  }
  ~ChargeGuard() { ReleaseNow(); }
  bool ok() const { return ok_; }
  [[nodiscard]] bool TryAdd(uint64_t units) {
    if (quota_ == nullptr || quota_->TryCharge(units)) {
      held_ += units;
      return true;
    }
    return false;
  }
  void ReleaseNow() {
    if (quota_ != nullptr && held_ > 0) quota_->Release(held_);
    held_ = 0;
  }

 private:
  MemoryQuota* quota_ = nullptr;
  uint64_t held_ = 0;
  bool ok_ = true;
};

class Arena {
 public:
  std::vector<Tuple>* scratch() { return &scratch_; }

 private:
  std::vector<Tuple> scratch_;
};

}  // namespace dbs3

#endif  // DBS3_TOOLS_TIDY_FIXTURES_DBS3_STUBS_H_

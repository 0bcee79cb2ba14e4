// Fixture: the conforming twin of no_alloc_in_hot_path_violation.cc —
// kernel surfaces that stay allocation-free or route growth through the
// blessed Arena / ChunkPool receivers. Zero findings expected.

#include "dbs3_stubs.h"

namespace dbs3 {

class ArenaBackedOnData {
 public:
  void OnData(size_t instance, Tuple tuple, Emitter* out) {
    // Growth through the arena is the sanctioned path: its chunks are
    // recycled, so the kernel stays free of per-tuple heap traffic.
    arena_->scratch()->push_back(tuple);
    out->Emit(instance, tuple);
  }

 private:
  Arena* arena_ = nullptr;
};

class PoolReceiverOnDataBatch {
 public:
  void OnDataBatch(size_t n, Tuple* tuples, Emitter* out) {
    for (size_t i = 0; i < n; ++i) chunk_pool_.push_back(tuples[i]);
    out->Emit(0, tuples[0]);
  }

 private:
  std::vector<Tuple> chunk_pool_;
};

class AllocationFreeProbe {
 public:
  size_t ProbeKeys(const int64_t* keys, size_t n, uint32_t* matches) {
    size_t found = 0;
    for (size_t i = 0; i < n; ++i) {
      if (keys[i] == 0) matches[found++] = static_cast<uint32_t>(i);
    }
    return found;
  }
};

class SetupOutsideTheKernel {
 public:
  // Non-hot-path setup may allocate freely; the check keys on the kernel
  // surface names only.
  void Prepare(size_t n) { hits_.reserve(n); }

  size_t EvalPredAll(const int64_t* column, size_t n) {
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) count += column[i] > 0 ? 1 : 0;
    return count;
  }

 private:
  std::vector<uint32_t> hits_;
};

// The shared scan's tagged-emit shape done right: the per-member tag tuple
// is prebuilt outside the kernel and EmitConcat writes [tag, row] straight
// into a recycled chunk slot — zero allocations per emitted row.
class PrebuiltTagSharedEmit {
 public:
  // Tag construction happens once, off the kernel surface.
  void Prepare(size_t members) {
    tags_.resize(members);
  }

  void EmitTagged(size_t instance, const Tuple* rows, const uint32_t* sel,
                  size_t kept, size_t member, Emitter* out) {
    const Tuple& tag = tags_[member];
    for (size_t i = 0; i < kept; ++i) {
      out->EmitConcat(instance, tag, rows[sel[i]]);
    }
  }

 private:
  std::vector<Tuple> tags_;
};

// Growth routed through a pool receiver is the sanctioned staging path.
class PoolStagedSharedEmit {
 public:
  void EmitTagged(size_t instance, const Tuple* rows, const uint32_t* sel,
                  size_t kept, Emitter* out) {
    for (size_t i = 0; i < kept; ++i) chunk_pool_.push_back(rows[sel[i]]);
    for (const Tuple& row : chunk_pool_) out->EmitConcat(instance, tag_, row);
  }

 private:
  Tuple tag_;
  std::vector<Tuple> chunk_pool_;
};

// The triggered scan done right: survivors are emitted straight from the
// fragment into recycled chunk slots, with nothing staged.
class EmitInPlaceTriggeredScan {
 public:
  void OnTrigger(size_t instance, Emitter* out) {
    for (const Tuple& t : rows_) out->Emit(instance, t);
  }

 private:
  std::vector<Tuple> rows_;
};

}  // namespace dbs3

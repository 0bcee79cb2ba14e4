// Fixture: dbs3-no-alloc-in-hot-path must fire on every seeded line.

#include "dbs3_stubs.h"

#include <cstdlib>

namespace dbs3 {

class GrowingScratchInOnData {
 public:
  void OnData(size_t instance, Tuple tuple, Emitter* out) {
    scratch_.push_back(tuple);  // DBS3-TIDY: dbs3-no-alloc-in-hot-path
    out->Emit(instance, tuple);
  }

 private:
  std::vector<Tuple> scratch_;
};

class HeapNewInBatchKernel {
 public:
  void OnDataBatch(size_t n, Tuple* tuples, Emitter* out) {
    int* counters = new int[n];  // DBS3-TIDY: dbs3-no-alloc-in-hot-path
    for (size_t i = 0; i < n; ++i) counters[i] = 0;
    out->Emit(0, tuples[0]);
    delete[] counters;
  }
};

class MallocInProbe {
 public:
  size_t ProbeKeys(const int64_t* keys, size_t n, uint32_t* matches) {
    void* tmp = std::malloc(n);  // DBS3-TIDY: dbs3-no-alloc-in-hot-path
    std::free(tmp);
    (void)keys;
    (void)matches;
    return 0;
  }
};

class ReserveInPredicateKernel {
 public:
  size_t EvalPredAll(const int64_t* column, size_t n) {
    hits_.reserve(n);  // DBS3-TIDY: dbs3-no-alloc-in-hot-path
    (void)column;
    return hits_.size();
  }

 private:
  std::vector<uint32_t> hits_;
};

// The shared scan's tagged-emit path: building a fresh tag tuple per
// emitted row instead of reusing the prebuilt per-member tag.
class TagAllocInSharedEmit {
 public:
  void EmitTagged(size_t instance, const Tuple* rows, const uint32_t* sel,
                  size_t kept, Emitter* out) {
    for (size_t i = 0; i < kept; ++i) {
      Tuple* tag = new Tuple();  // DBS3-TIDY: dbs3-no-alloc-in-hot-path
      out->EmitConcat(instance, *tag, rows[sel[i]]);
      delete tag;
    }
  }
};

// Staging emitted rows in a growing member buffer defeats the recycled
// chunk slot the tagged emit writes into.
class StagingBufferInSharedEmit {
 public:
  void EmitTagged(size_t instance, const Tuple* rows, const uint32_t* sel,
                  size_t kept, Emitter* out) {
    for (size_t i = 0; i < kept; ++i) {
      staged_.push_back(rows[sel[i]]);  // DBS3-TIDY: dbs3-no-alloc-in-hot-path
    }
    for (const Tuple& row : staged_) out->EmitConcat(instance, tag_, row);
  }

 private:
  Tuple tag_;
  std::vector<Tuple> staged_;
};

// A triggered scan that stages its fragment's survivors in a growing
// buffer before emitting them, instead of emitting straight from the
// fragment.
class StagingBufferInTriggeredScan {
 public:
  void OnTrigger(size_t instance, Emitter* out) {
    for (const Tuple& t : rows_) {
      staged_.push_back(t);  // DBS3-TIDY: dbs3-no-alloc-in-hot-path
    }
    for (const Tuple& t : staged_) out->Emit(instance, t);
  }

 private:
  std::vector<Tuple> rows_;
  std::vector<Tuple> staged_;
};

}  // namespace dbs3

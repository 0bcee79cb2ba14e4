#ifndef DBS3_ENGINE_VECTOR_KEY_FILTER_H_
#define DBS3_ENGINE_VECTOR_KEY_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "engine/vector/pred.h"
#include "storage/relation.h"

namespace dbs3 {

/// A Bloom filter over the join-key hashes of one relation column: the
/// bit-vector filter of Gamma's parallel hash joins (DeWitt et al. 1990).
/// An AssocJoin's probe scan tests each row's key against the filter of the
/// inner it will be joined with, so a row that cannot match is dropped
/// before it is copied through the repartition.
///
/// Keys are `Value::Hash` values (or `HashInt64` of a gathered int column,
/// the same function), so equal values always test equal: the filter has no
/// false negatives. It is sized at 16 bits per key, rounded up to a power of
/// two of 64-bit words, and each key sets 4 bits inside one word, all taken
/// from its one hash (a blocked Bloom filter: one word load per test).
///
/// Built once per query on the planning thread, then shared read-only by
/// every scan instance; there is no synchronization after construction.
class KeyFilter {
 public:
  /// An empty filter sized for `expected_keys` keys.
  explicit KeyFilter(size_t expected_keys);

  /// A filter over `Value::Hash` of column `column` of every row of `rel`.
  static std::shared_ptr<const KeyFilter> Build(const Relation& rel,
                                                size_t column);

  void Insert(uint64_t hash) {
    const uint64_t mixed = Mix(hash);
    words_[WordOf(mixed)] |= BitsOf(mixed);
  }

  /// False only when no inserted key has this hash.
  bool MayContain(uint64_t hash) const {
    const uint64_t mixed = Mix(hash);
    const uint64_t bits = BitsOf(mixed);
    return (words_[WordOf(mixed)] & bits) == bits;
  }

  size_t num_words() const { return words_.size(); }

 private:
  /// One multiply carries every hash bit into the high bits, which is where
  /// the positions come from: a string's FNV-1a hash is weak in its low
  /// bits, and Value::Hash of an int is uniform in all of them.
  static uint64_t Mix(uint64_t hash) { return hash * 0x9e3779b97f4a7c15ULL; }
  /// The four bit positions: mixed bits 40-63, six each.
  static uint64_t BitsOf(uint64_t mixed) {
    return (uint64_t{1} << (mixed >> 58)) |
           (uint64_t{1} << ((mixed >> 52) & 63)) |
           (uint64_t{1} << ((mixed >> 46) & 63)) |
           (uint64_t{1} << ((mixed >> 40) & 63));
  }
  /// The word: the log2(num_words) mixed bits just below bit 40.
  size_t WordOf(uint64_t mixed) const {
    return static_cast<size_t>((mixed >> word_shift_) & mask_);
  }

  std::vector<uint64_t> words_;
  uint64_t mask_;
  unsigned word_shift_;
};

/// The planner's rule for the probe side of an AssocJoin: a key-filter leaf
/// on `probe_column` over `inner`'s column `inner_column` when the probe
/// relation has at least as many rows as the inner (the relation the join
/// actually probes), and nullopt otherwise. Below that ratio the serial
/// build costs more than the rows it can drop.
std::optional<PredExpr> ProbeKeyFilter(const Relation& probe,
                                       size_t probe_column,
                                       const Relation& inner,
                                       size_t inner_column);

}  // namespace dbs3

#endif  // DBS3_ENGINE_VECTOR_KEY_FILTER_H_

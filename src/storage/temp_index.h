#ifndef DBS3_STORAGE_TEMP_INDEX_H_
#define DBS3_STORAGE_TEMP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/relation.h"

namespace dbs3 {

/// A temporary hash index over one fragment, built on the fly.
///
/// The paper builds indexes on the fly for the 500K-tuple databases so the
/// join algorithm's cost does not mask the scheduling effects ("we use
/// larger databases and build indexes on the fly", Section 5.3). IndexJoin
/// builds one of these per inner fragment at trigger time.
///
/// Layout: a chained bucket index over preallocated arrays. `head_` is an
/// open-addressed-by-hash bucket table (power-of-two size, one slot per
/// bucket); `next_[i]` links tuple i to the next tuple of its bucket;
/// `hashes_[i]` caches tuple i's key hash, computed exactly once at build.
/// Probing walks one chain comparing cached hashes first and key equality
/// only on hash match, and returns an iterator range over those arrays —
/// the probe path performs zero heap allocations.
class TempIndex {
 public:
  /// Sentinel chain terminator / empty bucket marker.
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Builds the index over `fragment` keyed on column `key_column`.
  TempIndex(const Fragment& fragment, size_t key_column);

  /// Forward iterator over the tuple indices matching one probed key.
  /// Dereferences to the index into the fragment's tuple vector. The key
  /// (and the TempIndex) must outlive the iterator.
  class MatchIterator {
   public:
    uint32_t operator*() const { return pos_; }
    MatchIterator& operator++() {
      pos_ = index_->NextMatch(index_->next_[pos_], hash_, *key_);
      return *this;
    }
    bool operator==(const MatchIterator& other) const {
      return pos_ == other.pos_;
    }
    bool operator!=(const MatchIterator& other) const {
      return pos_ != other.pos_;
    }

   private:
    friend class TempIndex;
    MatchIterator(const TempIndex* index, const Value* key, uint64_t hash,
                  uint32_t pos)
        : index_(index), key_(key), hash_(hash), pos_(pos) {}

    const TempIndex* index_;
    const Value* key_;
    uint64_t hash_;
    uint32_t pos_;
  };

  /// The matches of one probe: a range over the index's chain arrays.
  /// Allocation-free; iteration order is ascending tuple index (the order
  /// the old map-of-vectors probe returned).
  class MatchRange {
   public:
    MatchIterator begin() const {
      return MatchIterator(index_, key_, hash_, first_);
    }
    MatchIterator end() const {
      return MatchIterator(index_, key_, hash_, kNone);
    }
    bool empty() const { return first_ == kNone; }

   private:
    friend class TempIndex;
    MatchRange(const TempIndex* index, const Value* key, uint64_t hash,
               uint32_t first)
        : index_(index), key_(key), hash_(hash), first_(first) {}

    const TempIndex* index_;
    const Value* key_;
    uint64_t hash_;
    uint32_t first_;
  };

  /// Matches for `key`. `key` must outlive the returned range.
  MatchRange Probe(const Value& key) const {
    return ProbeHashed(key.Hash(), key);
  }

  /// As Probe, with the key's hash supplied by the caller — for probe loops
  /// that compute each probe tuple's hash once and reuse it.
  MatchRange ProbeHashed(uint64_t hash, const Value& key) const {
    return MatchRange(this, &key, hash, FirstMatch(hash, key));
  }

  /// Batched probe: for each key i writes the first matching tuple index
  /// (or kNone) into `out_first[i]`. Result-equivalent to calling
  /// ProbeHashed(hashes[i], *keys[i]) per key, but processes the keys in
  /// fixed-size tiles, software-prefetching the bucket heads and then the
  /// chains' cached-hash slots a few keys ahead — a random-key probe
  /// stream's cache misses overlap instead of serializing. Allocation-free;
  /// matches past the first continue via NextMatchAfter.
  void ProbeHashed(std::span<const uint64_t> hashes, const Value* const* keys,
                   uint32_t* out_first) const;

  /// Batched probe straight off an int64 key column: bucket indexes are
  /// computed inline (the same SplitMix64 finalizer Value::Hash applies to
  /// ints) one tile ahead of the resolving tile — no per-key Value
  /// dispatch and no intermediate hash array at all. Requires
  /// int_keyed(). Result-equivalent to Probe(Value(keys[i])) per key.
  void ProbeKeys(std::span<const int64_t> keys, uint32_t* out_first) const;

  /// The match after `pos` in its chain (continues a batched probe past the
  /// first match); kNone when the chain is exhausted.
  uint32_t NextMatchAfter(uint32_t pos, uint64_t hash,
                          const Value& key) const {
    return NextMatch(next_[pos], hash, key);
  }

  /// Int fast path of NextMatchAfter; requires int_keyed().
  uint32_t NextMatchAfter(uint32_t pos, int64_t key) const {
    uint32_t p = int_nodes_[pos].next;
    while (p != kNone && int_nodes_[p].key != key) p = int_nodes_[p].next;
    return p;
  }

  /// True when every indexed key is an int64. The index then carries the
  /// keys inline in a flat array sized like the chain arrays, and every
  /// probe's key confirm is a flat load + compare instead of a dependent
  /// walk through the fragment tuple's heap-allocated value array.
  bool int_keyed() const { return int_keyed_; }

  /// Indices (into the fragment's tuple vector) of tuples whose key equals
  /// `key`. Empty when there is no match. Materializing convenience over
  /// Probe() for tests and cold paths; the join kernels iterate the range
  /// directly.
  std::vector<uint32_t> Lookup(const Value& key) const;

  /// Number of distinct keys (exact: hash collisions are resolved by value).
  size_t distinct_keys() const { return distinct_keys_; }

 private:
  /// First tuple index matching (hash, key), or kNone.
  uint32_t FirstMatch(uint64_t hash, const Value& key) const {
    if (head_.empty()) return kNone;
    return NextMatch(head_[hash & mask_], hash, key);
  }

  /// Scans the chain from `pos` (inclusive) for the next tuple whose key
  /// matches; kNone when the chain is exhausted. Int-keyed indexes compare
  /// the inline key cache (exact, so the cached-hash prefilter is skipped);
  /// a non-int probe key cannot equal any int key, so it matches nothing.
  uint32_t NextMatch(uint32_t pos, uint64_t hash, const Value& key) const {
    if (int_keyed_) {
      const int64_t* k = key.TryInt();
      if (k == nullptr) return kNone;
      while (pos != kNone && int_nodes_[pos].key != *k) {
        pos = int_nodes_[pos].next;
      }
      return pos;
    }
    while (pos != kNone) {
      if (hashes_[pos] == hash &&
          fragment_.tuples[pos].at(key_column_) == key) {
        return pos;
      }
      pos = next_[pos];
    }
    return kNone;
  }

  /// Tile width of the batched probes: per-tile scratch fits in a few
  /// cache lines, and one tile of work separates a prefetch from its use.
  static constexpr size_t kProbeTile = 64;

  /// Resolves first matches for one tile of int probe keys (count <=
  /// kProbeTile) whose chain heads are already loaded into `pos` (the
  /// caller's pipeline stage); `pos`/`keys`/`out_first` point at the
  /// tile's first element. `pos` is clobbered. Requires int_keyed() and a
  /// non-empty index.
  void IntResolveTile(uint32_t* pos, const int64_t* keys, size_t count,
                      uint32_t* out_first) const;

  const Fragment& fragment_;
  size_t key_column_;
  /// Bucket heads, indexed by hash & mask_; kNone = empty bucket.
  std::vector<uint32_t> head_;
  /// Chain link per tuple of the fragment; kNone terminates.
  std::vector<uint32_t> next_;
  /// Key hash per tuple, computed once at build time.
  std::vector<uint64_t> hashes_;
  /// Packed chain node of the int fast path: the inline key and the chain
  /// link share one 16-byte slot, so a chain step touches a single cache
  /// line (key-only and link-only layouts cost two random lines per step).
  /// Populated iff every key is an int64 (int_keyed_).
  struct IntNode {
    int64_t key;
    uint32_t next;
  };
  std::vector<IntNode> int_nodes_;
  uint64_t mask_ = 0;
  size_t distinct_keys_ = 0;
  bool int_keyed_ = false;
};

}  // namespace dbs3

#endif  // DBS3_STORAGE_TEMP_INDEX_H_

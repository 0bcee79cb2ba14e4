#ifndef DBS3_STORAGE_TUPLE_H_
#define DBS3_STORAGE_TUPLE_H_

#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/row_block.h"
#include "storage/value.h"

namespace dbs3 {

/// A row's values, in storage carved from the allocating thread's row block
/// (storage/row_block.h) rather than one heap allocation per row.
using RowValues = std::vector<Value, RowAllocator<Value>>;

/// A row: an ordered vector of values, positionally matched to a Schema.
///
/// Tuples are plain values (copyable, movable); the engine moves them through
/// activation queues by value, which is what makes one data activation a
/// self-contained sequential unit of work. A moved-from Tuple is empty. A
/// Tuple may be copied, moved or destroyed on any thread, and may outlive
/// the relation, the Database and the thread that created it.
class Tuple {
 public:
  Tuple() = default;
  /// Takes `values` and their row storage as they are.
  explicit Tuple(RowValues values) : values_(std::move(values)) {}
  /// Moves `values` into fresh row storage and frees the vector. For tests
  /// and callers off the data path; the engine fills a RowValues instead.
  explicit Tuple(std::vector<Value> values)
      : values_(std::make_move_iterator(values.begin()),
                std::make_move_iterator(values.end())) {}
  explicit Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Drops every value but keeps the row's storage: refilling the row with
  /// up to its capacity of values takes no new row storage.
  void Clear() { values_.clear(); }

  /// Makes room for `n` values in one piece of row storage.
  void Reserve(size_t n) { values_.reserve(n); }

  const RowValues& values() const { return values_; }

  /// The concatenation of this tuple and `other` (join output row).
  Tuple Concat(const Tuple& other) const {
    Tuple out;
    out.values_.reserve(values_.size() + other.values_.size());
    out.values_.insert(out.values_.end(), values_.begin(), values_.end());
    out.values_.insert(out.values_.end(), other.values_.begin(),
                       other.values_.end());
    return out;
  }

  /// Overwrites this tuple with a copy of `other`, reusing the value storage
  /// this tuple already owns (element-wise copy assignment, so string
  /// payloads reuse their buffers). Steady state performs no allocation;
  /// the engine's recycled chunk slots depend on that.
  void AssignFrom(const Tuple& other) {
    OverwriteWith(other.values_, nullptr);
  }

  /// Overwrites this tuple with the concatenation of `left` and `right`
  /// (join output row), reusing owned storage like AssignFrom.
  void AssignConcat(const Tuple& left, const Tuple& right) {
    OverwriteWith(left.values_, &right.values_);
  }

  /// Overwrites this tuple with the listed columns of `src` (projection
  /// output row), reusing owned storage like AssignFrom. `this` must not
  /// alias `src`.
  void AssignSelect(const Tuple& src, std::span<const size_t> columns) {
    const size_t n = columns.size();
    if (values_.capacity() < n) values_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (i < values_.size()) {
        values_[i] = src.values_[columns[i]];
      } else {
        values_.push_back(src.values_[columns[i]]);
      }
    }
    if (values_.size() > n) values_.resize(n);
  }

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  bool operator<(const Tuple& other) const { return values_ < other.values_; }

  /// "[v0, v1, ...]" for debugging.
  std::string ToString() const {
    std::string out = "[";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i > 0) out += ", ";
      out += values_[i].ToString();
    }
    out += "]";
    return out;
  }

 private:
  /// Replaces the contents with `a` (then `b`, when non-null) by assigning
  /// over the live prefix and trimming/appending the remainder: existing
  /// Value slots (and their heap payloads) are reused instead of destroyed
  /// and reconstructed.
  void OverwriteWith(const RowValues& a, const RowValues* b) {
    const size_t n = a.size() + (b != nullptr ? b->size() : 0);
    if (values_.capacity() < n) values_.reserve(n);
    size_t i = 0;
    auto put = [&](const Value& v) {
      if (i < values_.size()) {
        values_[i] = v;
      } else {
        values_.push_back(v);
      }
      ++i;
    };
    for (const Value& v : a) put(v);
    if (b != nullptr) {
      for (const Value& v : *b) put(v);
    }
    if (values_.size() > n) values_.resize(n);
  }

  RowValues values_;
};

static_assert(sizeof(Tuple) == 24, "a row is one vector of three pointers");

}  // namespace dbs3

#endif  // DBS3_STORAGE_TUPLE_H_

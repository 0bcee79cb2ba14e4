#ifndef DBS3_ENGINE_VECTOR_PRED_H_
#define DBS3_ENGINE_VECTOR_PRED_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/vector/column_batch.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace dbs3 {

class KeyFilter;

/// A small predicate IR for the comparison forms the planner and the
/// ColumnEquals/ColumnBetween helpers produce: integer range tests, string
/// equality, and conjunctions, over typed columns — plus the key-filter
/// leaf the planner ANDs into an AssocJoin's probe scan (key_filter.h).
///
/// The IR exists so the batch filter kernel can evaluate a chunk with one
/// type-specialized, branch-light loop per leaf instead of one
/// std::function indirect call per tuple; arbitrary predicates stay on the
/// cold TuplePredicate path.
///
/// Leaf semantics are self-contained (they do not inherit the Value
/// total-order quirks for cross-type comparisons): an integer leaf matches
/// only integer values, kStringEquals only equal strings, and the negated
/// forms match everything else. The planner guarantees equivalence with
/// its row predicates by lowering a comparison only when the column's
/// declared schema type matches the literal (see LowerComparison in
/// esql/planner.cc). The key-filter leaf matches any value, of either type,
/// whose `Value::Hash` the filter may hold: it never drops a value equal to
/// an inserted key.
struct PredExpr {
  enum class Kind : uint8_t {
    kAll,              ///< Matches every tuple.
    kNone,             ///< Matches nothing (unsatisfiable range).
    kIntRange,         ///< Value is an integer in [lo, hi].
    kIntNotEquals,     ///< Value is not the integer `lo` (non-ints match).
    kStringEquals,     ///< Value is the string `literal`.
    kStringNotEquals,  ///< Value is not the string `literal`.
    kKeyFilter,        ///< Value's hash may be in `key_filter`.
    kAnd,              ///< Every child matches.
  };

  Kind kind = Kind::kAll;
  uint32_t column = 0;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  std::string literal;
  /// Immutable and shared by every copy of the leaf (kKeyFilter only).
  std::shared_ptr<const KeyFilter> key_filter;
  std::vector<PredExpr> children;

  static PredExpr All() { return PredExpr{}; }
  static PredExpr None() {
    PredExpr e;
    e.kind = Kind::kNone;
    return e;
  }
  static PredExpr IntBetween(uint32_t column, int64_t lo, int64_t hi) {
    if (lo > hi) return None();
    PredExpr e;
    e.kind = Kind::kIntRange;
    e.column = column;
    e.lo = lo;
    e.hi = hi;
    return e;
  }
  static PredExpr IntEquals(uint32_t column, int64_t v) {
    return IntBetween(column, v, v);
  }
  static PredExpr IntNotEquals(uint32_t column, int64_t v) {
    PredExpr e;
    e.kind = Kind::kIntNotEquals;
    e.column = column;
    e.lo = v;
    return e;
  }
  static PredExpr IntLess(uint32_t column, int64_t v) {
    if (v == std::numeric_limits<int64_t>::min()) return None();
    return IntBetween(column, std::numeric_limits<int64_t>::min(), v - 1);
  }
  static PredExpr IntLessEq(uint32_t column, int64_t v) {
    return IntBetween(column, std::numeric_limits<int64_t>::min(), v);
  }
  static PredExpr IntGreater(uint32_t column, int64_t v) {
    if (v == std::numeric_limits<int64_t>::max()) return None();
    return IntBetween(column, v + 1, std::numeric_limits<int64_t>::max());
  }
  static PredExpr IntGreaterEq(uint32_t column, int64_t v) {
    return IntBetween(column, v, std::numeric_limits<int64_t>::max());
  }
  static PredExpr StringEquals(uint32_t column, std::string s) {
    PredExpr e;
    e.kind = Kind::kStringEquals;
    e.column = column;
    e.literal = std::move(s);
    return e;
  }
  static PredExpr StringNotEquals(uint32_t column, std::string s) {
    PredExpr e;
    e.kind = Kind::kStringNotEquals;
    e.column = column;
    e.literal = std::move(s);
    return e;
  }
  /// Values whose hash `filter` may hold: no false negatives, so ANDing it
  /// into a join's probe side drops only rows without a partner.
  static PredExpr InKeyFilter(uint32_t column,
                              std::shared_ptr<const KeyFilter> filter) {
    PredExpr e;
    e.kind = Kind::kKeyFilter;
    e.column = column;
    e.key_filter = std::move(filter);
    return e;
  }
  /// Conjunction. Single-child conjunctions collapse to the child.
  static PredExpr And(std::vector<PredExpr> children) {
    if (children.size() == 1) return std::move(children.front());
    PredExpr e;
    e.kind = Kind::kAnd;
    e.children = std::move(children);
    return e;
  }

  /// Evaluates this node against one value (leaves only; kAll/kNone ok).
  bool EvalValue(const Value& v) const;

  /// Row-path evaluation: one switch-dispatched walk per tuple, no
  /// std::function indirection. This is what the row path of the filter
  /// operators calls when a PredExpr is available (one virtual call into
  /// OnDataBatch per chunk, then direct calls per tuple).
  bool EvalRow(const Tuple& t) const;

  /// Debug rendering, e.g. "(c0 in [3, 7] && c2 == 'x')".
  std::string ToString() const;
};

/// Evaluates `pred` over every row of `batch`, writing the matching row
/// ids (ascending) into `sel_out` (capacity >= batch.num_rows()). Returns
/// the match count. Integer leaves over all-int columns run branch-free;
/// other leaves fall back to per-row Value evaluation.
size_t EvalPredAll(const PredExpr& pred, ColumnBatch& batch,
                   uint32_t* sel_out);

/// Filters an existing selection in place (reads and writes `sel`, output
/// index never passes the read index). Returns the surviving count.
size_t EvalPredFilter(const PredExpr& pred, ColumnBatch& batch,
                      uint32_t* sel, size_t count);

}  // namespace dbs3

#endif  // DBS3_ENGINE_VECTOR_PRED_H_

#ifndef DBS3_ENGINE_VECTOR_PRED_H_
#define DBS3_ENGINE_VECTOR_PRED_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/vector/column_batch.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace dbs3 {

class KeyFilter;

/// A predicate over tuples as an arbitrary function: the opaque row test a
/// PredExpr row leaf holds.
using TuplePredicate = std::function<bool(const Tuple&)>;

/// The engine's one predicate type: a small tree of leaves joined by
/// conjunction. Typed leaves cover the comparison forms the planner and the
/// ColumnEquals/ColumnBetween helpers produce (integer ranges, string
/// equality); the key-filter leaf is what the planner ANDs into an
/// AssocJoin's probe scan (key_filter.h); a row leaf (kRow) holds any other
/// test as a TuplePredicate, and any callable over a tuple converts to one
/// implicitly.
///
/// The typed leaves let the batch kernels evaluate a span with one
/// type-specialized, branch-light loop per leaf; the kernels call a row
/// leaf once per row. A conjunction may mix both kinds, so the planner
/// lowers each WHERE conjunct it can and keeps the rest as row leaves.
///
/// Leaf semantics are self-contained (they do not inherit the Value
/// total-order quirks for cross-type comparisons): an integer leaf matches
/// only integer values, kStringEquals only equal strings, and the negated
/// forms match everything else. The planner guarantees equivalence with
/// its row tests by lowering a comparison only when the column's declared
/// schema type matches the literal (see LowerComparison in
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
    kRow,              ///< `(*row)(tuple)` holds: an opaque row test.
    kAnd,              ///< Every child matches.
  };

  Kind kind = Kind::kAll;
  uint32_t column = 0;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  std::string literal;
  /// Immutable and shared by every copy of the leaf (kKeyFilter only).
  std::shared_ptr<const KeyFilter> key_filter;
  /// Immutable and shared by every copy of the leaf (kRow only).
  std::shared_ptr<const TuplePredicate> row;
  std::vector<PredExpr> children;

  /// Matches every tuple: the same as All().
  PredExpr() = default;

  /// A row leaf over `fn`. Implicit, so a lambda or a TuplePredicate goes
  /// wherever a predicate does. An empty function is refused by Validate()
  /// (the operators' Prepare), never called.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, PredExpr> &&
                std::is_invocable_r_v<bool, F&, const Tuple&>>>
  PredExpr(F fn)  // NOLINT(google-explicit-constructor): implicit by design.
      : kind(Kind::kRow),
        row(std::make_shared<const TuplePredicate>(std::move(fn))) {}

  static PredExpr All() { return PredExpr(); }
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
  /// Conjunction, kept flat and in order: a conjunction child contributes
  /// its children, kAll children drop out, no children is All(), and one
  /// is returned as it is.
  static PredExpr And(std::vector<PredExpr> children);

  /// InvalidArgument when a row leaf holds no function (an empty
  /// TuplePredicate), which nothing could call; OK otherwise. The operators
  /// check it in Prepare, before any worker runs the predicate.
  Status Validate() const;

  /// Evaluates this node against one value (column leaves and kAll/kNone;
  /// false for kRow and kAnd, which need the whole tuple).
  bool EvalValue(const Value& v) const;

  /// Evaluates the tree against one tuple: a switch-dispatched walk, with
  /// one std::function call per row leaf.
  bool EvalRow(const Tuple& t) const;

  /// Debug rendering, e.g. "(c0 in [3, 7] && c2 == 'x')".
  std::string ToString() const;
};

/// Selects the rows of `batch` that `pred` keeps: writes their row ids,
/// ascending, into `sel_out` (capacity >= batch.num_rows()) and returns the
/// count. Every operator that filters rows selects them here, so this is
/// the one place the choice between the two evaluation paths is made:
/// EvalPredAll's column kernels for batches of kMinBatchRows rows or more,
/// an EvalRow loop below that (no column is gathered). Both select the
/// same rows.
size_t SelectRows(const PredExpr& pred, ColumnBatch& batch,
                  uint32_t* sel_out);

/// Evaluates `pred` over every row of `batch`, writing the matching row
/// ids (ascending) into `sel_out` (capacity >= batch.num_rows()). Returns
/// the match count. Integer leaves over all-int columns run branch-free;
/// other leaves fall back to per-row Value evaluation, row leaves to one
/// call per row.
size_t EvalPredAll(const PredExpr& pred, ColumnBatch& batch,
                   uint32_t* sel_out);

/// Filters an existing selection in place (reads and writes `sel`, output
/// index never passes the read index). Returns the surviving count.
size_t EvalPredFilter(const PredExpr& pred, ColumnBatch& batch,
                      uint32_t* sel, size_t count);

}  // namespace dbs3

#endif  // DBS3_ENGINE_VECTOR_PRED_H_

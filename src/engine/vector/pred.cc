#include "engine/vector/pred.h"

#include "common/hash.h"
#include "engine/vector/key_filter.h"

namespace dbs3 {

bool PredExpr::EvalValue(const Value& v) const {
  switch (kind) {
    case Kind::kAll:
      return true;
    case Kind::kNone:
      return false;
    case Kind::kIntRange: {
      const int64_t* i = v.TryInt();
      return i != nullptr && *i >= lo && *i <= hi;
    }
    case Kind::kIntNotEquals: {
      const int64_t* i = v.TryInt();
      return i == nullptr || *i != lo;
    }
    case Kind::kStringEquals:
      return !v.is_int() && v.AsString() == literal;
    case Kind::kStringNotEquals:
      return v.is_int() || v.AsString() != literal;
    case Kind::kKeyFilter:
      return key_filter->MayContain(v.Hash());
    case Kind::kRow:
    case Kind::kAnd:
      break;  // Need the whole tuple: EvalRow.
  }
  return false;
}

bool PredExpr::EvalRow(const Tuple& t) const {
  switch (kind) {
    case Kind::kAll:
      return true;
    case Kind::kNone:
      return false;
    case Kind::kRow:
      return (*row)(t);
    case Kind::kAnd:
      for (const PredExpr& child : children) {
        if (!child.EvalRow(t)) return false;
      }
      return true;
    default:
      return EvalValue(t.at(column));
  }
}

PredExpr PredExpr::And(std::vector<PredExpr> children) {
  std::vector<PredExpr> flat;
  flat.reserve(children.size());
  for (PredExpr& child : children) {
    if (child.kind == Kind::kAll) continue;
    if (child.kind == Kind::kAnd) {
      for (PredExpr& grandchild : child.children) {
        flat.push_back(std::move(grandchild));
      }
    } else {
      flat.push_back(std::move(child));
    }
  }
  if (flat.empty()) return All();
  if (flat.size() == 1) return std::move(flat.front());
  PredExpr e;
  e.kind = Kind::kAnd;
  e.children = std::move(flat);
  return e;
}

Status PredExpr::Validate() const {
  switch (kind) {
    case Kind::kRow:
      if (row == nullptr || !*row) {
        return Status::InvalidArgument(
            "predicate has a row test with no function");
      }
      return Status::OK();
    case Kind::kAnd:
      for (const PredExpr& child : children) {
        DBS3_RETURN_IF_ERROR(child.Validate());
      }
      return Status::OK();
    default:
      return Status::OK();
  }
}

std::string PredExpr::ToString() const {
  switch (kind) {
    case Kind::kAll:
      return "true";
    case Kind::kNone:
      return "false";
    case Kind::kIntRange:
      if (lo == hi) return "c" + std::to_string(column) + " == " +
                           std::to_string(lo);
      return "c" + std::to_string(column) + " in [" + std::to_string(lo) +
             ", " + std::to_string(hi) + "]";
    case Kind::kIntNotEquals:
      return "c" + std::to_string(column) + " != " + std::to_string(lo);
    case Kind::kStringEquals:
      return "c" + std::to_string(column) + " == '" + literal + "'";
    case Kind::kStringNotEquals:
      return "c" + std::to_string(column) + " != '" + literal + "'";
    case Kind::kKeyFilter:
      return "c" + std::to_string(column) + " in keyfilter";
    case Kind::kRow:
      return "row-test";
    case Kind::kAnd: {
      std::string out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += " && ";
        out += children[i].ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

/// Leaf kernel over all rows: the int forms stream the column array with a
/// branchless select (the key filter hashes each int with HashInt64, which
/// is Value::Hash on ints); a row leaf calls its function on each row;
/// everything else tests per row via Values().
size_t LeafAll(const PredExpr& pred, ColumnBatch& batch, uint32_t* sel_out) {
  const size_t n = batch.num_rows();
  size_t k = 0;
  if (pred.kind == PredExpr::Kind::kRow) {
    const TuplePredicate& keep = *pred.row;
    for (size_t i = 0; i < n; ++i) {
      if (keep(batch.row(i))) sel_out[k++] = static_cast<uint32_t>(i);
    }
    return k;
  }
  if (pred.kind == PredExpr::Kind::kKeyFilter) {
    const int64_t* v = batch.Ints(pred.column);
    if (v != nullptr) {
      const KeyFilter& keys = *pred.key_filter;
      for (size_t i = 0; i < n; ++i) {
        sel_out[k] = static_cast<uint32_t>(i);
        k += static_cast<size_t>(
            keys.MayContain(HashInt64(static_cast<uint64_t>(v[i]))));
      }
      return k;
    }
  }
  if (pred.kind == PredExpr::Kind::kIntRange) {
    const int64_t* v = batch.Ints(pred.column);
    if (v != nullptr) {
      const int64_t lo = pred.lo, hi = pred.hi;
      for (size_t i = 0; i < n; ++i) {
        sel_out[k] = static_cast<uint32_t>(i);
        k += static_cast<size_t>((v[i] >= lo) & (v[i] <= hi));
      }
      return k;
    }
  }
  if (pred.kind == PredExpr::Kind::kIntNotEquals) {
    const int64_t* v = batch.Ints(pred.column);
    if (v != nullptr) {
      const int64_t x = pred.lo;
      for (size_t i = 0; i < n; ++i) {
        sel_out[k] = static_cast<uint32_t>(i);
        k += static_cast<size_t>(v[i] != x);
      }
      return k;
    }
  }
  const Value* const* vals = batch.Values(pred.column);
  for (size_t i = 0; i < n; ++i) {
    if (pred.EvalValue(*vals[i])) sel_out[k++] = static_cast<uint32_t>(i);
  }
  return k;
}

/// Leaf kernel over a selection, in place.
size_t LeafFilter(const PredExpr& pred, ColumnBatch& batch, uint32_t* sel,
                  size_t count) {
  size_t k = 0;
  if (pred.kind == PredExpr::Kind::kRow) {
    const TuplePredicate& keep = *pred.row;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t row = sel[i];
      if (keep(batch.row(row))) sel[k++] = row;
    }
    return k;
  }
  if (pred.kind == PredExpr::Kind::kKeyFilter) {
    const int64_t* v = batch.Ints(pred.column);
    if (v != nullptr) {
      const KeyFilter& keys = *pred.key_filter;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = sel[i];
        sel[k] = row;
        k += static_cast<size_t>(
            keys.MayContain(HashInt64(static_cast<uint64_t>(v[row]))));
      }
      return k;
    }
  }
  if (pred.kind == PredExpr::Kind::kIntRange) {
    const int64_t* v = batch.Ints(pred.column);
    if (v != nullptr) {
      const int64_t lo = pred.lo, hi = pred.hi;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = sel[i];
        sel[k] = row;
        k += static_cast<size_t>((v[row] >= lo) & (v[row] <= hi));
      }
      return k;
    }
  }
  if (pred.kind == PredExpr::Kind::kIntNotEquals) {
    const int64_t* v = batch.Ints(pred.column);
    if (v != nullptr) {
      const int64_t x = pred.lo;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = sel[i];
        sel[k] = row;
        k += static_cast<size_t>(v[row] != x);
      }
      return k;
    }
  }
  const Value* const* vals = batch.Values(pred.column);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t row = sel[i];
    if (pred.EvalValue(*vals[row])) sel[k++] = row;
  }
  return k;
}

}  // namespace

size_t SelectRows(const PredExpr& pred, ColumnBatch& batch,
                  uint32_t* sel_out) {
  const size_t n = batch.num_rows();
  if (n >= kMinBatchRows) return EvalPredAll(pred, batch, sel_out);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pred.EvalRow(batch.row(i))) sel_out[k++] = static_cast<uint32_t>(i);
  }
  return k;
}

size_t EvalPredAll(const PredExpr& pred, ColumnBatch& batch,
                   uint32_t* sel_out) {
  const size_t n = batch.num_rows();
  switch (pred.kind) {
    case PredExpr::Kind::kAll:
      for (size_t i = 0; i < n; ++i) sel_out[i] = static_cast<uint32_t>(i);
      return n;
    case PredExpr::Kind::kNone:
      return 0;
    case PredExpr::Kind::kAnd: {
      if (pred.children.empty()) {
        for (size_t i = 0; i < n; ++i) sel_out[i] = static_cast<uint32_t>(i);
        return n;
      }
      size_t count = EvalPredAll(pred.children.front(), batch, sel_out);
      for (size_t c = 1; c < pred.children.size() && count > 0; ++c) {
        count = EvalPredFilter(pred.children[c], batch, sel_out, count);
      }
      return count;
    }
    default:
      return LeafAll(pred, batch, sel_out);
  }
}

size_t EvalPredFilter(const PredExpr& pred, ColumnBatch& batch,
                      uint32_t* sel, size_t count) {
  switch (pred.kind) {
    case PredExpr::Kind::kAll:
      return count;
    case PredExpr::Kind::kNone:
      return 0;
    case PredExpr::Kind::kAnd: {
      for (const PredExpr& child : pred.children) {
        if (count == 0) break;
        count = EvalPredFilter(child, batch, sel, count);
      }
      return count;
    }
    default:
      return LeafFilter(pred, batch, sel, count);
  }
}

}  // namespace dbs3

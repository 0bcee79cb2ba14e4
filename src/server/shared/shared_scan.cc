#include "server/shared/shared_scan.h"

#include <algorithm>
#include <span>
#include <utility>

#include "engine/vector/column_batch.h"
#include "engine/vector/pred.h"

namespace dbs3 {

namespace {

/// Tile size of the shared pass, matching the single-query filter kernels:
/// one ColumnBatch is built per tile and reused for every member's
/// predicate — the shared-work win over N independent scans.
constexpr size_t kSharedScanTile = 1024;

/// Below this, building the column views costs more than it saves (same
/// threshold as the single-query kernels).
constexpr size_t kSharedMinBatchRows = 4;

/// Appends the `kept` rows of `tile` that `sel` selects to fragment
/// `instance` of `member`'s sink: a copy of the row for SELECT *, the
/// projected columns otherwise — one allocation per stored row either way.
void StoreSelected(const SharedScanMember& member, size_t instance,
                   const Tuple* tile, const uint32_t* sel, size_t kept) {
  for (size_t i = 0; i < kept; ++i) {
    const Tuple& row = tile[sel[i]];
    if (member.projection.empty()) {
      member.result->AppendToFragment(instance, row);
    } else {
      Tuple stored;
      stored.AssignSelect(row, member.projection);
      member.result->AppendToFragment(instance, std::move(stored));
    }
  }
}

}  // namespace

SharedScanLogic::SharedScanLogic(const Relation* input,
                                 std::vector<SharedScanMember> members,
                                 bool vectorize)
    : input_(input), members_(std::move(members)), vectorize_(vectorize) {}

Status SharedScanLogic::Prepare(size_t num_instances) {
  if (num_instances > input_->degree()) {
    return Status::InvalidArgument(
        "shared scan has " + std::to_string(num_instances) +
        " instances but relation '" + input_->name() + "' has only " +
        std::to_string(input_->degree()) + " fragments");
  }
  for (const SharedScanMember& member : members_) {
    if (member.result == nullptr) {
      return Status::InvalidArgument("shared scan member has no result sink");
    }
    if (num_instances > member.result->degree()) {
      return Status::InvalidArgument(
          "shared scan has " + std::to_string(num_instances) +
          " instances but sink '" + member.result->name() + "' has only " +
          std::to_string(member.result->degree()) + " fragments");
    }
  }
  return Status::OK();
}

void SharedScanLogic::OnTrigger(size_t instance, Emitter* out) {
  (void)out;  // Rows go straight to the members' sinks.
  const std::vector<Tuple>& rows = input_->fragment(instance).tuples;
  const size_t num_members = members_.size();
  Arena& arena = ThreadLocalKernelArena();
  for (size_t tile = 0; tile < rows.size(); tile += kSharedScanTile) {
    const size_t count = std::min(kSharedScanTile, rows.size() - tile);
    ScopedArena scope(&arena);
    // One column view shared by every member's predicate — the pass over
    // the fragment's memory happens once regardless of the batch size.
    ColumnBatch batch(std::span<const Tuple>(rows.data() + tile, count),
                      &arena);
    uint32_t* sel = arena.AllocateArrayOf<uint32_t>(count);
    bool any_live = false;
    for (size_t m = 0; m < num_members; ++m) {
      const SharedScanMember& member = members_[m];
      // Per-tile member cancel check: a fired token stops this member's
      // share of the pass; the other members keep scanning.
      if (member.cancel.ShouldStop()) continue;
      any_live = true;
      size_t kept = 0;
      if (member.predicate.expr.has_value()) {
        const PredExpr& expr = *member.predicate.expr;
        if (vectorize_ && count >= kSharedMinBatchRows) {
          kept = EvalPredAll(expr, batch, sel);
        } else {
          for (size_t i = 0; i < count; ++i) {
            if (expr.EvalRow(rows[tile + i])) {
              sel[kept++] = static_cast<uint32_t>(i);
            }
          }
        }
      } else {
        const TuplePredicate& keep = member.predicate.row;
        for (size_t i = 0; i < count; ++i) {
          if (keep(rows[tile + i])) sel[kept++] = static_cast<uint32_t>(i);
        }
      }
      StoreSelected(member, instance, rows.data() + tile, sel, kept);
    }
    if (!any_live) return;  // Every member cancelled: the pass is moot.
  }
}

NodeEstimate SharedScanLogic::Estimate(const CostModel& cost_model,
                                       double input_tuples) const {
  (void)input_tuples;  // Triggered: work comes from the fragments.
  NodeEstimate e;
  const double members = static_cast<double>(members_.size());
  double output = 0.0;
  for (const SharedScanMember& m : members_) {
    output += m.selectivity * static_cast<double>(input_->cardinality());
  }
  // The pass reads each tuple once but evaluates N predicates on it; the
  // scheduler sees roughly the per-member filter work without the N
  // repeated fragment reads.
  e.total_work =
      static_cast<double>(input_->cardinality()) * cost_model.scan_tuple *
      std::max(1.0, members * 0.5);
  e.activations = 0.0;
  e.output_tuples = output;
  for (uint64_t c : input_->FragmentCardinalities()) {
    e.per_instance_work.push_back(static_cast<double>(c) *
                                  cost_model.scan_tuple *
                                  std::max(1.0, members * 0.5));
  }
  return e;
}

}  // namespace dbs3

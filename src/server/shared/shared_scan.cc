#include "server/shared/shared_scan.h"

#include <algorithm>
#include <span>
#include <utility>

#include "engine/vector/column_batch.h"
#include "engine/vector/pred.h"

namespace dbs3 {

namespace {

/// Appends the `kept` rows of `tile` that `sel` selects to fragment
/// `instance` of `result`: a copy of the row for SELECT *, the `projection`
/// columns otherwise — one allocation per stored row either way.
void StoreSelected(const std::vector<size_t>& projection, Relation* result,
                   size_t instance, const Tuple* tile, const uint32_t* sel,
                   size_t kept) {
  for (size_t i = 0; i < kept; ++i) {
    const Tuple& row = tile[sel[i]];
    if (projection.empty()) {
      result->AppendToFragment(instance, row);
    } else {
      Tuple stored;
      stored.AssignSelect(row, projection);
      result->AppendToFragment(instance, std::move(stored));
    }
  }
}

}  // namespace

SharedScanLogic::SharedScanLogic(const Relation* input,
                                 std::vector<const SharedScanSpec*> specs,
                                 std::vector<CancelToken> cancels)
    : input_(input), specs_(std::move(specs)), cancels_(std::move(cancels)) {
  results_.reserve(specs_.size());
  for (const SharedScanSpec* spec : specs_) {
    results_.push_back(std::make_unique<Relation>(
        spec->result_name, spec->result_schema, /*partition_column=*/0,
        Partitioner(PartitionKind::kHash, input_->degree())));
  }
}

Status SharedScanLogic::Prepare(size_t num_instances) {
  if (num_instances > input_->degree()) {
    return Status::InvalidArgument(
        "shared scan has " + std::to_string(num_instances) +
        " instances but relation '" + input_->name() + "' has only " +
        std::to_string(input_->degree()) + " fragments");
  }
  const size_t columns = input_->schema().num_columns();
  for (const SharedScanSpec* spec : specs_) {
    if (spec->relation != input_) {
      return Status::InvalidArgument(
          "shared scan of '" + input_->name() +
          "' was handed a member over another relation");
    }
    for (size_t c : spec->projection) {
      if (c >= columns) {
        return Status::InvalidArgument(
            "shared scan member projects column " + std::to_string(c) +
            " but '" + input_->name() + "' has " + std::to_string(columns));
      }
    }
    DBS3_RETURN_IF_ERROR(spec->predicate.Validate());
  }
  return Status::OK();
}

void SharedScanLogic::OnTrigger(size_t instance, Emitter* out) {
  (void)out;  // Rows go straight to the members' results.
  const std::vector<Tuple>& rows = input_->fragment(instance).tuples;
  const size_t num_members = specs_.size();
  Arena& arena = ThreadLocalKernelArena();
  for (size_t tile = 0; tile < rows.size(); tile += kFragmentTile) {
    const size_t count = std::min(kFragmentTile, rows.size() - tile);
    ScopedArena scope(&arena);
    // One column view shared by every member's predicate — the pass over
    // the fragment's memory happens once regardless of the batch size: the
    // shared-work win over N independent scans.
    ColumnBatch batch(std::span<const Tuple>(rows.data() + tile, count),
                      &arena);
    uint32_t* sel = arena.AllocateArrayOf<uint32_t>(count);
    bool any_live = false;
    for (size_t m = 0; m < num_members; ++m) {
      // Per-tile member cancel check: a fired token stops this member's
      // share of the pass; the other members keep scanning.
      if (cancels_[m].ShouldStop()) continue;
      any_live = true;
      const SharedScanSpec& spec = *specs_[m];
      const size_t kept = SelectRows(spec.predicate, batch, sel);
      StoreSelected(spec.projection, results_[m].get(), instance,
                    rows.data() + tile, sel, kept);
    }
    if (!any_live) return;  // Every member cancelled: the pass is moot.
  }
}

NodeEstimate SharedScanLogic::Estimate(const CostModel& cost_model,
                                       double input_tuples) const {
  (void)input_tuples;  // Triggered: work comes from the fragments.
  NodeEstimate e;
  const double members = static_cast<double>(specs_.size());
  double output = 0.0;
  for (const SharedScanSpec* spec : specs_) {
    output += spec->selectivity * static_cast<double>(input_->cardinality());
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

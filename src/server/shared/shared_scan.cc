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

constexpr size_t kUnpinned = static_cast<size_t>(-1);

/// The fragment of `rel` that holds every row `pred` keeps, when `pred` is
/// an integer equality on the partition column or a conjunction with one;
/// kUnpinned otherwise. Sound only for a placement-verified relation: the
/// leaf keeps only rows whose value is the integer k, and each of those
/// sits in FragmentOf(k).
size_t PinOf(const PredExpr& pred, const Relation& rel) {
  if (pred.kind == PredExpr::Kind::kAnd) {
    for (const PredExpr& child : pred.children) {
      const size_t pin = PinOf(child, rel);
      if (pin != kUnpinned) return pin;
    }
    return kUnpinned;
  }
  if (pred.kind != PredExpr::Kind::kIntRange || pred.lo != pred.hi ||
      pred.column != rel.partition_column()) {
    return kUnpinned;
  }
  return rel.partitioner().FragmentOf(Value(pred.lo));
}

}  // namespace

SharedScanLogic::SharedScanLogic(const Relation* input,
                                 std::vector<const SharedScanSpec*> specs,
                                 std::vector<CancelToken> cancels)
    : input_(input), specs_(std::move(specs)), cancels_(std::move(cancels)) {
  results_.reserve(specs_.size());
  pins_.reserve(specs_.size());
  evaluated_.assign(input_->degree(), 0);
  size_t unpinned = 0;
  for (const SharedScanSpec* spec : specs_) {
    // Each stored row sits in the fragment of the base row it came from.
    const std::vector<size_t>& projection = spec->projection;
    const auto kept = std::find(projection.begin(), projection.end(),
                                input_->partition_column());
    const bool placed = projection.empty() || kept != projection.end();
    const size_t column =
        projection.empty() ? input_->partition_column()
        : placed           ? static_cast<size_t>(kept - projection.begin())
                           : 0;
    results_.push_back(std::make_unique<Relation>(
        spec->result_name, spec->result_schema, column,
        placed ? input_->partitioner()
               : Partitioner(PartitionKind::kHash, input_->degree())));
    const size_t pin = input_->placement_verified()
                           ? PinOf(spec->predicate, *input_)
                           : kUnpinned;
    pins_.push_back(pin);
    if (pin == kUnpinned) {
      ++unpinned;
    } else {
      ++evaluated_[pin];
    }
  }
  for (size_t& n : evaluated_) n += unpinned;
}

Status SharedScanLogic::Prepare(size_t num_instances) {
  if (num_instances != input_->degree()) {
    return Status::InvalidArgument(
        "shared scan must have one instance per fragment of '" +
        input_->name() + "' (" + std::to_string(input_->degree()) +
        "), got " + std::to_string(num_instances));
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
  // Pruned: every member is pinned to another fragment.
  if (evaluated_[instance] == 0) return;
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
      // A member pinned to another fragment has no row here.
      if (pins_[m] != kUnpinned && pins_[m] != instance) continue;
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
  double output = 0.0;
  for (const SharedScanSpec* spec : specs_) {
    output += spec->selectivity * static_cast<double>(input_->cardinality());
  }
  e.activations = 0.0;
  e.output_tuples = output;
  // An instance's pass reads each tuple of its fragment once but evaluates
  // the N members it serves on it: the scheduler sees roughly the
  // per-member filter work without the N repeated fragment reads. A pruned
  // instance does nothing.
  const std::vector<uint64_t> sizes = input_->FragmentCardinalities();
  for (size_t i = 0; i < sizes.size(); ++i) {
    const double members = static_cast<double>(evaluated_[i]);
    const double work =
        members == 0.0 ? 0.0
                       : static_cast<double>(sizes[i]) *
                             cost_model.scan_tuple *
                             std::max(1.0, members * 0.5);
    e.per_instance_work.push_back(work);
    e.total_work += work;
  }
  return e;
}

}  // namespace dbs3

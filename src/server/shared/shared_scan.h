#ifndef DBS3_SERVER_SHARED_SHARED_SCAN_H_
#define DBS3_SERVER_SHARED_SHARED_SCAN_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cancel.h"
#include "engine/operators.h"
#include "server/shared/shared_query.h"
#include "storage/relation.h"

namespace dbs3 {

/// Triggered multi-query scan (the SharedDB "one pass, N queries" node):
/// the control activation for instance i walks fragment i of the input
/// once, tile by tile, building each ColumnBatch a single time and
/// evaluating every live member's predicate against it. A member is a
/// query's own SharedScanSpec, run as the planner built it: its selected
/// rows (projected when the spec projects) go straight into fragment i of
/// the member's result, so a shared batch is a one-node plan with no data
/// activations. A triggered operation runs exactly one control activation
/// per instance, so fragment i of every result has one writer and needs no
/// lock. Each member's rows are selected from the shared tile by
/// SelectRows, the same routine the single-query filters use.
///
/// Pruning by placement: when the input's placement was verified
/// (Relation::placement_verified), a member whose predicate fixes the
/// partition column to an integer k — an integer equality leaf on it,
/// alone or as one conjunct — can only keep rows of fragment
/// partitioner().FragmentOf(Value(k)). The member is pinned there, and
/// every other instance skips it; an instance whose members are all
/// pinned elsewhere returns at once.
class SharedScanLogic : public OperatorLogic {
 public:
  /// `input` and every spec must outlive the execution. Creates each
  /// member's result relation with the spec's name and schema, declaring
  /// the placement its rows have (each sits in the fragment of the base
  /// row it came from): SELECT * takes the input's partition column and
  /// partitioner, a projection keeping the input's partition column takes
  /// its first position there with the input's partitioner, and any other
  /// projection is declared hash on column 0 with the input's degree.
  /// Pins each member as above.
  /// `cancels[i]` is member i's token: once fired, the scan stops storing
  /// member i's rows (per-tile check) and the other members keep scanning.
  SharedScanLogic(const Relation* input,
                  std::vector<const SharedScanSpec*> specs,
                  std::vector<CancelToken> cancels);

  /// Requires one instance per input fragment (instance i scans fragment
  /// i). Refuses a member over another relation, one projecting a column
  /// past the input's schema, and one whose predicate fails
  /// PredExpr::Validate.
  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "shared-scan"; }
  /// Charges each instance its fragment's pass over the members it
  /// evaluates (nothing when it evaluates none); total_work is the sum.
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

  /// Hands out member i's result: fragment f holds the rows of input
  /// fragment f the member selects, in fragment order. Once, after the run.
  std::unique_ptr<Relation> TakeResult(size_t i) {
    return std::move(results_[i]);
  }

 private:
  const Relation* input_;
  std::vector<const SharedScanSpec*> specs_;
  std::vector<CancelToken> cancels_;
  std::vector<std::unique_ptr<Relation>> results_;
  /// Per member: the one fragment that can hold its rows, or kUnpinned.
  std::vector<size_t> pins_;
  /// Per instance: how many members it evaluates (the unpinned ones and
  /// those pinned to its fragment).
  std::vector<size_t> evaluated_;
};

}  // namespace dbs3

#endif  // DBS3_SERVER_SHARED_SHARED_SCAN_H_

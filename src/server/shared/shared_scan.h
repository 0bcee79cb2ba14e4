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
class SharedScanLogic : public OperatorLogic {
 public:
  /// `input` and every spec must outlive the execution. Creates each
  /// member's result relation: the spec's name and schema, hash-partitioned
  /// on column 0 with the input's degree. `cancels[i]` is member i's
  /// token: once fired, the scan stops storing member i's rows (per-tile
  /// check) and the other members keep scanning.
  SharedScanLogic(const Relation* input,
                  std::vector<const SharedScanSpec*> specs,
                  std::vector<CancelToken> cancels);

  /// Refuses a member over another relation, one projecting a column past
  /// the input's schema, and one whose predicate fails PredExpr::Validate.
  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "shared-scan"; }
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
};

}  // namespace dbs3

#endif  // DBS3_SERVER_SHARED_SHARED_SCAN_H_

#ifndef DBS3_SERVER_SHARED_SHARED_SCAN_H_
#define DBS3_SERVER_SHARED_SHARED_SCAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cancel.h"
#include "engine/operators.h"
#include "storage/relation.h"

namespace dbs3 {

/// One query riding a shared scan, carrying its own result sink.
struct SharedScanMember {
  /// The member's WHERE conjunction (evaluated against every tile).
  Predicate predicate;
  /// Scheduling estimate of the member's kept fraction.
  double selectivity = 1.0;
  /// Base-relation columns to store, in output order. Empty = the whole
  /// row.
  std::vector<size_t> projection;
  /// The member's result relation; fragment i receives the rows instance i
  /// selects. Must outlive the execution.
  Relation* result = nullptr;
  /// The member's cancel token: once fired, the scan stops storing this
  /// member's rows (per-tile check); the runtime discards what it already
  /// stored along with the member's non-OK result.
  CancelToken cancel;
};

/// Triggered multi-query scan (the SharedDB "one pass, N queries" node):
/// the control activation for instance i walks fragment i of the input
/// once, tile by tile, building each ColumnBatch a single time and
/// evaluating every live member's predicate against it. Each member's
/// selected rows go straight into fragment i of its own result sink, so a
/// shared batch is a one-node plan with no data activations. A triggered
/// operation runs exactly one control activation per instance, so fragment
/// i of every sink has one writer and needs no lock. Members whose
/// predicate lowered to the vector IR run through EvalPredAll selection
/// vectors; row-form predicates share the same tile loop on the per-row
/// path.
class SharedScanLogic : public OperatorLogic {
 public:
  /// `input` must outlive the execution.
  SharedScanLogic(const Relation* input, std::vector<SharedScanMember> members,
                  bool vectorize);

  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "shared-scan"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  const Relation* input_;
  std::vector<SharedScanMember> members_;
  bool vectorize_;
};

}  // namespace dbs3

#endif  // DBS3_SERVER_SHARED_SHARED_SCAN_H_

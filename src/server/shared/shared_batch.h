#ifndef DBS3_SERVER_SHARED_SHARED_BATCH_H_
#define DBS3_SERVER_SHARED_SHARED_BATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/cancel.h"
#include "engine/plan.h"
#include "server/shared/shared_query.h"

namespace dbs3 {

/// One plan built from a batch of one or more compatible SharedScanSpecs:
/// a single shared-scan node that stores each member's rows into that
/// member's result sink. Sinks are hash-partitioned on column 0 with the
/// relation's degree, and instance i fills fragment i with the rows of
/// base fragment i that the member selects, in base-fragment order, so a
/// member's result does not depend on which batch it rode.
struct SharedBatchPlan {
  Plan plan;
  /// Per-member materialized results, index-aligned with the input specs.
  std::vector<std::unique_ptr<Relation>> sinks;
  /// Physical-plan rendering for QueryResult::detail.
  std::string detail;
};

/// Builds the shared plan for `specs` (>= 1 member, all with the same
/// share_class — enforced). `cancels[i]` is member i's token; its firing
/// mid-run stops only member i's share of the pass.
Result<SharedBatchPlan> BuildSharedBatchPlan(
    const std::vector<const SharedScanSpec*>& specs,
    const std::vector<CancelToken>& cancels);

}  // namespace dbs3

#endif  // DBS3_SERVER_SHARED_SHARED_BATCH_H_

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

/// One multi-query plan built from a batch of compatible SharedScanSpecs:
/// a single shared-scan node that stores each member's rows into that
/// member's result sink. Sinks are hash-partitioned on column 0 with the
/// relation's degree, and instance i fills fragment i in base-fragment
/// tile order — the exact shape of the solo filter→store plan, so each
/// member's result is fragment-for-fragment identical to solo execution.
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

#ifndef DBS3_SERVER_SHARED_SHARED_QUERY_H_
#define DBS3_SERVER_SHARED_SHARED_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/operators.h"
#include "sched/scheduler.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace dbs3 {

/// The plan of one scan-only query, which the shared scan runs as it is
/// (SharedDB-style shared work: each query's own plan fragment rides the
/// shared operator): the relation it scans, its own predicate, and how its
/// slice of the shared pass is projected and materialized. The ESQL
/// planner builds one of these at Submit time for every scan-only query
/// (single-relation selection, no aggregates or ordering); alone the query
/// runs as a batch of one, and queries whose spec carries the same nonzero
/// `share_class` may run as one SharedScanLogic node over their specs.
///
/// Compatibility contract: two specs with equal share_class scan the same
/// Relation object with the same projection shape. Predicates, result
/// names, deadlines and cancel tokens are per-member — differing predicates
/// are the point of sharing the pass.
struct SharedScanSpec {
  /// The relation the shared pass scans. Must outlive execution (catalog
  /// relations do; the planner only marks catalog scans shareable).
  const Relation* relation = nullptr;
  /// This member's WHERE conjunction (typed leaves where the planner could
  /// lower a conjunct, row leaves for the rest).
  Predicate predicate;
  /// Scheduling estimate of the kept fraction.
  double selectivity = 1.0;
  /// Base-relation columns of the member's SELECT list, in output order.
  /// Empty = SELECT * (every column, schema order).
  std::vector<size_t> projection;
  /// Schema of the member's result relation (projected when `projection`
  /// is non-empty, otherwise the base schema).
  Schema result_schema;
  /// Name of the member's materialized result.
  std::string result_name = "esql_result";
  /// Scheduling knobs of the member; the batch runs under the lead
  /// member's schedule.
  ScheduleOptions schedule;
  /// Grouping key: equal nonzero classes are batchable. 0 = never shared.
  uint64_t share_class = 0;
};

/// The grouping key for `relation` scans with this projection shape.
/// Stable within a process (hashes the relation's identity), always
/// nonzero.
uint64_t ComputeShareClass(const Relation& relation,
                           const std::vector<size_t>& projection);

}  // namespace dbs3

#endif  // DBS3_SERVER_SHARED_SHARED_QUERY_H_

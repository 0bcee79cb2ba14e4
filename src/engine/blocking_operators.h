#ifndef DBS3_ENGINE_BLOCKING_OPERATORS_H_
#define DBS3_ENGINE_BLOCKING_OPERATORS_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/operator_logic.h"
#include "engine/operators.h"
#include "storage/relation.h"
#include "storage/spill.h"

namespace dbs3 {

/// Aggregate kinds supported by GroupByLogic.
enum class AggKind { kCount, kSum, kMin, kMax };

const char* AggKindName(AggKind kind);

/// One aggregate column specification: `kind` over input column `column`
/// (column is ignored for kCount).
struct AggSpec {
  AggKind kind = AggKind::kCount;
  size_t column = 0;
};

/// Pipelined hash group-by: data activations accumulate into per-instance
/// hash tables; OnFinish emits one tuple per group —
/// [group_key, agg_0, agg_1, ...].
///
/// A min/max aggregate whose column never held an int for a group emits the
/// empty string (Value ranks every string above every int, so the sentinel
/// cannot collide with a real extremum); sum and count emit 0 as before.
///
/// Grouping is local to each instance: correct global groups require the
/// input to be partitioned (or repartitioned by a kByColumn edge) on the
/// grouping column, the same co-location argument as IdealJoin.
///
/// When BindExecution supplies a bounded MemoryQuota, each resident group
/// costs one unit. A failed charge spills the instance's table as *partial
/// aggregate* rows — [key, count, (acc, seen)*] — hash-partitioned across
/// temp files, and accumulation restarts empty (two-phase aggregation's
/// local phase, made adaptive). OnFinish re-aggregates each partition under
/// the same quota, recursively splitting partitions that still do not fit;
/// merging only ever shrinks a partition, so the recursion terminates (a
/// residual force-charge at the cap keeps progress under adversarial skew).
class GroupByLogic : public OperatorLogic {
 public:
  GroupByLogic(size_t group_column, std::vector<AggSpec> aggregates);
  ~GroupByLogic() override;

  void BindExecution(const ExecResources& resources) override;
  Status Prepare(size_t num_instances) override;
  void OnData(size_t instance, Tuple tuple, Emitter* out) override;
  /// Chunked accumulate: takes the instance lock once per activation.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  void OnFinish(size_t instance, Emitter* out) override;
  Status error() const override;
  std::string name() const override { return "group-by"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  /// Spill fanout and the re-aggregation recursion cap. Level L splits with
  /// a different hash salt than level L-1, so a partition that collided at
  /// one level spreads at the next.
  static constexpr size_t kSpillFanout = 8;
  static constexpr size_t kMaxMergeLevels = 6;

  struct GroupState {
    int64_t count = 0;
    std::vector<int64_t> values;  ///< One accumulator per aggregate.
    std::vector<bool> seen;       ///< Min/max initialization flags.
  };
  struct InstanceState {
    Mutex mu{"GroupByLogic::instance_mu"};
    std::map<Value, GroupState> groups GUARDED_BY(mu);
    /// Partial-aggregate partitions, keyed by level-0 hash. Entries are
    /// created on the first spill; null means the partition never spilled.
    std::vector<std::unique_ptr<SpillFile>> spill_files GUARDED_BY(mu);
    uint64_t charged GUARDED_BY(mu) = 0;  ///< Quota units held by `groups`.
    Status error GUARDED_BY(mu);
  };

  size_t PartitionOf(const Value& key, size_t level) const;

  /// Folds one tuple into `state`; the caller must hold state.mu (a
  /// compiler-checked contract under -Wthread-safety).
  void AccumulateLocked(InstanceState& state, const Tuple& tuple)
      REQUIRES(state.mu);

  /// Reserves one quota unit for a new group, spilling the table when the
  /// budget is exhausted. Returns false only on spill IO failure (recorded
  /// in state.error).
  bool ChargeNewGroupLocked(InstanceState& state) REQUIRES(state.mu);

  /// Writes every resident group as a partial-aggregate row into the
  /// instance's partition files, clears the table and releases its units.
  Status SpillGroupsLocked(InstanceState& state) REQUIRES(state.mu);

  /// Encodes `group` as a partial row; EmitGroup's spill-side counterpart.
  Tuple EncodePartial(const Value& key, const GroupState& group) const;
  /// Folds a partial row into `group` (the merge of two-phase aggregation).
  void MergePartial(const Tuple& row, GroupState* group) const;
  /// Emits the final [key, agg...] row, applying the min/max sentinel.
  void EmitGroup(size_t instance, const Value& key, const GroupState& group,
                 Emitter* out) const;

  /// Re-aggregates one spilled partition file under the quota, recursively
  /// splitting at `level` when the merged table overflows.
  Status MergeSpilledFile(size_t instance, SpillFile* file, size_t level,
                          Emitter* out);

  /// Publishes counter growth since the last publish (sequential OnFinish).
  void PublishMetrics();

  size_t group_column_;
  std::vector<AggSpec> aggregates_;
  ExecResources resources_;
  SpillCounters counters_;
  std::atomic<uint64_t> spill_events_{0};
  std::atomic<uint64_t> merge_recursions_{0};
  uint64_t published_bytes_written_ = 0;
  uint64_t published_bytes_read_ = 0;
  uint64_t published_spill_events_ = 0;
  uint64_t published_recursions_ = 0;
  std::vector<std::unique_ptr<InstanceState>> instances_;
};

/// Sort direction for SortLogic.
enum class SortOrder { kAscending, kDescending };

/// Pipelined sort: gathers its input per instance and emits it ordered by
/// `column` at OnFinish. Each instance's output is locally sorted (the
/// partitioned-parallel sort of a fragmented relation; a global order
/// additionally needs range partitioning upstream).
///
/// Buffered rows are charged against a bound MemoryQuota one unit apiece.
/// Sort has no spill path, although ESQL ORDER BY plans one per result
/// fragment: exceeding the budget fails the query with kResourceExhausted
/// instead of silently blowing past the declaration — fail-fast is the
/// documented behavior.
class SortLogic : public OperatorLogic {
 public:
  SortLogic(size_t column, SortOrder order = SortOrder::kAscending);
  ~SortLogic() override;

  void BindExecution(const ExecResources& resources) override;
  Status Prepare(size_t num_instances) override;
  void OnData(size_t instance, Tuple tuple, Emitter* out) override;
  void OnFinish(size_t instance, Emitter* out) override;
  Status error() const override;
  std::string name() const override { return "sort"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  struct InstanceState {
    Mutex mu{"SortLogic::instance_mu"};
    std::vector<Tuple> rows GUARDED_BY(mu);
    uint64_t charged GUARDED_BY(mu) = 0;
    Status error GUARDED_BY(mu);
  };

  size_t column_;
  SortOrder order_;
  ExecResources resources_;
  std::vector<std::unique_ptr<InstanceState>> instances_;
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_BLOCKING_OPERATORS_H_

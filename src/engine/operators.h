#ifndef DBS3_ENGINE_OPERATORS_H_
#define DBS3_ENGINE_OPERATORS_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "engine/operator_logic.h"
#include "engine/spill_join.h"
#include "engine/vector/pred.h"
#include "storage/relation.h"
#include "storage/temp_index.h"

namespace dbs3 {

/// The predicate an operator runs. PredExpr is the engine's only
/// predicate type; this name is kept because the facade signatures and the
/// benchmark harness (perfbench/) spell it.
using Predicate = PredExpr;

/// Predicate `tuple[column] == value`.
Predicate ColumnEquals(size_t column, Value value);

/// Predicate `lo <= tuple[column] <= hi` (int column).
Predicate ColumnBetween(size_t column, int64_t lo, int64_t hi);

/// Matches every tuple.
Predicate MatchAll();

/// Triggered selection: the control activation for instance i scans fragment
/// i of the input relation and emits every tuple matching the predicate
/// (the `filter` of Figure 1/2).
class FilterLogic : public OperatorLogic {
 public:
  /// `input` must outlive the execution. `selectivity` is the estimated
  /// fraction of tuples the predicate keeps (compiler statistic, used only
  /// for scheduling).
  FilterLogic(const Relation* input, Predicate predicate,
              double selectivity = 1.0);

  /// Also refuses a predicate that fails PredExpr::Validate.
  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "filter"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  const Relation* input_;
  Predicate predicate_;
  double selectivity_;
};

/// Triggered redistribution: the control activation for instance i scans
/// fragment i of the input relation and emits every tuple; the plan edge
/// repartitions them to the consumer (the `transmit` of Figure 11).
class TransmitLogic : public OperatorLogic {
 public:
  explicit TransmitLogic(const Relation* input);

  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "transmit"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  const Relation* input_;
};

/// Join algorithms. The paper uses nested loop when the join algorithm has
/// no impact (to slow down small-database runs) and an on-the-fly temporary
/// index for the 500K databases. kHash is that index: a TempIndex built
/// over the inner fragment and probed with the outer (or probe) rows.
enum class JoinAlgorithm { kNestedLoop, kHash };

const char* JoinAlgorithmName(JoinAlgorithm a);

/// Triggered join (IdealJoin node, Figure 10): both operands are
/// co-partitioned on the join attribute; the control activation for
/// instance i joins outer fragment i with inner fragment i.
///
/// The indexed algorithms build through HashJoinBuild: the inner fragment
/// is charged against the query's MemoryQuota, probed in memory when the
/// charge is granted, and run as a spilling hybrid hash join when it is
/// refused. Either way the instance's build is joined, flushed and
/// released before OnTrigger returns.
class TriggeredJoinLogic : public OperatorLogic {
 public:
  /// Joins `outer` and `inner` on outer.column(outer_column) ==
  /// inner.column(inner_column). Requires equal degrees.
  TriggeredJoinLogic(const Relation* outer, size_t outer_column,
                     const Relation* inner, size_t inner_column,
                     JoinAlgorithm algorithm);

  void BindExecution(const ExecResources& resources) override;
  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  /// Publishes the spill counters.
  void OnFinish(size_t instance, Emitter* out) override;
  Status error() const override;
  std::string name() const override { return "join"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  const Relation* outer_;
  size_t outer_column_;
  const Relation* inner_;
  size_t inner_column_;
  JoinAlgorithm algorithm_;
  HashJoinBuild build_;
};

/// Pipelined join (AssocJoin node, Figure 11): the inner operand is bound
/// statically; each data activation conveys one probe tuple, joined against
/// the inner fragment of the receiving instance.
///
/// The indexed algorithms build through HashJoinBuild on an instance's
/// first activation: granted, the build stays resident (and charged) until
/// OnFinish; refused, probes of spilled partitions are deferred and joined
/// by OnFinish.
class PipelinedJoinLogic : public OperatorLogic {
 public:
  /// Probes column `probe_column` of incoming tuples against
  /// inner.column(inner_column) on inner fragment `instance`.
  PipelinedJoinLogic(const Relation* inner, size_t inner_column,
                     size_t probe_column, JoinAlgorithm algorithm);

  void BindExecution(const ExecResources& resources) override;
  Status Prepare(size_t num_instances) override;
  void OnData(size_t instance, Tuple tuple, Emitter* out) override;
  /// Chunked probe: resolves the inner fragment / temp index once per
  /// activation instead of once per tuple, and for chunks of kMinBatchRows
  /// or more hashes the whole probe-key column up front and runs the
  /// batched prefetching probe.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  /// Joins deferred probes, releases the instance's build, and publishes
  /// the spill counters.
  void OnFinish(size_t instance, Emitter* out) override;
  Status error() const override;
  std::string name() const override { return "join"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  const Relation* inner_;
  size_t inner_column_;
  size_t probe_column_;
  JoinAlgorithm algorithm_;
  HashJoinBuild build_;
};

/// Pipelined materialization: appends each incoming tuple to fragment
/// `instance` of the result relation (the `store` at the end of a pipeline
/// chain).
class StoreLogic : public OperatorLogic {
 public:
  /// `result` must have at least as many fragments as the operation has
  /// instances and must outlive the execution.
  explicit StoreLogic(Relation* result);

  Status Prepare(size_t num_instances) override;
  void OnData(size_t instance, Tuple tuple, Emitter* out) override;
  /// Chunked append: takes the fragment lock once per activation.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "store"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  Relation* result_;
  /// One lock per result fragment. Dynamically indexed, so per-element
  /// GUARDED_BY is not expressible; AppendToFragment calls happen only
  /// under the matching fragment's lock.
  std::vector<std::unique_ptr<Mutex>> fragment_mu_;
};

/// Pipelined filter: forwards each incoming tuple iff it matches the
/// predicate (post-join / post-repartition selections).
class PipelinedFilterLogic : public OperatorLogic {
 public:
  /// `selectivity` is the scheduling estimate of the kept fraction.
  explicit PipelinedFilterLogic(Predicate predicate,
                                double selectivity = 1.0);

  /// Refuses a predicate that fails PredExpr::Validate.
  Status Prepare(size_t num_instances) override;
  void OnData(size_t instance, Tuple tuple, Emitter* out) override;
  /// Chunked filter: selects the chunk's survivors with SelectRows, then
  /// moves them out in order.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "filter"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  Predicate predicate_;
  double selectivity_;
};

/// Pipelined projection: emits the listed columns of each incoming tuple,
/// in order. Emission goes through Emitter::EmitSelect, which writes the
/// selected columns straight into a recycled output slot — no per-row
/// output tuple is materialized.
class ProjectLogic : public OperatorLogic {
 public:
  explicit ProjectLogic(std::vector<size_t> columns);

  void OnData(size_t instance, Tuple tuple, Emitter* out) override;
  /// Chunked projection: hoists the column-list span out of the loop.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "project"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  std::vector<size_t> columns_;
};

/// Pipelined map: emits f(tuple) for each incoming tuple.
class MapLogic : public OperatorLogic {
 public:
  /// `fn` overwrites a recycled per-thread scratch row (via
  /// Tuple::AssignFrom / AssignConcat), which is then EmitCopy'd into a
  /// recycled chunk slot — no per-row construction in steady state.
  explicit MapLogic(std::function<void(const Tuple&, Tuple*)> fn);

  void OnData(size_t instance, Tuple tuple, Emitter* out) override;
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "map"; }

 private:
  std::function<void(const Tuple&, Tuple*)> fn_;
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_OPERATORS_H_

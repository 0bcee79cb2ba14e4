#ifndef DBS3_ENGINE_OPERATOR_LOGIC_H_
#define DBS3_ENGINE_OPERATOR_LOGIC_H_

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/cancel.h"
#include "engine/cost_model.h"
#include "storage/tuple.h"

namespace dbs3 {

class MemoryQuota;
struct SpillCounters;

/// Per-execution resources the executor hands to every operator logic
/// before Prepare (see OperatorLogic::BindExecution). Pointers stay valid
/// for the duration of Executor::Run only — logics must touch `spill`
/// exclusively from execution callbacks. `quota` is the one exception: when
/// non-null the caller guarantees it outlives the plan's logics, so
/// destructors can release charges a cancelled run left behind.
struct ExecResources {
  /// The query's memory quota, or nullptr when the execution runs without
  /// accounting (no budget declared and no caller-provided tracker).
  MemoryQuota* quota = nullptr;
  /// The execution's spill record: spill files and the spilling operators
  /// count into it directly. nullptr = nothing counted.
  SpillCounters* spill = nullptr;
  /// The execution's cancel token; long-running OnFinish work (spill
  /// drains) checks it between partitions.
  CancelToken cancel = CancelToken::None();
};

/// Sink for tuples produced while processing one activation. The Operation
/// implements this by routing the tuple to the consumer operation's instance
/// queue (data activation), per the plan's edge routing rule.
class Emitter {
 public:
  virtual ~Emitter() = default;

  /// Sends one result tuple downstream. `producer_instance` is the instance
  /// whose activation is being processed (needed for same-instance routing,
  /// e.g. join_i -> store_i in the paper's plans).
  virtual void Emit(size_t producer_instance, Tuple tuple) = 0;

  /// Sends a copy of `tuple` downstream. Operators that keep the original
  /// (scans emitting from an immutable fragment) use this so the engine can
  /// copy straight into a recycled output slot instead of materializing a
  /// fresh Tuple first.
  virtual void EmitCopy(size_t producer_instance, const Tuple& tuple) {
    Emit(producer_instance, Tuple(tuple));
  }

  /// Sends the concatenation of `left` and `right` (a join output row)
  /// downstream. The default materializes via Tuple::Concat; the engine's
  /// emitter overrides it to write both halves into a recycled output slot
  /// in place — the join kernels' zero-allocation emit path.
  virtual void EmitConcat(size_t producer_instance, const Tuple& left,
                          const Tuple& right) {
    Emit(producer_instance, left.Concat(right));
  }

  /// Sends the listed columns of `src`, in order (a projection output row).
  /// The default materializes a fresh tuple; the engine's emitter overrides
  /// it to Tuple::AssignSelect into a recycled output slot — the projection
  /// counterpart of EmitConcat's zero-allocation path.
  virtual void EmitSelect(size_t producer_instance, const Tuple& src,
                          std::span<const size_t> columns) {
    RowValues values;
    values.reserve(columns.size());
    for (size_t c : columns) values.push_back(src.at(c));
    Emit(producer_instance, Tuple(std::move(values)));
  }
};

/// The database function of an operation (the `DBFunc` field of Figure 4):
/// filter, join, transmit, store...
///
/// Thread-safety contract: after Prepare(), OnTrigger/OnDataBatch are called
/// concurrently by the operation's thread pool, possibly concurrently for
/// the *same* instance (several threads may drain one queue). Implementations
/// must synchronize any per-instance mutable state.
class OperatorLogic {
 public:
  virtual ~OperatorLogic() = default;

  /// Called once per execution, before Prepare, with the run's shared
  /// resources. The default ignores them; memory-aware operators (hash
  /// joins, group-by, sort) keep the quota/spill pointers and charge
  /// retained state against the quota as they buffer it.
  virtual void BindExecution(const ExecResources& resources) {
    (void)resources;
  }

  /// First error the logic hit while processing (spill IO failure, quota
  /// exhaustion with no spill path). The executor checks every logic after
  /// the drain and fails the run with the first non-OK status — operator
  /// callbacks have no return channel of their own.
  virtual Status error() const { return Status::OK(); }

  /// Called once, before any activation, with the operation's instance
  /// count. Allocate per-instance state here.
  virtual Status Prepare(size_t num_instances) {
    (void)num_instances;
    return Status::OK();
  }

  /// Processes the control activation of `instance` (triggered operations:
  /// the whole fragment is the unit of work).
  virtual void OnTrigger(size_t instance, Emitter* out) {
    (void)instance;
    (void)out;
  }

  /// Processes one data activation (pipelined operations): the span of
  /// tuples delivered under a single queue acquisition — one tuple at
  /// chunk_size 1. Per-activation setup (index lookup, fragment lock,
  /// predicate bind) is hoisted out of the per-tuple loop. Tuples in the
  /// span are owned by the caller and may be moved from.
  virtual void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                           Emitter* out) {
    (void)instance;
    (void)tuples;
    (void)out;
  }

  /// Called exactly once per instance after every activation of the
  /// operation has been processed and before downstream operations are
  /// closed. Blocking operators (group-by, sort) emit their results here.
  /// Invoked sequentially (no concurrent OnFinish calls).
  virtual void OnFinish(size_t instance, Emitter* out) {
    (void)instance;
    (void)out;
  }

  /// Operator name for plan display ("filter", "join", ...).
  virtual std::string name() const = 0;

  /// Static complexity estimate, used by the scheduler (Section 3, steps
  /// 1-3) and to derive LPT cost estimates. `input_tuples` is the estimated
  /// number of data activations this node will receive (0 for triggered
  /// operations). The default says "free operator, passes tuples through".
  virtual NodeEstimate Estimate(const CostModel& cost_model,
                                double input_tuples) const {
    (void)cost_model;
    NodeEstimate e;
    e.activations = input_tuples;
    e.output_tuples = input_tuples;
    return e;
  }
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_OPERATOR_LOGIC_H_

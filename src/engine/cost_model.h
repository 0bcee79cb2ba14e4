#ifndef DBS3_ENGINE_COST_MODEL_H_
#define DBS3_ENGINE_COST_MODEL_H_

#include <cstddef>
#include <vector>

namespace dbs3 {

/// Abstract work units for complexity estimation. One unit ~ one elementary
/// tuple operation; the scheduler only uses *ratios* of complexities, so
/// this unit never needs calibrating against wall-clock time (the simulator
/// has its own calibrated unit, see sim/workload.h).
struct CostModel {
  /// Scanning / filtering one tuple.
  double scan_tuple = 1.0;
  /// Comparing one nested-loop pair.
  double nl_pair = 1.0;
  /// Inserting one tuple into an on-the-fly index / hash table.
  double index_build_tuple = 4.0;
  /// Probing an index / hash table once.
  double index_probe = 4.0;
  /// Materializing one result tuple.
  double store_tuple = 2.0;
};

/// Work estimates for one plan node, derived by its OperatorLogic. All in
/// CostModel units. The compiler of the paper produces these statically
/// ("based on the complexity of the query, as estimated by the compiler");
/// here each operator derives them from catalog statistics (fragment
/// cardinalities).
struct NodeEstimate {
  /// Estimated total sequential work of the node.
  double total_work = 0.0;
  /// Estimated number of activations the node will process (fragments for
  /// triggered nodes, tuples for pipelined nodes).
  double activations = 0.0;
  /// Estimated tuples emitted downstream.
  double output_tuples = 0.0;
  /// Per-instance work estimates (the LPT ordering key; static information
  /// on fragment sizes, per Section 4.1).
  std::vector<double> per_instance_work;
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_COST_MODEL_H_

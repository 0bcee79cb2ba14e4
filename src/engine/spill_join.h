#ifndef DBS3_ENGINE_SPILL_JOIN_H_
#define DBS3_ENGINE_SPILL_JOIN_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/operator_logic.h"
#include "storage/relation.h"
#include "storage/spill.h"
#include "storage/temp_index.h"

namespace dbs3 {

/// The build side of an indexed join, kept per instance and owned by both
/// paper join nodes (TriggeredJoinLogic, PipelinedJoinLogic). It charges
/// the query's MemoryQuota and spills only when a charge is refused (per
/// *Design Trade-offs for a Robust Dynamic Hybrid Hash Join*): the data
/// and the budget decide at run time, not the planner.
///
/// Build: on an instance's first build, one charge of the inner fragment's
/// whole cardinality. Granted (always, under an unbounded quota, which
/// still tracks the working set; nothing is charged without a quota), the
/// instance indexes the fragment in place — one TempIndex, the resident
/// path. Refused, the fragment is hash-partitioned into kFanout partitions
/// instead, copied one partition after another, each retained tuple
/// charged one unit; when a charge fails the largest in-memory partition is
/// spilled (tuples streamed to an unlinked temp file, units and row blocks
/// released) and the build continues — the dynamic part: how many
/// partitions stay memory-resident is decided by the data.
///
/// Probe (refused path): tuples route to their partition by the same hash.
/// In-memory partitions probe and emit immediately; probes of spilled
/// partitions are deferred to the partition's probe file.
///
/// Finish: each spilled build/probe file pair is joined with bounded
/// memory — the build side reloads under quota if it now fits; otherwise
/// it recursively repartitions with a level-salted hash; at the recursion
/// cap (or when a level fails to split) a block nested-loop pass joins
/// quota-sized build batches against rescans of the probe file, which
/// terminates under any skew. Then the instance's build is dropped and its
/// charges returned. Every path emits probe columns then inner columns, so
/// the output rows do not depend on which path ran.
class HashJoinBuild {
 public:
  HashJoinBuild(const Relation* inner, size_t inner_column,
                size_t probe_column);
  /// Returns leftover charges and closes spill files: the cancel path,
  /// where the executor withholds OnFinish (the bound quota outlives the
  /// plan's logics by contract).
  ~HashJoinBuild();

  HashJoinBuild(const HashJoinBuild&) = delete;
  HashJoinBuild& operator=(const HashJoinBuild&) = delete;

  /// OperatorLogic::BindExecution's resources (quota, spill, cancel).
  void Bind(const ExecResources& resources) { resources_ = resources; }

  /// Releases any previous execution's state and sizes `num_instances`
  /// empty builds (OperatorLogic::Prepare).
  void Reset(size_t num_instances);

  /// Builds `instance` once (thread-safe; later calls return the same
  /// outcome): the resident index over the inner fragment when the charge
  /// was granted, nullptr when it was refused and the build partitioned.
  const TempIndex* Build(size_t instance);

  /// Refused path: joins each probe tuple against its partition, or defers
  /// it to the partition's probe file when that partition spilled.
  void ProbePartitions(size_t instance, std::span<const Tuple> probes,
                       Emitter* out);

  /// Joins the deferred probes, then drops the instance's build and
  /// returns its charges. Concurrent calls for different instances are
  /// safe (the triggered join finishes inside OnTrigger).
  void Finish(size_t instance, Emitter* out);

  /// First spill IO error any instance hit.
  Status error() const;

 private:
  /// Build-side hash partitions per instance (and per recursion level).
  static constexpr size_t kFanout = 8;
  /// Recursion levels before an unsplittable partition (a single hot key
  /// defeats every rehash) falls back to the block nested-loop pass.
  static constexpr size_t kMaxRecursion = 6;

  /// One build partition of a refused instance. `spilled` is decided during
  /// the build (inside the instance's call_once) and read-only afterwards;
  /// probe-file appends are the only post-build mutation and take the
  /// instance lock.
  struct Partition {
    Fragment build;                    ///< In-memory build rows.
    std::unique_ptr<TempIndex> index;  ///< Over `build`, post-build.
    bool spilled = false;
    std::unique_ptr<SpillFile> build_file;
    std::unique_ptr<SpillFile> probe_file;
    uint64_t charged = 0;  ///< Quota units held by `build`.
  };

  struct InstanceState {
    Mutex mu{"HashJoinBuild::instance_mu"};
    std::once_flag built;
    /// Granted path, set inside the call_once: the index over the inner
    /// fragment and the units its one charge holds.
    std::unique_ptr<TempIndex> resident;
    uint64_t resident_charged = 0;
    /// Refused path, sized/filled inside the call_once; structurally
    /// immutable after.
    std::vector<Partition> parts;
    Status error GUARDED_BY(mu);
  };

  /// The partition of `v` at recursion `level`. Level-salted and remixed so
  /// it is independent of the upstream repartition edge's hash (which
  /// already constrained every key this instance sees).
  size_t PartitionOf(const Value& v, size_t level) const;

  void BuildPartitions(size_t instance);
  /// Spills the largest in-memory partition with build rows; when none has
  /// any, marks `current` itself spilled. Returns non-OK on IO failure.
  Status SpillVictim(InstanceState& state, size_t current);
  Status SpillPartition(Partition& part);

  /// Drops the instance's build state and returns every unit it holds.
  void Release(InstanceState& state);

  void RecordError(InstanceState& state, Status status) EXCLUDES(state.mu);

  /// Joins one spilled build/probe file pair with bounded memory.
  Status ProcessSpilledPair(size_t instance, SpillFile* build_file,
                            SpillFile* probe_file, size_t level,
                            Emitter* out);
  /// Streams `probe_file` against an in-memory build fragment + index.
  Status StreamProbeFile(size_t instance, SpillFile* probe_file,
                         const Fragment& build, const TempIndex& index,
                         Emitter* out);
  /// Splits the pair into kFanout sub-pairs at `level` and recurses.
  Status Repartition(size_t instance, SpillFile* build_file,
                     SpillFile* probe_file, size_t level, Emitter* out);
  /// Quota-sized build batches, each joined against a full probe rescan.
  Status BlockNestedLoop(size_t instance, SpillFile* build_file,
                         SpillFile* probe_file, Emitter* out);

  const Relation* inner_;
  size_t inner_column_;
  size_t probe_column_;
  ExecResources resources_;
  std::vector<std::unique_ptr<InstanceState>> instances_;
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_SPILL_JOIN_H_

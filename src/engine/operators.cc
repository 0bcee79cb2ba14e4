#include "engine/operators.h"

#include <algorithm>
#include <cassert>

#include "common/arena.h"
#include "engine/vector/column_batch.h"
#include "engine/vector/kernels.h"

namespace dbs3 {

namespace {

/// Batched indexed join probe: hashes the probe-key column in one pass,
/// resolves every first match with the index's prefetching batch probe,
/// then walks each chain emitting probe⋈match concatenations. Probe rows
/// are processed in order and chains are ascending, so output order matches
/// the per-row loop exactly. Scratch lives in the per-thread arena.
void BatchProbeJoin(const TempIndex& index, std::span<const Tuple> probe,
                    size_t probe_column, const std::vector<Tuple>& inner,
                    size_t instance, Emitter* out) {
  Arena& arena = ThreadLocalKernelArena();
  for (size_t base = 0; base < probe.size(); base += kFragmentTile) {
    const size_t count = std::min(kFragmentTile, probe.size() - base);
    ScopedArena scope(&arena);
    ColumnBatch batch(probe.subspan(base, count), &arena);
    uint32_t* first = arena.AllocateArrayOf<uint32_t>(count);
    const int64_t* int_keys =
        index.int_keyed() ? batch.Ints(probe_column) : nullptr;
    if (int_keys != nullptr) {
      // Int keys both sides: the gathered column doubles as the probe
      // keys, bucket indexes are computed inside the probe (no hash
      // array), and every confirm is a flat compare against the index's
      // inline key cache.
      index.ProbeKeys(std::span<const int64_t>(int_keys, count), first);
      for (size_t i = 0; i < count; ++i) {
        for (uint32_t pos = first[i]; pos != TempIndex::kNone;
             pos = index.NextMatchAfter(pos, int_keys[i])) {
          out->EmitConcat(instance, probe[base + i], inner[pos]);
        }
      }
      continue;
    }
    const uint64_t* hashes = HashColumn(batch, probe_column, &arena);
    const Value* const* keys = batch.Values(probe_column);
    index.ProbeHashed(std::span<const uint64_t>(hashes, count), keys, first);
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t pos = first[i]; pos != TempIndex::kNone;
           pos = index.NextMatchAfter(pos, hashes[i], *keys[i])) {
        out->EmitConcat(instance, probe[base + i], inner[pos]);
      }
    }
  }
}

/// Joins `probes` against `instance`'s build side: the resident index when
/// its charge was granted (the batched probe for chunks of kMinBatchRows
/// or more, the row loop below that), the partitioned build when it was
/// refused. Probe() walks the index's preallocated chains and EmitConcat
/// writes into a recycled output slot, so the resident path allocates
/// nothing. Returns true when the build was refused.
bool ProbeBuild(HashJoinBuild& build, size_t instance,
                std::span<const Tuple> probes, size_t probe_column,
                const std::vector<Tuple>& inner, Emitter* out) {
  const TempIndex* index = build.Build(instance);
  if (index == nullptr) {
    build.ProbePartitions(instance, probes, out);
    return true;
  }
  if (probes.size() >= kMinBatchRows) {
    BatchProbeJoin(*index, probes, probe_column, inner, instance, out);
  } else {
    for (const Tuple& probe : probes) {
      for (uint32_t i : index->Probe(probe.at(probe_column))) {
        out->EmitConcat(instance, probe, inner[i]);
      }
    }
  }
  return false;
}

}  // namespace

Predicate ColumnEquals(size_t column, Value value) {
  const uint32_t col = static_cast<uint32_t>(column);
  if (value.is_int()) return PredExpr::IntEquals(col, value.AsInt());
  return PredExpr::StringEquals(col, value.AsString());
}

Predicate ColumnBetween(size_t column, int64_t lo, int64_t hi) {
  return PredExpr::IntBetween(static_cast<uint32_t>(column), lo, hi);
}

Predicate MatchAll() { return PredExpr::All(); }

const char* JoinAlgorithmName(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop:
      return "nested-loop";
    case JoinAlgorithm::kHash:
      return "hash";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Filter

FilterLogic::FilterLogic(const Relation* input, Predicate predicate,
                         double selectivity)
    : input_(input),
      predicate_(std::move(predicate)),
      selectivity_(selectivity) {}

NodeEstimate FilterLogic::Estimate(const CostModel& cost_model,
                                   double input_tuples) const {
  (void)input_tuples;  // Triggered: no data activations.
  NodeEstimate e;
  const std::vector<uint64_t> cards = input_->FragmentCardinalities();
  e.per_instance_work.reserve(cards.size());
  for (uint64_t c : cards) {
    const double w = static_cast<double>(c) * cost_model.scan_tuple;
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = static_cast<double>(cards.size());
  e.output_tuples =
      static_cast<double>(input_->cardinality()) * selectivity_;
  return e;
}

Status FilterLogic::Prepare(size_t num_instances) {
  if (num_instances > input_->degree()) {
    return Status::InvalidArgument(
        "filter has " + std::to_string(num_instances) +
        " instances but input relation '" + input_->name() + "' has only " +
        std::to_string(input_->degree()) + " fragments");
  }
  return predicate_.Validate();
}

void FilterLogic::OnTrigger(size_t instance, Emitter* out) {
  // One tile at a time: view the tile as columns, select its survivors,
  // emit them. All scratch lives in the per-thread arena — zero
  // steady-state heap traffic. Tiles run in fragment order and selections
  // are ascending, so rows leave in fragment order.
  const std::vector<Tuple>& rows = input_->fragment(instance).tuples;
  Arena& arena = ThreadLocalKernelArena();
  for (size_t base = 0; base < rows.size(); base += kFragmentTile) {
    const size_t count = std::min(kFragmentTile, rows.size() - base);
    ScopedArena scope(&arena);
    ColumnBatch batch(std::span<const Tuple>(rows.data() + base, count),
                      &arena);
    uint32_t* sel = arena.AllocateArrayOf<uint32_t>(count);
    const size_t kept = SelectRows(predicate_, batch, sel);
    for (size_t i = 0; i < kept; ++i) {
      out->EmitCopy(instance, rows[base + sel[i]]);
    }
  }
}

// -------------------------------------------------------------- Transmit

TransmitLogic::TransmitLogic(const Relation* input) : input_(input) {}

NodeEstimate TransmitLogic::Estimate(const CostModel& cost_model,
                                     double input_tuples) const {
  (void)input_tuples;  // Triggered: no data activations.
  NodeEstimate e;
  const std::vector<uint64_t> cards = input_->FragmentCardinalities();
  const double per_tuple = cost_model.scan_tuple + cost_model.transfer_tuple;
  e.per_instance_work.reserve(cards.size());
  for (uint64_t c : cards) {
    const double w = static_cast<double>(c) * per_tuple;
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = static_cast<double>(cards.size());
  e.output_tuples = static_cast<double>(input_->cardinality());
  return e;
}

Status TransmitLogic::Prepare(size_t num_instances) {
  if (num_instances > input_->degree()) {
    return Status::InvalidArgument(
        "transmit has " + std::to_string(num_instances) +
        " instances but input relation '" + input_->name() + "' has only " +
        std::to_string(input_->degree()) + " fragments");
  }
  return Status::OK();
}

void TransmitLogic::OnTrigger(size_t instance, Emitter* out) {
  const Fragment& frag = input_->fragment(instance);
  for (const Tuple& t : frag.tuples) out->EmitCopy(instance, t);
}

// -------------------------------------------------------- TriggeredJoin

TriggeredJoinLogic::TriggeredJoinLogic(const Relation* outer,
                                       size_t outer_column,
                                       const Relation* inner,
                                       size_t inner_column,
                                       JoinAlgorithm algorithm)
    : outer_(outer),
      outer_column_(outer_column),
      inner_(inner),
      inner_column_(inner_column),
      algorithm_(algorithm),
      build_(inner, inner_column, outer_column) {}

void TriggeredJoinLogic::BindExecution(const ExecResources& resources) {
  build_.Bind(resources);
}

NodeEstimate TriggeredJoinLogic::Estimate(const CostModel& cost_model,
                                          double input_tuples) const {
  (void)input_tuples;  // Triggered: no data activations.
  NodeEstimate e;
  const std::vector<uint64_t> outer = outer_->FragmentCardinalities();
  const std::vector<uint64_t> inner = inner_->FragmentCardinalities();
  const size_t m = std::min(outer.size(), inner.size());
  e.per_instance_work.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    double w = 0.0;
    if (algorithm_ == JoinAlgorithm::kNestedLoop) {
      w = static_cast<double>(outer[i]) * static_cast<double>(inner[i]) *
          cost_model.nl_pair;
    } else {
      w = static_cast<double>(inner[i]) * cost_model.index_build_tuple +
          static_cast<double>(outer[i]) * cost_model.index_probe;
    }
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = static_cast<double>(m);
  // Join-cardinality estimate: one match per outer tuple (the foreign-key
  // shape of the experiment databases).
  e.output_tuples = static_cast<double>(outer_->cardinality());
  return e;
}

Status TriggeredJoinLogic::Prepare(size_t num_instances) {
  if (outer_->degree() != inner_->degree()) {
    return Status::FailedPrecondition(
        "IdealJoin requires co-partitioned operands: '" + outer_->name() +
        "' has " + std::to_string(outer_->degree()) + " fragments, '" +
        inner_->name() + "' has " + std::to_string(inner_->degree()));
  }
  if (num_instances != outer_->degree()) {
    return Status::InvalidArgument(
        "triggered join must have one instance per fragment (" +
        std::to_string(outer_->degree()) + "), got " +
        std::to_string(num_instances));
  }
  // Nested loop keeps no build state and charges nothing.
  if (algorithm_ != JoinAlgorithm::kNestedLoop) build_.Reset(num_instances);
  return Status::OK();
}

void TriggeredJoinLogic::OnTrigger(size_t instance, Emitter* out) {
  const Fragment& outer = outer_->fragment(instance);
  const Fragment& inner = inner_->fragment(instance);
  switch (algorithm_) {
    case JoinAlgorithm::kNestedLoop:
      for (const Tuple& r : outer.tuples) {
        const Value& key = r.at(outer_column_);
        for (const Tuple& s : inner.tuples) {
          if (s.at(inner_column_) == key) out->EmitConcat(instance, r, s);
        }
      }
      break;
    case JoinAlgorithm::kHash:
      // Build on the fly over the inner fragment and probe with the outer;
      // then join what was deferred and return the instance's charges —
      // now, not at OnFinish.
      ProbeBuild(build_, instance, outer.tuples, outer_column_, inner.tuples,
                 out);
      build_.Finish(instance, out);
      break;
  }
}

void TriggeredJoinLogic::OnFinish(size_t instance, Emitter* out) {
  (void)instance;
  (void)out;
  build_.PublishMetrics();
}

Status TriggeredJoinLogic::error() const { return build_.error(); }

// -------------------------------------------------------- PipelinedJoin

PipelinedJoinLogic::PipelinedJoinLogic(const Relation* inner,
                                       size_t inner_column,
                                       size_t probe_column,
                                       JoinAlgorithm algorithm)
    : inner_(inner),
      inner_column_(inner_column),
      probe_column_(probe_column),
      algorithm_(algorithm),
      build_(inner, inner_column, probe_column) {}

void PipelinedJoinLogic::BindExecution(const ExecResources& resources) {
  build_.Bind(resources);
}

NodeEstimate PipelinedJoinLogic::Estimate(const CostModel& cost_model,
                                          double input_tuples) const {
  NodeEstimate e;
  const std::vector<uint64_t> inner = inner_->FragmentCardinalities();
  const size_t m = inner.size();
  const double probes_per_instance =
      m > 0 ? input_tuples / static_cast<double>(m) : 0.0;
  e.per_instance_work.reserve(m);
  for (uint64_t c : inner) {
    double w = 0.0;
    if (algorithm_ == JoinAlgorithm::kNestedLoop) {
      // Each probe scans the whole inner fragment.
      w = probes_per_instance * static_cast<double>(c) * cost_model.nl_pair;
    } else {
      // One-time build amortized into the instance, constant-ish probes.
      w = static_cast<double>(c) * cost_model.index_build_tuple +
          probes_per_instance * cost_model.index_probe;
    }
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = input_tuples;
  e.output_tuples = input_tuples;  // One match per probe (foreign-key shape).
  return e;
}

Status PipelinedJoinLogic::Prepare(size_t num_instances) {
  if (num_instances > inner_->degree()) {
    return Status::InvalidArgument(
        "pipelined join has " + std::to_string(num_instances) +
        " instances but inner relation '" + inner_->name() + "' has only " +
        std::to_string(inner_->degree()) + " fragments");
  }
  // Nested loop keeps no build state and charges nothing.
  if (algorithm_ != JoinAlgorithm::kNestedLoop) build_.Reset(num_instances);
  return Status::OK();
}

void PipelinedJoinLogic::OnData(size_t instance, Tuple tuple, Emitter* out) {
  OnDataBatch(instance, std::span<Tuple>(&tuple, 1), out);
}

void PipelinedJoinLogic::OnDataBatch(size_t instance,
                                     std::span<Tuple> tuples, Emitter* out) {
  // Per-activation setup hoisted out of the probe loop: the fragment
  // reference, the algorithm dispatch, and (for indexed joins) the
  // once-flag-guarded index resolution happen once per chunk.
  const Fragment& inner = inner_->fragment(instance);
  switch (algorithm_) {
    case JoinAlgorithm::kNestedLoop:
      for (const Tuple& probe : tuples) {
        const Value& key = probe.at(probe_column_);
        for (const Tuple& s : inner.tuples) {
          if (s.at(inner_column_) == key) out->EmitConcat(instance, probe, s);
        }
      }
      break;
    case JoinAlgorithm::kHash:
      if (ProbeBuild(build_, instance,
                     std::span<const Tuple>(tuples.data(), tuples.size()),
                     probe_column_, inner.tuples, out)) {
        // A refused build has consumed these probes the way a store does:
        // each was joined against a resident partition or encoded into a
        // spill file, and nothing reads it again. Releasing the rows'
        // storage sends the chunk back to the pool empty. Kept, it would
        // sit in the pool across queries and be freed slot by slot by later
        // ones, scattering the survivors over row blocks (DESIGN §12).
        for (Tuple& probe : tuples) probe = Tuple();
      }
      break;
  }
}

void PipelinedJoinLogic::OnFinish(size_t instance, Emitter* out) {
  if (algorithm_ == JoinAlgorithm::kNestedLoop) return;
  build_.Finish(instance, out);
  build_.PublishMetrics();
}

Status PipelinedJoinLogic::error() const { return build_.error(); }

// ------------------------------------------------------------------ Store

StoreLogic::StoreLogic(Relation* result) : result_(result) {}

NodeEstimate StoreLogic::Estimate(const CostModel& cost_model,
                                  double input_tuples) const {
  NodeEstimate e;
  e.total_work = input_tuples * cost_model.store_tuple;
  e.activations = input_tuples;
  e.output_tuples = 0.0;
  return e;
}

Status StoreLogic::Prepare(size_t num_instances) {
  if (num_instances > result_->degree()) {
    return Status::InvalidArgument(
        "store has " + std::to_string(num_instances) +
        " instances but result relation '" + result_->name() + "' has only " +
        std::to_string(result_->degree()) + " fragments");
  }
  fragment_mu_.clear();
  for (size_t i = 0; i < num_instances; ++i) {
    fragment_mu_.push_back(std::make_unique<Mutex>("StoreLogic::fragment_mu"));
  }
  return Status::OK();
}

void StoreLogic::OnData(size_t instance, Tuple tuple, Emitter* out) {
  (void)out;
  MutexLock lock(fragment_mu_[instance].get());
  result_->AppendToFragment(instance, std::move(tuple));
}

void StoreLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                             Emitter* out) {
  (void)out;
  MutexLock lock(fragment_mu_[instance].get());
  for (Tuple& t : tuples) {
    result_->AppendToFragment(instance, std::move(t));
  }
}

// -------------------------------------------------------- PipelinedFilter

PipelinedFilterLogic::PipelinedFilterLogic(Predicate predicate,
                                           double selectivity)
    : predicate_(std::move(predicate)), selectivity_(selectivity) {}

Status PipelinedFilterLogic::Prepare(size_t num_instances) {
  (void)num_instances;
  return predicate_.Validate();
}

void PipelinedFilterLogic::OnData(size_t instance, Tuple tuple,
                                  Emitter* out) {
  OnDataBatch(instance, std::span<Tuple>(&tuple, 1), out);
}

void PipelinedFilterLogic::OnDataBatch(size_t instance,
                                       std::span<Tuple> tuples,
                                       Emitter* out) {
  Arena& arena = ThreadLocalKernelArena();
  ScopedArena scope(&arena);
  ColumnBatch batch(std::span<const Tuple>(tuples.data(), tuples.size()),
                    &arena);
  uint32_t* sel = arena.AllocateArrayOf<uint32_t>(tuples.size());
  const size_t kept = SelectRows(predicate_, batch, sel);
  for (size_t i = 0; i < kept; ++i) {
    out->Emit(instance, std::move(tuples[sel[i]]));
  }
}

NodeEstimate PipelinedFilterLogic::Estimate(const CostModel& cost_model,
                                            double input_tuples) const {
  NodeEstimate e;
  e.total_work = input_tuples * cost_model.scan_tuple;
  e.activations = input_tuples;
  e.output_tuples = input_tuples * selectivity_;
  return e;
}

// ---------------------------------------------------------------- Project

ProjectLogic::ProjectLogic(std::vector<size_t> columns)
    : columns_(std::move(columns)) {}

void ProjectLogic::OnData(size_t instance, Tuple tuple, Emitter* out) {
  // EmitSelect writes the selected columns straight into a recycled output
  // slot; no output tuple is materialized here.
  out->EmitSelect(instance, tuple, columns_);
}

void ProjectLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                               Emitter* out) {
  const std::span<const size_t> columns(columns_);
  for (const Tuple& t : tuples) out->EmitSelect(instance, t, columns);
}

NodeEstimate ProjectLogic::Estimate(const CostModel& cost_model,
                                    double input_tuples) const {
  NodeEstimate e;
  e.total_work = input_tuples * cost_model.scan_tuple;
  e.activations = input_tuples;
  e.output_tuples = input_tuples;
  return e;
}

// -------------------------------------------------------------------- Map

MapLogic::MapLogic(std::function<void(const Tuple&, Tuple*)> fn)
    : fn_(std::move(fn)) {}

void MapLogic::OnData(size_t instance, Tuple tuple, Emitter* out) {
  OnDataBatch(instance, std::span<Tuple>(&tuple, 1), out);
}

void MapLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                           Emitter* out) {
  // The scratch row keeps its value storage across calls (AssignFrom /
  // AssignConcat overwrite live slots), and EmitCopy assigns it into a
  // recycled chunk slot — steady state constructs no tuples.
  thread_local Tuple scratch;
  for (const Tuple& t : tuples) {
    fn_(t, &scratch);
    out->EmitCopy(instance, scratch);
  }
}

}  // namespace dbs3

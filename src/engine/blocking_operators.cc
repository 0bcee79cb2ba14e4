#include "engine/blocking_operators.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.h"
#include "common/memory_quota.h"

namespace dbs3 {

namespace {

/// Group-by's spill-partition salt; distinct from the join's so co-planned
/// operators never correlate their partition placement.
constexpr uint64_t kGroupSpillSalt = 0x6a09e667f3bcc909ull;

}  // namespace

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "unknown";
}

// ---------------------------------------------------------------- GroupBy

GroupByLogic::GroupByLogic(size_t group_column,
                           std::vector<AggSpec> aggregates)
    : group_column_(group_column), aggregates_(std::move(aggregates)) {}

GroupByLogic::~GroupByLogic() {
  // A cancelled run skips OnFinish; the quota outlives the logics by
  // contract, so leftover charges are returned here.
  if (resources_.quota == nullptr) return;
  for (const auto& state : instances_) {
    MutexLock lock(&state->mu);
    resources_.quota->Release(state->charged);
    state->charged = 0;
  }
}

void GroupByLogic::BindExecution(const ExecResources& resources) {
  resources_ = resources;
}

Status GroupByLogic::Prepare(size_t num_instances) {
  if (resources_.quota != nullptr) {
    for (const auto& state : instances_) {
      MutexLock lock(&state->mu);
      resources_.quota->Release(state->charged);
      state->charged = 0;
    }
  }
  instances_.clear();
  for (size_t i = 0; i < num_instances; ++i) {
    instances_.push_back(std::make_unique<InstanceState>());
  }
  return Status::OK();
}

Status GroupByLogic::error() const {
  for (const auto& state : instances_) {
    MutexLock lock(&state->mu);
    if (!state->error.ok()) return state->error;
  }
  return Status::OK();
}

size_t GroupByLogic::PartitionOf(const Value& key, size_t level) const {
  const uint64_t salt =
      kGroupSpillSalt + static_cast<uint64_t>(level) * 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>(HashInt64(HashCombine(key.Hash(), salt)) %
                             kSpillFanout);
}

void GroupByLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                               Emitter* out) {
  (void)out;
  InstanceState& state = *instances_[instance];
  MutexLock lock(&state.mu);
  for (const Tuple& t : tuples) AccumulateLocked(state, t);
}

bool GroupByLogic::ChargeNewGroupLocked(InstanceState& state) {
  MemoryQuota* quota = resources_.quota;
  if (quota == nullptr) return true;
  if (!quota->TryCharge(1)) {
    const Status spilled = SpillGroupsLocked(state);
    if (!spilled.ok()) {
      if (state.error.ok()) state.error = spilled;
      return false;
    }
    // The table is empty now; a second failure means other operators hold
    // the whole budget. One forced unit keeps this instance progressing
    // (bounded overshoot: at most one group per instance at a time).
    if (!quota->TryCharge(1)) quota->ForceCharge(1);
  }
  ++state.charged;
  return true;
}

Status GroupByLogic::SpillGroupsLocked(InstanceState& state) {
  if (state.groups.empty()) return Status::OK();
  if (state.spill_files.empty()) state.spill_files.resize(kSpillFanout);
  for (const auto& [key, group] : state.groups) {
    const size_t p = PartitionOf(key, 0);
    if (state.spill_files[p] == nullptr) {
      DBS3_ASSIGN_OR_RETURN(state.spill_files[p],
                            SpillFile::Create(resources_.spill));
    }
    DBS3_RETURN_IF_ERROR(
        state.spill_files[p]->Append(EncodePartial(key, group)));
  }
  state.groups.clear();
  if (resources_.quota != nullptr) resources_.quota->Release(state.charged);
  state.charged = 0;
  if (resources_.spill != nullptr) {
    resources_.spill->groupby_flushes.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Tuple GroupByLogic::EncodePartial(const Value& key,
                                  const GroupState& group) const {
  // [key, count, (accumulator, seen)*] — mergeable by MergePartial, which
  // makes re-aggregation associative across any spill/split order.
  RowValues values;
  values.reserve(2 + 2 * aggregates_.size());
  values.push_back(key);
  values.emplace_back(group.count);
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    values.emplace_back(a < group.values.size() ? group.values[a] : 0);
    values.emplace_back(
        static_cast<int64_t>(a < group.seen.size() && group.seen[a] ? 1 : 0));
  }
  return Tuple(std::move(values));
}

void GroupByLogic::MergePartial(const Tuple& row, GroupState* group) const {
  if (group->values.empty()) {
    group->values.assign(aggregates_.size(), 0);
    group->seen.assign(aggregates_.size(), false);
  }
  group->count += row.at(1).AsInt();
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const int64_t acc = row.at(2 + 2 * a).AsInt();
    const bool seen = row.at(3 + 2 * a).AsInt() != 0;
    switch (aggregates_[a].kind) {
      case AggKind::kCount:
      case AggKind::kSum:
        group->values[a] += acc;
        break;
      case AggKind::kMin:
        if (seen) {
          group->values[a] =
              group->seen[a] ? std::min(group->values[a], acc) : acc;
          group->seen[a] = true;
        }
        break;
      case AggKind::kMax:
        if (seen) {
          group->values[a] =
              group->seen[a] ? std::max(group->values[a], acc) : acc;
          group->seen[a] = true;
        }
        break;
    }
  }
}

void GroupByLogic::EmitGroup(size_t instance, const Value& key,
                             const GroupState& group, Emitter* out) const {
  RowValues values;
  values.reserve(1 + aggregates_.size());
  values.push_back(key);
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const AggKind kind = aggregates_[a].kind;
    const bool extremum = kind == AggKind::kMin || kind == AggKind::kMax;
    if (extremum && (a >= group.seen.size() || !group.seen[a])) {
      // No int ever reached this min/max: the empty string, which Value's
      // total order places above every int, so it cannot shadow a real
      // extremum (previously this emitted a spurious 0).
      values.emplace_back(std::string());
    } else {
      values.emplace_back(a < group.values.size() ? group.values[a] : 0);
    }
  }
  out->Emit(instance, Tuple(std::move(values)));
}

void GroupByLogic::AccumulateLocked(InstanceState& state,
                                    const Tuple& tuple) {
  if (!state.error.ok()) return;  // Failed instance: stop accumulating.
  auto it = state.groups.find(tuple.at(group_column_));
  if (it == state.groups.end()) {
    if (!ChargeNewGroupLocked(state)) return;
    it = state.groups.emplace(tuple.at(group_column_), GroupState{}).first;
  }
  GroupState& group = it->second;
  if (group.values.empty()) {
    group.values.assign(aggregates_.size(), 0);
    group.seen.assign(aggregates_.size(), false);
  }
  ++group.count;
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    const AggSpec& spec = aggregates_[a];
    if (spec.kind == AggKind::kCount) {
      ++group.values[a];
      continue;
    }
    const Value& v = tuple.at(spec.column);
    if (!v.is_int()) continue;  // Numeric aggregates skip string cells.
    const int64_t x = v.AsInt();
    switch (spec.kind) {
      case AggKind::kSum:
        group.values[a] += x;
        break;
      case AggKind::kMin:
        group.values[a] = group.seen[a] ? std::min(group.values[a], x) : x;
        break;
      case AggKind::kMax:
        group.values[a] = group.seen[a] ? std::max(group.values[a], x) : x;
        break;
      case AggKind::kCount:
        break;
    }
    group.seen[a] = true;
  }
}

void GroupByLogic::OnFinish(size_t instance, Emitter* out) {
  InstanceState& state = *instances_[instance];
  // Take ownership of the instance's table / partition files under the
  // lock, then emit without it: Emit can block on downstream back-pressure
  // and holding an instance mutex there is the engine's canonical deadlock
  // shape (dbs3-no-lock-across-emit). OnFinish runs sequentially
  // post-drain, but the invariant is enforced uniformly.
  std::map<Value, GroupState> groups;
  std::vector<std::unique_ptr<SpillFile>> files;
  uint64_t charged = 0;
  Status status;
  {
    MutexLock lock(&state.mu);
    bool spilled = false;
    for (const auto& file : state.spill_files) {
      if (file != nullptr) spilled = true;
    }
    if (spilled) {
      // Flush the residual table so each partition file holds *all*
      // partial rows of its keys; the unlocked merge below re-aggregates
      // partition by partition (global phase of two-phase aggregation).
      // SpillGroupsLocked releases the flushed table's units itself.
      status = SpillGroupsLocked(state);
      files.swap(state.spill_files);
    } else {
      // Pure in-memory fast path: emit straight out of the (moved) table.
      groups.swap(state.groups);
      charged = state.charged;
      state.charged = 0;
    }
    state.groups.clear();
    state.spill_files.clear();
  }
  if (status.ok()) {
    for (const auto& [key, group] : groups) {
      EmitGroup(instance, key, group, out);
    }
    for (auto& file : files) {
      if (file == nullptr) continue;
      if (resources_.cancel.ShouldStop()) break;
      status = MergeSpilledFile(instance, file.get(), 1, out);
      file.reset();
      if (!status.ok()) break;
    }
  }
  groups.clear();
  if (resources_.quota != nullptr) resources_.quota->Release(charged);
  if (!status.ok()) {
    MutexLock lock(&state.mu);
    if (state.error.ok()) state.error = status;
  }
}

Status GroupByLogic::MergeSpilledFile(size_t instance, SpillFile* file,
                                      size_t level, Emitter* out) {
  MemoryQuota* quota = resources_.quota;
  DBS3_RETURN_IF_ERROR(file->Rewind());
  std::map<Value, GroupState> merged;
  // The guard owns the merged table's units; every error return in the
  // chunk loop below releases them on unwind (the previous hand-rolled
  // ledger leaked the charge across those exits — dbs3-quota-pairing).
  ChargeGuard charge(quota);
  bool overflow = false;
  std::vector<std::unique_ptr<SpillFile>> subs;

  auto route_to_sub = [&](const Tuple& row) -> Status {
    const size_t p = PartitionOf(row.at(0), level);
    if (subs[p] == nullptr) {
      DBS3_ASSIGN_OR_RETURN(subs[p], SpillFile::Create(resources_.spill));
    }
    return subs[p]->Append(row);
  };

  std::vector<Tuple> chunk;
  bool cancelled = false;
  while (!cancelled) {
    if (resources_.cancel.ShouldStop()) {
      cancelled = true;
      break;
    }
    DBS3_ASSIGN_OR_RETURN(const bool more, file->ReadChunk(&chunk));
    if (!more) break;
    for (const Tuple& row : chunk) {
      if (overflow) {
        DBS3_RETURN_IF_ERROR(route_to_sub(row));
        continue;
      }
      auto it = merged.find(row.at(0));
      if (it == merged.end()) {
        bool fits = charge.TryAdd(1);
        if (!fits && level >= kMaxMergeLevels) {
          // Merging a partition only ever shrinks it, so by this depth a
          // still-overflowing partition is a quota starved by the rest of
          // the plan; force the residual so the merge terminates.
          charge.ForceAdd(1);
          fits = true;
        }
        if (!fits) {
          // Switch to split mode: dump what merged so far as partial rows
          // into level-salted sub-partitions and stream the rest through.
          overflow = true;
          if (resources_.spill != nullptr) {
            resources_.spill->recursions.fetch_add(1,
                                                   std::memory_order_relaxed);
          }
          subs.resize(kSpillFanout);
          for (const auto& [key, group] : merged) {
            DBS3_RETURN_IF_ERROR(route_to_sub(EncodePartial(key, group)));
          }
          merged.clear();
          charge.ReleaseNow();
          DBS3_RETURN_IF_ERROR(route_to_sub(row));
          continue;
        }
        it = merged.emplace(row.at(0), GroupState{}).first;
      }
      MergePartial(row, &it->second);
    }
  }
  if (!overflow && !cancelled) {
    for (const auto& [key, group] : merged) {
      EmitGroup(instance, key, group, out);
    }
  }
  // Return the budget before recursing into sub-partitions (which merge
  // under the same quota).
  charge.ReleaseNow();
  if (cancelled || !overflow) return Status::OK();
  for (const auto& sub : subs) {
    if (sub == nullptr) continue;
    if (resources_.cancel.ShouldStop()) return Status::OK();
    DBS3_RETURN_IF_ERROR(MergeSpilledFile(instance, sub.get(), level + 1, out));
  }
  return Status::OK();
}

NodeEstimate GroupByLogic::Estimate(const CostModel& cost_model,
                                    double input_tuples) const {
  NodeEstimate e;
  e.total_work = input_tuples * cost_model.index_build_tuple;
  e.activations = input_tuples;
  // Without statistics on the grouping column, assume moderate reduction.
  e.output_tuples = input_tuples * 0.1;
  return e;
}

// ------------------------------------------------------------------- Sort

SortLogic::SortLogic(size_t column, SortOrder order)
    : column_(column), order_(order) {}

SortLogic::~SortLogic() {
  if (resources_.quota == nullptr) return;
  for (const auto& state : instances_) {
    MutexLock lock(&state->mu);
    resources_.quota->Release(state->charged);
    state->charged = 0;
  }
}

void SortLogic::BindExecution(const ExecResources& resources) {
  resources_ = resources;
}

Status SortLogic::Prepare(size_t num_instances) {
  if (resources_.quota != nullptr) {
    for (const auto& state : instances_) {
      MutexLock lock(&state->mu);
      resources_.quota->Release(state->charged);
      state->charged = 0;
    }
  }
  instances_.clear();
  for (size_t i = 0; i < num_instances; ++i) {
    instances_.push_back(std::make_unique<InstanceState>());
  }
  return Status::OK();
}

Status SortLogic::error() const {
  for (const auto& state : instances_) {
    MutexLock lock(&state->mu);
    if (!state->error.ok()) return state->error;
  }
  return Status::OK();
}

void SortLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                            Emitter* out) {
  (void)out;
  InstanceState& state = *instances_[instance];
  MutexLock lock(&state.mu);
  for (Tuple& tuple : tuples) {
    if (!state.error.ok()) return;  // Already over budget: drop quietly.
    if (resources_.quota != nullptr && !resources_.quota->TryCharge(1)) {
      state.error = Status::ResourceExhausted(
          "sort buffer exceeded the query's declared memory budget "
          "(sort has no spill path; raise memory_units)");
      resources_.quota->Release(state.charged);
      state.charged = 0;
      std::vector<Tuple>().swap(state.rows);
      return;
    }
    ++state.charged;
    // NOLINTNEXTLINE(dbs3-no-alloc-in-hot-path) // sort is a blocking operator: it materializes its input by design, and the unit charged above is the budget gate for this growth
    state.rows.push_back(std::move(tuple));
  }
}

void SortLogic::OnFinish(size_t instance, Emitter* out) {
  InstanceState& state = *instances_[instance];
  // Move the buffered rows out under the lock and emit without it: Emit
  // can block on downstream back-pressure, and blocking while holding an
  // instance mutex is the engine's canonical deadlock shape
  // (dbs3-no-lock-across-emit). OnFinish runs sequentially post-drain, but
  // the invariant is enforced uniformly so the static check stays clean.
  std::vector<Tuple> rows;
  uint64_t charged = 0;
  {
    MutexLock lock(&state.mu);
    if (!state.error.ok()) return;  // Executor surfaces the error after drain.
    rows.swap(state.rows);
    charged = state.charged;
    state.charged = 0;
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     if (order_ == SortOrder::kAscending) {
                       return a.at(column_) < b.at(column_);
                     }
                     return b.at(column_) < a.at(column_);
                   });
  for (Tuple& t : rows) out->Emit(instance, std::move(t));
  rows.clear();
  if (resources_.quota != nullptr) resources_.quota->Release(charged);
}

NodeEstimate SortLogic::Estimate(const CostModel& cost_model,
                                 double input_tuples) const {
  NodeEstimate e;
  const double lg = std::max(1.0, std::log2(1.0 + input_tuples));
  e.total_work = input_tuples * lg * cost_model.scan_tuple;
  e.activations = input_tuples;
  e.output_tuples = input_tuples;
  return e;
}

}  // namespace dbs3

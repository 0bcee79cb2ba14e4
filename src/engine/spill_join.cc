#include "engine/spill_join.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/memory_quota.h"
#include "storage/row_block.h"

namespace dbs3 {

namespace {

/// Salt mixed into every spill-partition hash so the scheme is independent
/// of the plan's repartition edges (which route by the raw Value::Hash —
/// without the remix, every key one instance sees would share hash % degree
/// and partition placement would degenerate).
constexpr uint64_t kSpillSalt = 0x5b11f11e5a17u;

}  // namespace

HashJoinBuild::HashJoinBuild(const Relation* inner, size_t inner_column,
                             size_t probe_column)
    : inner_(inner), inner_column_(inner_column), probe_column_(probe_column) {}

HashJoinBuild::~HashJoinBuild() {
  for (const auto& state : instances_) Release(*state);
}

void HashJoinBuild::Reset(size_t num_instances) {
  for (const auto& state : instances_) Release(*state);
  instances_.clear();
  instances_.reserve(num_instances);
  for (size_t i = 0; i < num_instances; ++i) {
    instances_.push_back(std::make_unique<InstanceState>());
  }
}

void HashJoinBuild::Release(InstanceState& state) {
  uint64_t charged = state.resident_charged;
  for (const Partition& part : state.parts) charged += part.charged;
  if (resources_.quota != nullptr && charged != 0) {
    resources_.quota->Release(charged);
  }
  state.resident_charged = 0;
  state.resident.reset();
  state.parts.clear();  // Frees the rows and closes the spill files.
}

size_t HashJoinBuild::PartitionOf(const Value& v, size_t level) const {
  const uint64_t salt =
      kSpillSalt + static_cast<uint64_t>(level) * 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>(HashInt64(HashCombine(v.Hash(), salt)) %
                             kFanout);
}

void HashJoinBuild::RecordError(InstanceState& state, Status status) {
  if (status.ok()) return;
  MutexLock lock(&state.mu);
  if (state.error.ok()) state.error = std::move(status);
}

Status HashJoinBuild::error() const {
  for (const auto& state : instances_) {
    MutexLock lock(&state->mu);
    if (!state->error.ok()) return state->error;
  }
  return Status::OK();
}

Status HashJoinBuild::SpillPartition(Partition& part) {
  if (part.build_file == nullptr) {
    DBS3_ASSIGN_OR_RETURN(part.build_file,
                          SpillFile::Create(resources_.spill));
  }
  for (const Tuple& t : part.build.tuples) {
    DBS3_RETURN_IF_ERROR(part.build_file->Append(t));
  }
  // Free the vector's capacity, not just its size — the whole point is
  // returning the memory.
  std::vector<Tuple>().swap(part.build.tuples);
  if (resources_.quota != nullptr) resources_.quota->Release(part.charged);
  part.charged = 0;
  part.spilled = true;
  if (resources_.spill != nullptr) {
    resources_.spill->partitions.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status HashJoinBuild::SpillVictim(InstanceState& state, size_t current) {
  size_t victim = state.parts.size();
  size_t victim_rows = 0;
  for (size_t p = 0; p < state.parts.size(); ++p) {
    if (state.parts[p].spilled) continue;
    const size_t rows = state.parts[p].build.tuples.size();
    if (victim == state.parts.size() || rows > victim_rows) {
      victim = p;
      victim_rows = rows;
    }
  }
  // Nothing left to evict: the current partition goes straight to disk.
  if (victim == state.parts.size() || victim_rows == 0) victim = current;
  return SpillPartition(state.parts[victim]);
}

void HashJoinBuild::BuildPartitions(size_t instance) {
  InstanceState& state = *instances_[instance];
  const Fragment& fragment = inner_->fragment(instance);
  state.parts.resize(kFanout);
  MemoryQuota* quota = resources_.quota;
  // Copy partition by partition, each in fragment order, rather than row by
  // row: a partition's copies are then contiguous in this thread's scratch
  // row blocks, so spilling a victim frees its blocks instead of leaving
  // them held by the other partitions' rows (DESIGN §12).
  std::vector<uint32_t> rows_of[kFanout];
  for (uint32_t r = 0; r < fragment.tuples.size(); ++r) {
    rows_of[PartitionOf(fragment.tuples[r].at(inner_column_), 0)].push_back(
        r);
  }
  row_block::ScratchScope scratch;
  for (size_t p = 0; p < kFanout; ++p) {
    Partition& part = state.parts[p];
    for (const uint32_t r : rows_of[p]) {
      const Tuple& t = fragment.tuples[r];
      if (!part.spilled && quota != nullptr) {
        while (!part.spilled && !quota->TryCharge(1)) {
          const Status spilled = SpillVictim(state, p);
          if (!spilled.ok()) {
            RecordError(state, spilled);
            return;
          }
        }
      }
      if (part.spilled) {
        const Status appended = part.build_file->Append(t);
        if (!appended.ok()) {
          RecordError(state, appended);
          return;
        }
      } else {
        part.build.tuples.push_back(t);
        if (quota != nullptr) ++part.charged;
      }
    }
  }
  // Index what stayed resident. Partitions are append-complete here, so the
  // TempIndex's reference into the fragment's tuple vector is stable.
  for (Partition& part : state.parts) {
    if (!part.spilled && !part.build.tuples.empty()) {
      part.index = std::make_unique<TempIndex>(part.build, inner_column_);
    }
  }
}

const TempIndex* HashJoinBuild::Build(size_t instance) {
  InstanceState& state = *instances_[instance];
  std::call_once(state.built, [&] {
    const Fragment& fragment = inner_->fragment(instance);
    // Charge, then spill: one charge for the whole fragment. Granted, the
    // fragment is indexed in place exactly as an unbudgeted join would;
    // only a refused charge pays for partitioning.
    ChargeGuard whole(resources_.quota, fragment.tuples.size());
    if (!whole.ok()) {
      BuildPartitions(instance);
      return;
    }
    state.resident = std::make_unique<TempIndex>(fragment, inner_column_);
    state.resident_charged = whole.Disarm();
  });
  return state.resident.get();
}

void HashJoinBuild::ProbePartitions(size_t instance,
                                    std::span<const Tuple> probes,
                                    Emitter* out) {
  InstanceState& state = *instances_[instance];
  for (const Tuple& probe : probes) {
    const Value& key = probe.at(probe_column_);
    Partition& part = state.parts[PartitionOf(key, 0)];
    if (part.spilled) {
      // Deferred probe: several worker threads may drain one instance, so
      // the append takes the instance lock.
      MutexLock lock(&state.mu);
      if (part.probe_file == nullptr) {
        Result<std::unique_ptr<SpillFile>> file =
            SpillFile::Create(resources_.spill);
        if (!file.ok()) {
          if (state.error.ok()) state.error = file.status();
          return;
        }
        part.probe_file = std::move(file).value();
      }
      const Status appended = part.probe_file->Append(probe);
      if (!appended.ok() && state.error.ok()) state.error = appended;
      continue;
    }
    // An empty resident partition has no index: no match.
    if (part.index == nullptr) continue;
    for (uint32_t i : part.index->Probe(key)) {
      out->EmitConcat(instance, probe, part.build.tuples[i]);
    }
  }
}

Status HashJoinBuild::StreamProbeFile(size_t instance, SpillFile* probe_file,
                                      const Fragment& build,
                                      const TempIndex& index, Emitter* out) {
  DBS3_RETURN_IF_ERROR(probe_file->Rewind());
  std::vector<Tuple> chunk;
  while (true) {
    // Per-chunk, not per-pass: a deferred probe file can hold most of the
    // relation, and cancellation latency must not scale with spill size
    // (dbs3-cancel-check-in-consume-loop).
    if (resources_.cancel.ShouldStop()) return Status::OK();
    DBS3_ASSIGN_OR_RETURN(const bool more, probe_file->ReadChunk(&chunk));
    if (!more) return Status::OK();
    for (const Tuple& probe : chunk) {
      for (uint32_t i : index.Probe(probe.at(probe_column_))) {
        out->EmitConcat(instance, probe, build.tuples[i]);
      }
    }
  }
}

Status HashJoinBuild::ProcessSpilledPair(size_t instance,
                                         SpillFile* build_file,
                                         SpillFile* probe_file, size_t level,
                                         Emitter* out) {
  if (resources_.cancel.ShouldStop()) return Status::OK();
  // No deferred probes: the partition produces nothing, skip its IO.
  if (probe_file == nullptr || probe_file->tuple_count() == 0) {
    return Status::OK();
  }
  MemoryQuota* quota = resources_.quota;

  // Optimistically reload the build side — by flush time other partitions
  // have released their charges, so a partition that overflowed during the
  // build often fits now (the hybrid part).
  DBS3_RETURN_IF_ERROR(build_file->Rewind());
  Fragment build;
  // The guard owns the reload's units: the previous hand-rolled ledger
  // leaked them when a ReadChunk error returned out of the loop before the
  // manual Release (found by dbs3-quota-pairing).
  ChargeGuard reload(quota);
  bool fits = true;
  std::vector<Tuple> chunk;
  while (fits) {
    // The guard returns the partial reload's units on this early exit.
    if (resources_.cancel.ShouldStop()) return Status::OK();
    DBS3_ASSIGN_OR_RETURN(const bool more, build_file->ReadChunk(&chunk));
    if (!more) break;
    for (Tuple& t : chunk) {
      if (!reload.TryAdd(1)) {
        fits = false;
        break;
      }
      build.tuples.push_back(std::move(t));
    }
  }
  Status result = Status::OK();
  if (fits) {
    TempIndex index(build, inner_column_);
    result = StreamProbeFile(instance, probe_file, build, index, out);
  }
  // Return the budget before recursing: the repartition/nested-loop passes
  // below need the units this optimistic reload was holding.
  reload.ReleaseNow();
  if (fits || !result.ok()) return result;

  build.tuples.clear();
  if (level >= kMaxRecursion) {
    return BlockNestedLoop(instance, build_file, probe_file, out);
  }
  return Repartition(instance, build_file, probe_file, level, out);
}

Status HashJoinBuild::Repartition(size_t instance, SpillFile* build_file,
                                  SpillFile* probe_file, size_t level,
                                  Emitter* out) {
  if (resources_.spill != nullptr) {
    resources_.spill->recursions.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<std::unique_ptr<SpillFile>> sub_build(kFanout);
  std::vector<std::unique_ptr<SpillFile>> sub_probe(kFanout);

  auto split = [&](SpillFile* src, size_t column,
                   std::vector<std::unique_ptr<SpillFile>>& dst) -> Status {
    DBS3_RETURN_IF_ERROR(src->Rewind());
    std::vector<Tuple> chunk;
    while (true) {
      // A split pass rereads a whole overflow partition; stay cancellable
      // per chunk rather than per level.
      if (resources_.cancel.ShouldStop()) return Status::OK();
      DBS3_ASSIGN_OR_RETURN(const bool more, src->ReadChunk(&chunk));
      if (!more) return Status::OK();
      for (const Tuple& t : chunk) {
        const size_t p = PartitionOf(t.at(column), level);
        if (dst[p] == nullptr) {
          DBS3_ASSIGN_OR_RETURN(dst[p],
                                SpillFile::Create(resources_.spill));
        }
        DBS3_RETURN_IF_ERROR(dst[p]->Append(t));
      }
    }
  };
  DBS3_RETURN_IF_ERROR(split(build_file, inner_column_, sub_build));
  DBS3_RETURN_IF_ERROR(split(probe_file, probe_column_, sub_probe));

  for (size_t p = 0; p < kFanout; ++p) {
    if (sub_build[p] == nullptr || sub_probe[p] == nullptr) continue;
    // A level that failed to split (one hot key captured everything) will
    // fail to split forever; stop rehashing and nested-loop it now.
    if (sub_build[p]->tuple_count() == build_file->tuple_count()) {
      DBS3_RETURN_IF_ERROR(BlockNestedLoop(instance, sub_build[p].get(),
                                           sub_probe[p].get(), out));
      continue;
    }
    DBS3_RETURN_IF_ERROR(ProcessSpilledPair(
        instance, sub_build[p].get(), sub_probe[p].get(), level + 1, out));
  }
  return Status::OK();
}

Status HashJoinBuild::BlockNestedLoop(size_t instance, SpillFile* build_file,
                                      SpillFile* probe_file, Emitter* out) {
  MemoryQuota* quota = resources_.quota;
  DBS3_RETURN_IF_ERROR(build_file->Rewind());
  std::vector<Tuple> pending;
  size_t pending_pos = 0;
  bool exhausted = false;
  while (!exhausted || pending_pos < pending.size()) {
    if (resources_.cancel.ShouldStop()) return Status::OK();
    // Fill one quota-sized build batch. The first tuple of a batch is
    // force-charged when even one unit is unavailable — a batch of at
    // least one row guarantees the pass terminates (bounded overshoot:
    // one unit per instance at a time).
    Fragment batch;
    // The guard owns the batch's units and releases them at the end of
    // each pass — including the ReadChunk error return inside the fill
    // loop, which the previous hand-rolled ledger leaked across
    // (found by dbs3-quota-pairing).
    ChargeGuard charge(quota);
    while (true) {
      // The outer pass loop also checks, but one batch spans many chunks
      // when the budget is generous; the guard releases the partial batch.
      if (resources_.cancel.ShouldStop()) return Status::OK();
      if (pending_pos >= pending.size()) {
        pending.clear();
        pending_pos = 0;
        DBS3_ASSIGN_OR_RETURN(const bool more,
                              build_file->ReadChunk(&pending));
        if (!more) {
          exhausted = true;
          break;
        }
      }
      if (!charge.TryAdd(1)) {
        if (batch.tuples.empty()) {
          charge.ForceAdd(1);
        } else {
          break;
        }
      }
      batch.tuples.push_back(std::move(pending[pending_pos++]));
    }
    if (batch.tuples.empty()) break;
    TempIndex index(batch, inner_column_);
    DBS3_RETURN_IF_ERROR(
        StreamProbeFile(instance, probe_file, batch, index, out));
  }
  return Status::OK();
}

void HashJoinBuild::Finish(size_t instance, Emitter* out) {
  InstanceState& state = *instances_[instance];
  // A granted (resident) build has no partitions, and an instance that
  // never built has nothing at all: both skip straight to the release.
  for (Partition& part : state.parts) {
    if (!part.spilled) continue;
    const Status processed = ProcessSpilledPair(
        instance, part.build_file.get(), part.probe_file.get(), 1, out);
    RecordError(state, processed);
  }
  // Drop the build and return its charges: nothing probes this instance
  // again.
  Release(state);
}

}  // namespace dbs3

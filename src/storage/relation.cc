#include "storage/relation.h"

#include <cassert>

namespace dbs3 {

namespace {

/// Rough per-value footprint: tag + payload.
uint64_t ValueBytes(const Value& v) {
  if (v.is_int()) return 16;
  return 16 + v.AsString().size();
}

}  // namespace

Relation::Relation(std::string name, Schema schema, size_t partition_column,
                   Partitioner partitioner)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      partition_column_(partition_column),
      partitioner_(partitioner),
      fragments_(partitioner.degree()) {
  assert(partition_column_ < schema_.num_columns());
}

uint64_t Relation::cardinality() const {
  uint64_t n = 0;
  for (const Fragment& f : fragments_) n += f.cardinality();
  return n;
}

std::vector<uint64_t> Relation::FragmentCardinalities() const {
  std::vector<uint64_t> out(fragments_.size());
  for (size_t i = 0; i < fragments_.size(); ++i) {
    out[i] = fragments_[i].cardinality();
  }
  return out;
}

Status Relation::Insert(Tuple tuple) {
  if (tuple.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) +
        " does not match schema " + schema_.ToString() + " of relation '" +
        name_ + "'");
  }
  for (size_t c = 0; c < tuple.size(); ++c) {
    const ValueType type = schema_.column(c).type;
    if (tuple.at(c).type() != type) {
      return Status::InvalidArgument(
          "column '" + schema_.column(c).name + "' of relation '" + name_ +
          "' is " + ValueTypeName(type) + " but the value is " +
          ValueTypeName(tuple.at(c).type()));
    }
  }
  const size_t f = partitioner_.FragmentOf(tuple.at(partition_column_));
  fragments_[f].tuples.push_back(std::move(tuple));
  return Status::OK();
}

void Relation::AppendToFragment(size_t f, Tuple tuple) {
  assert(f < fragments_.size());
  if (placement_verified_) placement_verified_ = false;
  fragments_[f].tuples.push_back(std::move(tuple));
}

Status Relation::VerifyPlacement() {
  placement_verified_ = false;
  for (size_t f = 0; f < fragments_.size(); ++f) {
    for (const Tuple& t : fragments_[f].tuples) {
      const size_t home = partitioner_.FragmentOf(t.at(partition_column_));
      if (home != f) {
        return Status::InvalidArgument(
            "relation '" + name_ + "' holds a row in fragment " +
            std::to_string(f) + " that its partitioner " +
            partitioner_.ToString() + " places in fragment " +
            std::to_string(home));
      }
    }
  }
  placement_verified_ = true;
  return Status::OK();
}

std::vector<Tuple> Relation::Scan() const {
  std::vector<Tuple> out;
  out.reserve(cardinality());
  for (const Fragment& f : fragments_) {
    out.insert(out.end(), f.tuples.begin(), f.tuples.end());
  }
  return out;
}

Result<std::unique_ptr<Relation>> Relation::Repartitioned(
    size_t new_degree) const {
  if (new_degree == 0) {
    return Status::InvalidArgument("repartition degree must be > 0");
  }
  auto out = std::make_unique<Relation>(
      name_, schema_, partition_column_,
      Partitioner(partitioner_.kind(), new_degree));
  for (const Fragment& frag : fragments_) {
    for (const Tuple& t : frag.tuples) {
      DBS3_RETURN_IF_ERROR(out->Insert(t));
    }
  }
  return out;
}

uint64_t Relation::EstimatedBytes() const {
  uint64_t bytes = 0;
  for (const Fragment& f : fragments_) {
    for (const Tuple& t : f.tuples) {
      bytes += 24;  // Tuple header.
      for (const Value& v : t.values()) bytes += ValueBytes(v);
    }
  }
  return bytes;
}

}  // namespace dbs3

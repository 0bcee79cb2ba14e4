#ifndef DBS3_STORAGE_RELATION_H_
#define DBS3_STORAGE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/partitioner.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace dbs3 {

/// One horizontal fragment of a relation: the unit of static partitioning,
/// and (for a triggered operation) the unit of sequential work.
struct Fragment {
  std::vector<Tuple> tuples;
  /// Simulated disk the fragment is placed on (round-robin), -1 if unplaced.
  int disk_id = -1;

  uint64_t cardinality() const { return tuples.size(); }
};

/// A statically partitioned relation (Lera-par storage model, Section 2):
/// tuples are split into `degree` fragments by a partitioning function on one
/// attribute; fragments are distributed onto disks round-robin, so the degree
/// of partitioning is independent of the number of disks.
class Relation {
 public:
  /// Creates an empty relation with `partitioner.degree()` fragments,
  /// partitioned on column index `partition_column` of `schema`.
  Relation(std::string name, Schema schema, size_t partition_column,
           Partitioner partitioner);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t partition_column() const { return partition_column_; }
  const Partitioner& partitioner() const { return partitioner_; }

  /// Degree of partitioning (number of fragments).
  size_t degree() const { return fragments_.size(); }

  /// Total number of tuples across fragments.
  uint64_t cardinality() const;

  const Fragment& fragment(size_t i) const { return fragments_[i]; }
  Fragment& fragment(size_t i) { return fragments_[i]; }

  /// Cardinality of each fragment, indexed by fragment.
  std::vector<uint64_t> FragmentCardinalities() const;

  /// Routes `tuple` to its fragment via the partitioning function.
  /// Fails with InvalidArgument if the tuple's arity does not match the
  /// schema or a value's type differs from its column's declared type.
  /// Keeps the verified-placement mark: the row lands where the
  /// partitioner puts it.
  Status Insert(Tuple tuple);

  /// Appends directly to fragment `f`, bypassing the partitioning function
  /// and every check: callers guarantee the arity and the column types.
  /// Used by generators that construct a wanted placement (and by Store,
  /// whose input was already routed by a Transmit). Requires f < degree().
  /// Clears the verified-placement mark, since the row may sit outside the
  /// fragment its partitioner picks; the mark is only written when set, so
  /// workers appending to disjoint fragments of an unverified result never
  /// race on it.
  void AppendToFragment(size_t f, Tuple tuple);

  /// Checks that every row sits in the fragment its partitioner picks for
  /// its partition-column value, and sets the verified-placement mark when
  /// it does. Fails with InvalidArgument naming the first misplaced row's
  /// fragment otherwise (and clears the mark). Database::AddRelation runs
  /// it on every relation entering the catalog.
  Status VerifyPlacement();

  /// True once VerifyPlacement passed and no AppendToFragment ran since:
  /// a row whose partition-column value is v then sits in fragment
  /// partitioner().FragmentOf(v), which the shared scan prunes by. An
  /// edit through the mutable fragment(i) is not tracked; the IdealJoin
  /// trusts the placement as far.
  bool placement_verified() const { return placement_verified_; }

  /// All tuples of all fragments, in fragment order. Convenience for tests.
  std::vector<Tuple> Scan() const;

  /// Estimated in-memory size in bytes (used for disk placement accounting
  /// and the Allcache model).
  uint64_t EstimatedBytes() const;

  /// Returns a copy of this relation repartitioned to `new_degree`
  /// fragments with the same partitioning kind and column — the paper's
  /// dynamic raise of the degree of partitioning (Section 5.5: "the initial
  /// degree of partitioning can be dynamically raised to increase the
  /// number of activations and reduce their execution time").
  Result<std::unique_ptr<Relation>> Repartitioned(size_t new_degree) const;

 private:
  std::string name_;
  Schema schema_;
  size_t partition_column_;
  Partitioner partitioner_;
  std::vector<Fragment> fragments_;
  bool placement_verified_ = false;
};

}  // namespace dbs3

#endif  // DBS3_STORAGE_RELATION_H_

#include "dbs3/database.h"

#include "storage/serialize.h"

namespace dbs3 {

namespace {

/// Refuses a relation holding a row outside the fragment its partitioner
/// picks: an IdealJoin, which pairs fragment i with fragment i, would miss
/// that row's matches.
Status CheckPlacement(const Relation& rel) {
  for (size_t f = 0; f < rel.degree(); ++f) {
    for (const Tuple& t : rel.fragment(f).tuples) {
      const size_t home = rel.partitioner().FragmentOf(
          t.at(rel.partition_column()));
      if (home != f) {
        return Status::InvalidArgument(
            "relation '" + rel.name() + "' holds a row in fragment " +
            std::to_string(f) + " that its partitioner " +
            rel.partitioner().ToString() + " places in fragment " +
            std::to_string(home));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Database::Database(size_t num_disks) : disks_(num_disks) {}

/// Out of line so the header does not need QueryRuntime's destructor;
/// runtime_ (declared last) drains in-flight queries before the catalog
/// and metrics go away.
Database::~Database() = default;

Status Database::StartRuntime(QueryRuntimeOptions options) {
  MutexLock lock(&runtime_mu_);
  if (runtime_ != nullptr) {
    return Status::FailedPrecondition(
        "query runtime already started for this database");
  }
  options.metrics = &metrics_;
  runtime_ = std::make_unique<QueryRuntime>(options);
  return Status::OK();
}

QueryRuntime& Database::runtime() {
  MutexLock lock(&runtime_mu_);
  if (runtime_ == nullptr) {
    QueryRuntimeOptions options;
    options.metrics = &metrics_;
    runtime_ = std::make_unique<QueryRuntime>(options);
  }
  return *runtime_;
}

QueryHandle Database::Submit(QuerySpec spec) {
  return runtime().Submit(std::move(spec));
}

Status Database::CreateWisconsin(const std::string& name,
                                 const WisconsinOptions& options) {
  auto relation = GenerateWisconsin(name, options);
  if (!relation.ok()) return relation.status();
  return AddRelation(std::move(relation).value());
}

Status Database::CreateSkewedPair(const SkewSpec& spec,
                                  const std::string& a_name,
                                  const std::string& b_name) {
  auto db = BuildSkewedDatabase(spec);
  if (!db.ok()) return db.status();
  // Rebuild under the requested names (the generator uses fixed names).
  SkewedDatabase pair = std::move(db).value();
  auto renamed_a = std::make_unique<Relation>(
      a_name, pair.a->schema(), pair.a->partition_column(),
      pair.a->partitioner());
  auto renamed_b = std::make_unique<Relation>(
      b_name, pair.b->schema(), pair.b->partition_column(),
      pair.b->partitioner());
  for (size_t f = 0; f < pair.a->degree(); ++f) {
    for (const Tuple& t : pair.a->fragment(f).tuples) {
      renamed_a->AppendToFragment(f, t);
    }
  }
  for (size_t f = 0; f < pair.b->degree(); ++f) {
    for (const Tuple& t : pair.b->fragment(f).tuples) {
      renamed_b->AppendToFragment(f, t);
    }
  }
  DBS3_RETURN_IF_ERROR(AddRelation(std::move(renamed_a)));
  return AddRelation(std::move(renamed_b));
}

Status Database::AddRelation(std::unique_ptr<Relation> relation) {
  DBS3_RETURN_IF_ERROR(CheckPlacement(*relation));
  disks_.Place(*relation);
  return catalog_.Add(std::move(relation));
}

Result<Relation*> Database::relation(const std::string& name) const {
  return catalog_.Get(name);
}

Status Database::SaveRelation(const std::string& name,
                              const std::string& path) const {
  auto rel = catalog_.Get(name);
  if (!rel.ok()) return rel.status();
  return WriteRelation(*rel.value(), path);
}

Status Database::LoadRelation(const std::string& path) {
  auto rel = ReadRelation(path);
  if (!rel.ok()) return rel.status();
  return AddRelation(std::move(rel).value());
}

}  // namespace dbs3

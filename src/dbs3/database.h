#ifndef DBS3_DBS3_DATABASE_H_
#define DBS3_DBS3_DATABASE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "server/query_runtime.h"
#include "storage/catalog.h"
#include "storage/disk.h"
#include "storage/skew.h"
#include "storage/wisconsin.h"

namespace dbs3 {

/// The top-level database object: a catalog of statically partitioned
/// relations placed round-robin on simulated disks. Entry point of the
/// public API — see examples/quickstart.cc.
class Database {
 public:
  /// Creates a database with `num_disks` placement targets.
  explicit Database(size_t num_disks = 8);

  ~Database();

  /// Neither copyable nor movable: the query runtime and the queries in
  /// flight hold pointers to the metrics registry and catalog — moving the
  /// database out from under them would dangle every one of those.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = delete;
  Database& operator=(Database&&) = delete;

  /// Generates and registers a Wisconsin benchmark relation.
  Status CreateWisconsin(const std::string& name,
                         const WisconsinOptions& options);

  /// Generates and registers a skewed experiment pair per `spec`, under the
  /// names `a_name` and `b_name`.
  Status CreateSkewedPair(const SkewSpec& spec, const std::string& a_name,
                          const std::string& b_name);

  /// Registers an externally built relation (placing its fragments).
  /// Fails with InvalidArgument when a row sits outside the fragment the
  /// relation's partitioner picks for it: the planners trust that
  /// placement (an IdealJoin pairs fragment i with fragment i).
  Status AddRelation(std::unique_ptr<Relation> relation);

  /// The relation named `name`, or NotFound.
  Result<Relation*> relation(const std::string& name) const;

  /// Writes the relation named `name` to `path` (DBS3 binary format).
  Status SaveRelation(const std::string& name, const std::string& path) const;

  /// Reads a relation file written by SaveRelation and registers it
  /// (placing its fragments on the disks). Fails on duplicate names and,
  /// as AddRelation does, on a row outside its partitioner's fragment.
  Status LoadRelation(const std::string& path);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  DiskArray& disks() { return disks_; }

  /// Engine-wide metrics, accumulated across every query run against this
  /// database — facade, ESQL and shared-batch members alike: runtime.*
  /// (query outcomes, admission wait, execution wall and busy time),
  /// engine.tuple_units, engine.units_cancelled, spill.* and shared.*.
  /// Per-execution detail lives on each query's ExecutionResult; this
  /// registry is the long-running aggregate.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Starts the concurrent query runtime with explicit sizing. Optional:
  /// the first Submit (or runtime()) lazily starts one with defaults.
  /// Fails with FailedPrecondition once a runtime exists.
  /// `options.metrics` is overridden to this database's registry.
  Status StartRuntime(QueryRuntimeOptions options) EXCLUDES(runtime_mu_);

  /// The shared query runtime (lazily started with default sizing).
  QueryRuntime& runtime() EXCLUDES(runtime_mu_);

  /// Queues `spec` on the runtime and returns its future-like handle —
  /// the async entry point the synchronous query API is built on. See
  /// examples in README ("Concurrent sessions").
  QueryHandle Submit(QuerySpec spec) EXCLUDES(runtime_mu_);

 private:
  Catalog catalog_;
  DiskArray disks_;
  MetricsRegistry metrics_;
  /// Lazily started on first use; declared after everything queries touch
  /// so in-flight queries drain (runtime dtor) before any of it goes away.
  Mutex runtime_mu_{"Database::runtime_mu"};
  std::unique_ptr<QueryRuntime> runtime_ GUARDED_BY(runtime_mu_);
};

}  // namespace dbs3

#endif  // DBS3_DBS3_DATABASE_H_

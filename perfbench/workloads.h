// The benchmark's four client workloads. Each one owns its seeded relation
// generation, its query stream, the client shape that drives it (client
// threads x queries in flight per client), and the oracle that knows every
// query's expected rows from the base relations alone.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dbs3/database.h"
#include "engine/plan.h"
#include "engine/vector/pred.h"
#include "harness.h"
#include "sched/scheduler.h"
#include "server/query_handle.h"
#include "storage/relation.h"

namespace perfbench {

/// The query shapes the workloads issue.
enum class Shape {
  kPoint,        ///< ESQL point select on unique1.
  kRange,        ///< ESQL range scan unique1 < n/100.
  kIdealJoin,    ///< ESQL join of a co-partitioned skewed pair.
  kAssocJoin,    ///< ESQL join with a pushed-down filter.
  kGroupByJoin,  ///< The same join, grouped and aggregated.
  kFacadeJoin,   ///< The facade's SubmitAssocJoin.
  kSpillJoin,    ///< ESQL join + group-by under a small memory budget.
};

const char* ShapeName(Shape shape);

/// A non-vacuity expectation over the measured queries.
enum class Expect { kAny, kNone, kSome, kEvery };

/// One query of a workload's stream.
struct Query {
  Shape shape = Shape::kPoint;
  /// ESQL text; empty for facade queries.
  std::string text;
  /// The looked-up key (point selects only).
  int64_t key = 0;
};

/// What the per-layer replays run on: the workload's own relations, keys
/// and query texts.
struct LayerInputs {
  /// Scanned by the filter kernel and written/read by the spill replay.
  const dbs3::Relation* scan = nullptr;
  /// The workload's pushed-down predicate over `scan`.
  dbs3::PredExpr filter;
  /// Indexed by the TempIndex build and probe replays, on `inner_key`.
  const dbs3::Relation* inner = nullptr;
  size_t inner_key = 0;
  /// Probe keys the workload's queries look up in `inner`.
  std::vector<int64_t> probe_keys;
  /// The ESQL texts the workload submits.
  std::vector<std::string> texts;
};

/// A plan in one of the workload's shapes, with the relation its store node
/// writes (which must outlive the plan).
struct PlannedShape {
  dbs3::Plan plan;
  std::unique_ptr<dbs3::Relation> result;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Client threads, and queries each keeps in flight.
  virtual size_t clients() const = 0;
  virtual size_t depth() const = 0;
  /// Queries each in-flight slot runs during warm-up.
  virtual size_t warmup_per_slot() const = 0;

  /// Generates the workload's relations into `db` from the seed and starts
  /// the runtime (default QueryRuntimeOptions).
  virtual void Populate(dbs3::Database& db) const = 0;

  /// Precomputes what every query of the stream must return, from the base
  /// relations in `db` only. Must be called once before Expected.
  virtual void BuildOracle(dbs3::Database& db) = 0;

  /// Query number `seq` of client `client`; a pure function of the seed.
  virtual Query Next(size_t client, uint64_t seq) const = 0;

  /// Submits `q` through the public client API.
  virtual dbs3::QueryHandle Submit(dbs3::Database& db,
                                   const Query& q) const = 0;

  /// The digest `q`'s rows must have.
  virtual RowDigest Expected(const Query& q) const = 0;

  /// Runs the workload's reference queries once (at set-up) and reports
  /// whether they return the oracle's rows.
  virtual bool CheckReference(dbs3::Database&) const { return true; }

  /// Declared per-query memory budget in tuple units (0 = none).
  virtual uint64_t memory_units() const { return 0; }

  /// Non-vacuity: how many measured queries must ride a shared-scan batch
  /// of more than one query, and how many must write spill bytes.
  virtual Expect batching() const { return Expect::kAny; }
  virtual Expect spilling() const { return Expect::kAny; }

  /// The schedule options the workload's queries run with.
  virtual dbs3::ScheduleOptions schedule() const = 0;

  virtual LayerInputs Layers(dbs3::Database& db) const = 0;

  /// Plans in the workload's shapes, for the scheduler replay.
  virtual std::vector<PlannedShape> Plans(dbs3::Database& db) const = 0;
};

/// The workload called `name` with inputs drawn from `seed`, or nullptr for
/// an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Every workload name, in the order the docs list them.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

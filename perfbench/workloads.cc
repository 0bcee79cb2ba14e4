#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "dbs3/query.h"
#include "engine/operators.h"
#include "esql/planner.h"
#include "storage/skew.h"
#include "storage/wisconsin.h"

namespace perfbench {

namespace {

using dbs3::Database;
using dbs3::Partitioner;
using dbs3::PartitionKind;
using dbs3::PredExpr;
using dbs3::Relation;
using dbs3::Tuple;
using dbs3::Value;

void CheckOk(const dbs3::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

template <typename T>
T Unwrap(dbs3::Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// A well-mixed 64-bit value from the seed and a position in a stream, so
/// query streams are pure functions of (seed, client, seq).
uint64_t StreamHash(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + a * 0xd1b54a32d192ed03ULL +
               b * 0x8cb92ba72f3d8dd7ULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t Column(const Relation& rel, const char* name) {
  return Unwrap(rel.schema().IndexOf(name), name);
}

Relation* Rel(Database& db, const char* name) {
  return Unwrap(db.relation(name), name);
}

void StartDefaultRuntime(Database& db) {
  CheckOk(db.StartRuntime(dbs3::QueryRuntimeOptions{}), "start runtime");
}

/// filter(input) -> store: the plan an ESQL scan becomes.
PlannedShape SelectPlan(const Relation* input, dbs3::Predicate predicate,
                        double selectivity) {
  PlannedShape out;
  const size_t degree = input->degree();
  out.result = std::make_unique<Relation>(
      "replay", input->schema(), input->partition_column(),
      Partitioner(input->partitioner().kind(), degree));
  const size_t filter = out.plan.AddNode(
      "filter", dbs3::ActivationMode::kTriggered, degree,
      std::make_unique<dbs3::FilterLogic>(input, std::move(predicate),
                                          selectivity));
  const size_t store = out.plan.AddNode(
      "store", dbs3::ActivationMode::kPipelined, degree,
      std::make_unique<dbs3::StoreLogic>(out.result.get()));
  CheckOk(out.plan.ConnectSameInstance(filter, store), "connect");
  return out;
}

/// join(outer_i, inner_i) -> store: the IdealJoin shape.
PlannedShape IdealJoinPlan(const Relation* outer, size_t outer_col,
                           const Relation* inner, size_t inner_col) {
  PlannedShape out;
  const size_t degree = outer->degree();
  out.result = std::make_unique<Relation>(
      "replay", dbs3::Schema::Concat(outer->schema(), inner->schema()),
      outer_col, Partitioner(outer->partitioner().kind(), degree));
  const size_t join = out.plan.AddNode(
      "join", dbs3::ActivationMode::kTriggered, degree,
      std::make_unique<dbs3::TriggeredJoinLogic>(
          outer, outer_col, inner, inner_col, dbs3::JoinAlgorithm::kHash));
  const size_t store = out.plan.AddNode(
      "store", dbs3::ActivationMode::kPipelined, degree,
      std::make_unique<dbs3::StoreLogic>(out.result.get()));
  CheckOk(out.plan.ConnectSameInstance(join, store), "connect");
  return out;
}

/// filter(probe) -> repartition -> join(inner) -> store: the AssocJoin
/// shape (MatchAll makes the filter a plain transmit).
PlannedShape AssocJoinPlan(const Relation* probe, size_t probe_col,
                           dbs3::Predicate predicate, double selectivity,
                           const Relation* inner, size_t inner_col) {
  PlannedShape out;
  const size_t degree = inner->degree();
  out.result = std::make_unique<Relation>(
      "replay", dbs3::Schema::Concat(probe->schema(), inner->schema()),
      probe_col, Partitioner(inner->partitioner().kind(), degree));
  const size_t filter = out.plan.AddNode(
      "filter", dbs3::ActivationMode::kTriggered, probe->degree(),
      std::make_unique<dbs3::FilterLogic>(probe, std::move(predicate),
                                          selectivity));
  const size_t join = out.plan.AddNode(
      "join", dbs3::ActivationMode::kPipelined, degree,
      std::make_unique<dbs3::PipelinedJoinLogic>(
          inner, inner_col, probe_col, dbs3::JoinAlgorithm::kHash));
  const size_t store = out.plan.AddNode(
      "store", dbs3::ActivationMode::kPipelined, degree,
      std::make_unique<dbs3::StoreLogic>(out.result.get()));
  CheckOk(out.plan.ConnectByColumn(filter, join, probe_col,
                                   inner->partitioner()),
          "connect");
  CheckOk(out.plan.ConnectSameInstance(join, store), "connect");
  return out;
}

// ---------------------------------------------------------------------------
// point_select and lookup_flood: ESQL lookups on one Wisconsin relation.

class WiscLookups : public Workload {
 public:
  /// `range_every` = 0: point selects only; k: every k-th query of a
  /// client is the range scan unique1 < rows/100.
  WiscLookups(const char* name, uint64_t seed, uint64_t rows, size_t clients,
              size_t depth, size_t range_every, size_t warmup)
      : name_(name),
        seed_(seed),
        rows_(rows),
        clients_(clients),
        depth_(depth),
        range_every_(range_every),
        warmup_(warmup),
        range_limit_(static_cast<int64_t>(rows / 100)) {}

  const char* name() const override { return name_; }
  size_t clients() const override { return clients_; }
  size_t depth() const override { return depth_; }
  size_t warmup_per_slot() const override { return warmup_; }

  void Populate(Database& db) const override {
    dbs3::WisconsinOptions options;
    options.cardinality = rows_;
    options.degree = kDegree;
    options.seed = seed_;
    CheckOk(db.CreateWisconsin("wisc", options), "create wisc");
    StartDefaultRuntime(db);
  }

  void BuildOracle(Database& db) override {
    const Relation* wisc = Rel(db, "wisc");
    const size_t unique1 = Column(*wisc, "unique1");
    by_key_.assign(rows_, 0);
    range_ = RowDigest{};
    for (size_t f = 0; f < wisc->degree(); ++f) {
      for (const Tuple& t : wisc->fragment(f).tuples) {
        const int64_t k = t.at(unique1).AsInt();
        by_key_[static_cast<size_t>(k)] = RowHash(t);
        if (k < range_limit_) range_.Add(t);
      }
    }
  }

  Query Next(size_t client, uint64_t seq) const override {
    Query q;
    if (range_every_ != 0 && seq % range_every_ == range_every_ - 1) {
      q.shape = Shape::kRange;
      q.text = "SELECT * FROM wisc WHERE unique1 < " +
               std::to_string(range_limit_);
      return q;
    }
    q.shape = Shape::kPoint;
    q.key = static_cast<int64_t>(StreamHash(seed_, client, seq) % rows_);
    q.text = "SELECT * FROM wisc WHERE unique1 = " + std::to_string(q.key);
    return q;
  }

  dbs3::QueryHandle Submit(Database& db, const Query& q) const override {
    return dbs3::SubmitEsql(db, q.text, dbs3::EsqlOptions{});
  }

  RowDigest Expected(const Query& q) const override {
    if (q.shape == Shape::kRange) return range_;
    return RowDigest{1, by_key_[static_cast<size_t>(q.key)]};
  }

  dbs3::ScheduleOptions schedule() const override {
    return dbs3::EsqlOptions{}.schedule;
  }

  Expect batching() const override {
    return clients_ * depth_ == 1 ? Expect::kNone : Expect::kSome;
  }

  LayerInputs Layers(Database& db) const override {
    LayerInputs in;
    in.scan = Rel(db, "wisc");
    in.inner = in.scan;
    in.inner_key = Column(*in.scan, "unique1");
    in.filter = range_every_ != 0
                    ? PredExpr::IntLess(static_cast<uint32_t>(in.inner_key),
                                        range_limit_)
                    : PredExpr::IntEquals(static_cast<uint32_t>(in.inner_key),
                                          Next(0, 0).key);
    for (uint64_t seq = 0; in.probe_keys.size() < kProbeKeys; ++seq) {
      const Query q = Next(seq % clients_, seq / clients_);
      if (q.shape == Shape::kPoint) in.probe_keys.push_back(q.key);
      if (in.texts.size() < kTexts) in.texts.push_back(q.text);
    }
    return in;
  }

  std::vector<PlannedShape> Plans(Database& db) const override {
    const Relation* wisc = Rel(db, "wisc");
    const size_t unique1 = Column(*wisc, "unique1");
    std::vector<PlannedShape> plans;
    plans.push_back(SelectPlan(
        wisc, PredExpr::IntEquals(static_cast<uint32_t>(unique1), 1),
        1.0 / static_cast<double>(rows_)));
    if (range_every_ != 0) {
      plans.push_back(SelectPlan(
          wisc,
          PredExpr::IntLess(static_cast<uint32_t>(unique1), range_limit_),
          0.01));
    }
    return plans;
  }

 private:
  static constexpr size_t kDegree = 16;
  static constexpr size_t kProbeKeys = 1 << 16;
  /// The stream's first texts: with 4 clients, 16 include range scans.
  static constexpr size_t kTexts = 16;

  const char* name_;
  uint64_t seed_;
  uint64_t rows_;
  size_t clients_;
  size_t depth_;
  size_t range_every_;
  size_t warmup_;
  int64_t range_limit_;
  /// Row hash of the tuple with unique1 = index.
  std::vector<uint64_t> by_key_;
  RowDigest range_;
};

// ---------------------------------------------------------------------------
// join_mix: four join shapes at chunk 64 over relations larger than L3.

class JoinMix : public Workload {
 public:
  explicit JoinMix(uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "join_mix"; }
  size_t clients() const override { return 4; }
  size_t depth() const override { return 2; }
  size_t warmup_per_slot() const override { return 1; }

  void Populate(Database& db) const override {
    dbs3::SkewSpec skew;
    skew.a_cardinality = 200'000;
    skew.b_cardinality = 20'000;
    skew.degree = kDegree;
    skew.theta = 0.6;
    skew.seed = seed_ * 4 + 1;
    CheckOk(db.CreateSkewedPair(skew, "A", "B"), "create skewed pair");
    dbs3::WisconsinOptions w1;
    w1.cardinality = 200'000;
    w1.degree = kDegree;
    w1.seed = seed_ * 4 + 2;
    CheckOk(db.CreateWisconsin("W1", w1), "create W1");
    dbs3::WisconsinOptions w2 = w1;
    w2.cardinality = 20'000;
    w2.seed = seed_ * 4 + 3;
    CheckOk(db.CreateWisconsin("W2", w2), "create W2");
    StartDefaultRuntime(db);
  }

  void BuildOracle(Database& db) override {
    const Relation* a = Rel(db, "A");
    const Relation* b = Rel(db, "B");
    const Relation* w1 = Rel(db, "W1");
    const Relation* w2 = Rel(db, "W2");
    const size_t a_key = Column(*a, "key");
    const size_t b_key = Column(*b, "key");
    std::unordered_map<int64_t, const Tuple*> b_by_key;
    for (size_t f = 0; f < b->degree(); ++f) {
      for (const Tuple& t : b->fragment(f).tuples) {
        b_by_key.emplace(t.at(b_key).AsInt(), &t);
      }
    }
    ideal_ = RowDigest{};
    for (size_t f = 0; f < a->degree(); ++f) {
      for (const Tuple& t : a->fragment(f).tuples) {
        auto it = b_by_key.find(t.at(a_key).AsInt());
        if (it != b_by_key.end()) ideal_.Add(t.Concat(*it->second));
      }
    }

    const size_t unique1 = Column(*w2, "unique1");
    const size_t unique2 = Column(*w1, "unique2");
    const size_t twenty = Column(*w1, "twenty");
    const size_t unique3 = Column(*w1, "unique3");
    const size_t ten = Column(*w2, "ten");
    std::unordered_map<int64_t, const Tuple*> w2_by_key;
    for (size_t f = 0; f < w2->degree(); ++f) {
      for (const Tuple& t : w2->fragment(f).tuples) {
        w2_by_key.emplace(t.at(unique1).AsInt(), &t);
      }
    }
    assoc_ = RowDigest{};
    facade_ = RowDigest{};
    std::map<int64_t, std::pair<int64_t, int64_t>> groups;  // ten -> (n, sum)
    for (size_t f = 0; f < w1->degree(); ++f) {
      for (const Tuple& t : w1->fragment(f).tuples) {
        auto it = w2_by_key.find(t.at(unique2).AsInt());
        if (it == w2_by_key.end()) continue;
        const Tuple row = t.Concat(*it->second);
        facade_.Add(row);
        if (t.at(twenty).AsInt() >= kTwentyBelow) continue;
        assoc_.Add(row);
        auto& g = groups[it->second->at(ten).AsInt()];
        ++g.first;
        g.second += t.at(unique3).AsInt();
      }
    }
    group_by_ = RowDigest{};
    for (const auto& [key, g] : groups) {
      group_by_.Add(Tuple({Value(key), Value(g.first), Value(g.second)}));
    }
  }

  Query Next(size_t client, uint64_t seq) const override {
    Query q;
    switch ((client + seq) % 4) {
      case 0:
        q.shape = Shape::kIdealJoin;
        q.text = kIdealText;
        break;
      case 1:
        q.shape = Shape::kAssocJoin;
        q.text = kAssocText;
        break;
      case 2:
        q.shape = Shape::kGroupByJoin;
        q.text = kGroupByText;
        break;
      default:
        q.shape = Shape::kFacadeJoin;
        break;
    }
    return q;
  }

  dbs3::QueryHandle Submit(Database& db, const Query& q) const override {
    if (q.shape == Shape::kFacadeJoin) {
      dbs3::QueryOptions options;
      options.schedule = schedule();
      return dbs3::SubmitAssocJoin(db, "W1", "unique2", "W2", "unique1",
                                   options);
    }
    dbs3::EsqlOptions options;
    options.schedule = schedule();
    return dbs3::SubmitEsql(db, q.text, options);
  }

  RowDigest Expected(const Query& q) const override {
    switch (q.shape) {
      case Shape::kIdealJoin:
        return ideal_;
      case Shape::kAssocJoin:
        return assoc_;
      case Shape::kGroupByJoin:
        return group_by_;
      default:
        return facade_;
    }
  }

  dbs3::ScheduleOptions schedule() const override {
    dbs3::ScheduleOptions s;
    s.processors = 4;
    s.chunk_size = 64;
    return s;
  }

  Expect spilling() const override { return Expect::kNone; }

  LayerInputs Layers(Database& db) const override {
    LayerInputs in;
    in.scan = Rel(db, "W1");
    in.filter = PredExpr::IntLess(
        static_cast<uint32_t>(Column(*in.scan, "twenty")), kTwentyBelow);
    in.inner = Rel(db, "W2");
    in.inner_key = Column(*in.inner, "unique1");
    const size_t unique2 = Column(*in.scan, "unique2");
    for (size_t f = 0; f < in.scan->degree(); ++f) {
      for (const Tuple& t : in.scan->fragment(f).tuples) {
        in.probe_keys.push_back(t.at(unique2).AsInt());
      }
    }
    in.texts = {kIdealText, kAssocText, kGroupByText};
    return in;
  }

  std::vector<PlannedShape> Plans(Database& db) const override {
    const Relation* a = Rel(db, "A");
    const Relation* b = Rel(db, "B");
    const Relation* w1 = Rel(db, "W1");
    const Relation* w2 = Rel(db, "W2");
    const size_t unique2 = Column(*w1, "unique2");
    const size_t unique1 = Column(*w2, "unique1");
    std::vector<PlannedShape> plans;
    plans.push_back(
        IdealJoinPlan(a, Column(*a, "key"), b, Column(*b, "key")));
    plans.push_back(AssocJoinPlan(
        w1, unique2,
        PredExpr::IntLess(static_cast<uint32_t>(Column(*w1, "twenty")),
                          kTwentyBelow),
        0.5, w2, unique1));
    plans.push_back(
        AssocJoinPlan(w1, unique2, dbs3::MatchAll(), 1.0, w2, unique1));
    return plans;
  }

 private:
  static constexpr size_t kDegree = 64;
  static constexpr int64_t kTwentyBelow = 10;
  static constexpr const char* kIdealText =
      "SELECT * FROM A JOIN B ON A.key = B.key";
  static constexpr const char* kAssocText =
      "SELECT * FROM W1 JOIN W2 ON W1.unique2 = W2.unique1 "
      "WHERE W1.twenty < 10";
  static constexpr const char* kGroupByText =
      "SELECT W2.ten, COUNT(*), SUM(W1.unique3) FROM W1 JOIN W2 "
      "ON W1.unique2 = W2.unique1 WHERE W1.twenty < 10 GROUP BY W2.ten";

  uint64_t seed_;
  RowDigest ideal_;
  RowDigest assoc_;
  RowDigest group_by_;
  RowDigest facade_;
};

// ---------------------------------------------------------------------------
// budgeted_join: the spilling join + group-by under a tiny budget.

class BudgetedJoin : public Workload {
 public:
  explicit BudgetedJoin(uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "budgeted_join"; }
  size_t clients() const override { return 1; }
  size_t depth() const override { return 1; }
  size_t warmup_per_slot() const override { return 1; }
  uint64_t memory_units() const override { return kBudgetUnits; }

  void Populate(Database& db) const override {
    dbs3::Rng rng(seed_);
    auto sa = std::make_unique<Relation>(
        "SA",
        dbs3::Schema({{"k", dbs3::ValueType::kInt64},
                      {"v", dbs3::ValueType::kInt64}}),
        0, Partitioner(PartitionKind::kModulo, kDegree));
    for (uint64_t i = 0; i < kProbeRows; ++i) {
      CheckOk(sa->Insert(Tuple(
                  {Value(static_cast<int64_t>(rng.Below(kBuildRows))),
                   Value(static_cast<int64_t>(rng.Below(101)) - 50)})),
              "insert SA");
    }
    auto sb = std::make_unique<Relation>(
        "SB",
        dbs3::Schema({{"k", dbs3::ValueType::kInt64},
                      {"g", dbs3::ValueType::kInt64}}),
        0, Partitioner(PartitionKind::kModulo, kDegree));
    for (uint64_t i = 0; i < kBuildRows; ++i) {
      CheckOk(sb->Insert(Tuple(
                  {Value(static_cast<int64_t>(rng.Below(kBuildRows))),
                   Value(static_cast<int64_t>(rng.Below(kGroups)))})),
              "insert SB");
    }
    CheckOk(db.AddRelation(std::move(sa)), "add SA");
    CheckOk(db.AddRelation(std::move(sb)), "add SB");
    StartDefaultRuntime(db);
  }

  void BuildOracle(Database& db) override {
    const Relation* sa = Rel(db, "SA");
    const Relation* sb = Rel(db, "SB");
    std::unordered_multimap<int64_t, int64_t> groups_by_key;  // k -> g
    for (size_t f = 0; f < sb->degree(); ++f) {
      for (const Tuple& t : sb->fragment(f).tuples) {
        groups_by_key.emplace(t.at(0).AsInt(), t.at(1).AsInt());
      }
    }
    struct Agg {
      int64_t n = 0, sum = 0, min = 0, max = 0;
    };
    std::map<int64_t, Agg> groups;
    for (size_t f = 0; f < sa->degree(); ++f) {
      for (const Tuple& t : sa->fragment(f).tuples) {
        const int64_t v = t.at(1).AsInt();
        auto [lo, hi] = groups_by_key.equal_range(t.at(0).AsInt());
        for (auto it = lo; it != hi; ++it) {
          Agg& a = groups[it->second];
          a.min = a.n == 0 ? v : std::min(a.min, v);
          a.max = a.n == 0 ? v : std::max(a.max, v);
          ++a.n;
          a.sum += v;
        }
      }
    }
    expected_ = RowDigest{};
    for (const auto& [g, a] : groups) {
      expected_.Add(Tuple(
          {Value(g), Value(a.n), Value(a.sum), Value(a.min), Value(a.max)}));
    }
  }

  Query Next(size_t, uint64_t) const override {
    Query q;
    q.shape = Shape::kSpillJoin;
    q.text = kText;
    return q;
  }

  dbs3::QueryHandle Submit(Database& db, const Query& q) const override {
    return dbs3::SubmitEsql(db, q.text, Options(kBudgetUnits));
  }

  RowDigest Expected(const Query&) const override { return expected_; }

  dbs3::ScheduleOptions schedule() const override {
    dbs3::ScheduleOptions s;
    s.processors = 4;
    s.total_threads = 4;
    s.chunk_size = 64;
    return s;
  }

  LayerInputs Layers(Database& db) const override {
    LayerInputs in;
    in.scan = Rel(db, "SA");
    in.filter = PredExpr::IntGreaterEq(1, 0);
    in.inner = Rel(db, "SB");
    in.inner_key = 0;
    for (size_t f = 0; f < in.scan->degree(); ++f) {
      for (const Tuple& t : in.scan->fragment(f).tuples) {
        in.probe_keys.push_back(t.at(0).AsInt());
      }
    }
    in.texts = {kText};
    return in;
  }

  std::vector<PlannedShape> Plans(Database& db) const override {
    std::vector<PlannedShape> plans;
    plans.push_back(AssocJoinPlan(Rel(db, "SA"), 0, dbs3::MatchAll(), 1.0,
                                  Rel(db, "SB"), 0));
    return plans;
  }

  /// The unbudgeted run must return exactly the oracle's rows, so the
  /// budgeted runs are compared with an in-memory reference.
  bool CheckReference(Database& db) const override {
    dbs3::Result<dbs3::QueryResult> taken =
        dbs3::SubmitEsql(db, kText, Options(0)).Take();
    return taken.ok() && DigestRelation(*taken.value().result) == expected_;
  }

  Expect spilling() const override { return Expect::kEvery; }

 private:
  static constexpr size_t kDegree = 16;
  static constexpr uint64_t kProbeRows = 100'000;
  static constexpr uint64_t kBuildRows = 25'000;
  static constexpr uint64_t kGroups = 400;
  /// Below the build side (25K tuples) and the group states (400), so every
  /// query spills: about 3.3 MB in the common fast mode.
  static constexpr uint64_t kBudgetUnits = 4096;
  static constexpr const char* kText =
      "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) "
      "FROM SA JOIN SB ON SA.k = SB.k GROUP BY g";

  dbs3::EsqlOptions Options(uint64_t budget) const {
    dbs3::EsqlOptions options;
    options.schedule = schedule();
    options.memory_units = budget;
    return options;
  }

  uint64_t seed_;
  RowDigest expected_;
};

}  // namespace

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kPoint:
      return "point";
    case Shape::kRange:
      return "range";
    case Shape::kIdealJoin:
      return "ideal_join";
    case Shape::kAssocJoin:
      return "assoc_join";
    case Shape::kGroupByJoin:
      return "group_by_join";
    case Shape::kFacadeJoin:
      return "facade_join";
    case Shape::kSpillJoin:
      return "spill_join";
  }
  return "?";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "point_select") {
    return std::make_unique<WiscLookups>("point_select", seed, 8192, 1, 1, 0,
                                         300);
  }
  if (name == "lookup_flood") {
    return std::make_unique<WiscLookups>("lookup_flood", seed, 65536, 4, 64,
                                         4, 2);
  }
  if (name == "join_mix") return std::make_unique<JoinMix>(seed);
  if (name == "budgeted_join") return std::make_unique<BudgetedJoin>(seed);
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  return {"point_select", "lookup_flood", "join_mix", "budgeted_join"};
}

}  // namespace perfbench

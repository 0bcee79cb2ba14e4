#include "dbs3/database.h"

#include <algorithm>
#include <cstdio>

#include <gtest/gtest.h>

#include "dbs3/query.h"
#include "esql/planner.h"
#include "storage/serialize.h"

namespace dbs3 {
namespace {

TEST(DatabaseTest, CreateWisconsinRegistersRelation) {
  Database db(4);
  WisconsinOptions opt;
  opt.cardinality = 1'000;
  opt.degree = 8;
  ASSERT_TRUE(db.CreateWisconsin("tenk", opt).ok());
  auto rel = db.relation("tenk");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel.value()->cardinality(), 1'000u);
  // Fragments were placed on disks.
  for (size_t f = 0; f < rel.value()->degree(); ++f) {
    EXPECT_GE(rel.value()->fragment(f).disk_id, 0);
    EXPECT_LT(rel.value()->fragment(f).disk_id, 4);
  }
}

TEST(DatabaseTest, CreateSkewedPairUsesGivenNames) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 1'000;
  spec.b_cardinality = 100;
  spec.degree = 10;
  spec.theta = 0.5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "big", "small").ok());
  ASSERT_TRUE(db.relation("big").ok());
  ASSERT_TRUE(db.relation("small").ok());
  EXPECT_EQ(db.relation("big").value()->cardinality(), 1'000u);
  EXPECT_EQ(db.relation("small").value()->cardinality(), 100u);
  EXPECT_FALSE(db.relation("A").ok());  // Generator names not leaked.
}

TEST(DatabaseTest, DuplicateRelationRejected) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 10;
  opt.degree = 2;
  ASSERT_TRUE(db.CreateWisconsin("r", opt).ok());
  EXPECT_EQ(db.CreateWisconsin("r", opt).code(),
            StatusCode::kAlreadyExists);
}

TEST(QueryTest, UnknownRelationFails) {
  Database db(2);
  QueryOptions options;
  auto r = RunIdealJoin(db, "nope", "a", "also_nope", "b", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, UnknownColumnFails) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 100;
  spec.b_cardinality = 50;
  spec.degree = 5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  auto r = RunIdealJoin(db, "A", "no_such_column", "B", "key", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, AssocJoinRequiresInnerPartitionedOnJoinColumn) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 100;
  spec.b_cardinality = 50;
  spec.degree = 5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  // "payload" is not the partition column of A.
  auto r = RunAssocJoin(db, "B", "key", "A", "payload", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryTest, WisconsinSelfJoinOnUnique1) {
  // Join tenk with itself via unique1 (a key): every tuple matches once.
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 10;
  opt.partition_kind = PartitionKind::kHash;
  ASSERT_TRUE(db.CreateWisconsin("tenk1", opt).ok());
  opt.seed = 77;  // Different permutation, same key set.
  ASSERT_TRUE(db.CreateWisconsin("tenk2", opt).ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  auto r = RunIdealJoin(db, "tenk1", "unique1", "tenk2", "unique1", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
  // Join output schema is the concatenation with collision prefixes.
  EXPECT_TRUE(r.value().result->schema().IndexOf("r_unique1").ok());
}

TEST(QueryTest, SelectivityOnePercentColumn) {
  Database db(2);
  WisconsinOptions opt;
  opt.cardinality = 10'000;
  opt.degree = 10;
  ASSERT_TRUE(db.CreateWisconsin("tenk", opt).ok());
  const size_t col =
      db.relation("tenk").value()->schema().IndexOf("onePercent").value();
  QueryOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  auto r = RunSelect(db, "tenk", ColumnEquals(col, Value(int64_t{7})), 0.01,
                     options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 100u);  // 1% of 10K.
}

TEST(QueryTest, ScheduleReportExposed) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 2'000;
  spec.b_cardinality = 200;
  spec.degree = 8;
  spec.theta = 1.0;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 8;
  options.algorithm = JoinAlgorithm::kNestedLoop;
  auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
  ASSERT_TRUE(r.ok());
  // The skewed triggered join was given LPT by step 4.
  EXPECT_EQ(r.value().schedule.strategies[0], Strategy::kLpt);
  EXPECT_EQ(r.value().schedule.total_threads, 4u);
  EXPECT_GT(r.value().execution.seconds, 0.0);
}

TEST(QueryTest, ResultNameHonored) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 100;
  spec.b_cardinality = 50;
  spec.degree = 5;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.result_name = "join_output";
  auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().result->name(), "join_output");
  // The result can be registered back into the database.
  ASSERT_TRUE(db.AddRelation(std::move(r.value().result)).ok());
  EXPECT_TRUE(db.relation("join_output").ok());
}

TEST(QueryTest, AllJoinAlgorithmsAgree) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 3'000;
  spec.b_cardinality = 300;
  spec.degree = 12;
  spec.theta = 0.7;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  QueryOptions options;
  options.schedule.total_threads = 3;
  options.schedule.processors = 4;
  uint64_t cardinality[2];
  int i = 0;
  for (JoinAlgorithm algo :
       {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
    options.algorithm = algo;
    auto r = RunIdealJoin(db, "A", "key", "B", "key", options);
    ASSERT_TRUE(r.ok()) << JoinAlgorithmName(algo);
    cardinality[i++] = r.value().result->cardinality();
  }
  EXPECT_EQ(cardinality[0], 3'000u);
  EXPECT_EQ(cardinality[0], cardinality[1]);
}

/// A 2,000-row Wisconsin relation "w" over 4 fragments.
void MakeWisconsin(Database& db) {
  WisconsinOptions opt;
  opt.cardinality = 2'000;
  opt.degree = 4;
  ASSERT_TRUE(db.CreateWisconsin("w", opt).ok());
}

TEST(QueryTest, DefaultPredicateKeepsEveryRow) {
  Database db(2);
  MakeWisconsin(db);
  auto r = RunSelect(db, "w", Predicate(), 1.0, {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
}

TEST(QueryTest, EmptyRowTestIsRefusedBeforeAnyWorkerRuns) {
  Database db(2);
  MakeWisconsin(db);
  auto r = RunSelect(db, "w", Predicate(TuplePredicate()), 1.0, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Also inside a conjunction, and the database keeps serving queries.
  auto conj = RunSelect(
      db, "w", PredExpr::And({ColumnBetween(0, 0, 9), TuplePredicate()}),
      1.0, {});
  EXPECT_EQ(conj.status().code(), StatusCode::kInvalidArgument);
  auto after = RunSelect(db, "w", ColumnBetween(0, 0, 9), 1.0, {});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().result->cardinality(), 10u);
}

// ---------------------------------------------------------------------
// Placement: every row of a registered relation sits in the fragment its
// partitioner picks, so an IdealJoin (fragment i with fragment i) cannot
// miss matches. Each entry point below once returned too few rows with OK.

Schema KeyValueSchema() {
  return Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
}

/// `(k, k % 10)` for k in [0, rows), placed by Insert: hash on column
/// `partition_column`, degree 4.
std::unique_ptr<Relation> PlacedKeyValues(const std::string& name,
                                          size_t partition_column,
                                          int64_t rows) {
  auto rel = std::make_unique<Relation>(
      name, KeyValueSchema(), partition_column,
      Partitioner(PartitionKind::kHash, 4));
  for (int64_t k = 0; k < rows; ++k) {
    EXPECT_TRUE(rel->Insert(Tuple({Value(k), Value(k % 10)})).ok());
  }
  return rel;
}

/// The same rows as PlacedKeyValues(name, 0, 100), all appended to
/// fragment 0.
std::unique_ptr<Relation> MisplacedKeyValues(const std::string& name) {
  auto rel = std::make_unique<Relation>(name, KeyValueSchema(), 0,
                                        Partitioner(PartitionKind::kHash, 4));
  for (int64_t k = 0; k < 100; ++k) {
    rel->AppendToFragment(0, Tuple({Value(k), Value(k % 10)}));
  }
  return rel;
}

/// The naive oracle: every (a, b) pair with a[a_col] == b[b_col], sorted.
std::vector<Tuple> NestedLoopJoin(const Relation& a, size_t a_col,
                                  const Relation& b, size_t b_col) {
  std::vector<Tuple> out;
  for (const Tuple& ta : a.Scan()) {
    for (const Tuple& tb : b.Scan()) {
      if (ta.at(a_col) == tb.at(b_col)) out.push_back(ta.Concat(tb));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Tuple> SortedRows(const Relation& rel) {
  std::vector<Tuple> rows = rel.Scan();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(PlacementTest, AddRelationRefusesARowOutsideItsFragment) {
  Database db(2);
  ASSERT_TRUE(db.AddRelation(PlacedKeyValues("A", 0, 100)).ok());
  const Status refused = db.AddRelation(MisplacedKeyValues("B"));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("'B'"), std::string::npos)
      << refused.message();
  EXPECT_NE(refused.message().find("fragment 0"), std::string::npos)
      << refused.message();
  EXPECT_FALSE(db.relation("B").ok());

  // Placed by Insert, the same rows register and join like the oracle.
  ASSERT_TRUE(db.AddRelation(PlacedKeyValues("B", 0, 100)).ok());
  auto joined = ExecuteEsql(db, "SELECT * FROM A JOIN B ON A.k = B.k");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(SortedRows(*joined.value().result),
            NestedLoopJoin(*db.relation("A").value(), 0,
                           *db.relation("B").value(), 0));
  EXPECT_EQ(joined.value().result->cardinality(), 100u);
}

TEST(PlacementTest, LoadRelationRefusesARowOutsideItsFragment) {
  Database db(2);
  ASSERT_TRUE(db.AddRelation(PlacedKeyValues("A", 0, 100)).ok());
  const std::string path =
      std::string(::testing::TempDir()) + "/misplaced_b.dbs3";
  ASSERT_TRUE(WriteRelation(*MisplacedKeyValues("B"), path).ok());
  EXPECT_EQ(db.LoadRelation(path).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.relation("B").ok());
  std::remove(path.c_str());

  ASSERT_TRUE(WriteRelation(*PlacedKeyValues("B", 0, 100), path).ok());
  ASSERT_TRUE(db.LoadRelation(path).ok());
  std::remove(path.c_str());
  auto joined = ExecuteEsql(db, "SELECT * FROM A JOIN B ON A.k = B.k");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(SortedRows(*joined.value().result),
            NestedLoopJoin(*db.relation("A").value(), 0,
                           *db.relation("B").value(), 0));
}

/// C(v, w) for v in [0, 10), placed by Insert: hash on v, degree 4.
std::unique_ptr<Relation> PlacedValueWeights() {
  auto c = std::make_unique<Relation>(
      "C", Schema({{"v", ValueType::kInt64}, {"w", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kHash, 4));
  for (int64_t v = 0; v < 10; ++v) {
    EXPECT_TRUE(c->Insert(Tuple({Value(v), Value(100 + v)})).ok());
  }
  return c;
}

TEST(PlacementTest, UnplacedEsqlResultIsRefusedAtRegistration) {
  // `SELECT v FROM A` keeps no partition column of A, so its result
  // declares hash partitioning on its column 0 (v), but its rows sit in
  // A's fragments, placed by k.
  Database db(2);
  ASSERT_TRUE(db.AddRelation(PlacedKeyValues("A", 0, 1'000)).ok());
  ASSERT_TRUE(db.AddRelation(PlacedValueWeights()).ok());
  EsqlOptions options;
  options.result_name = "P";
  auto projected = ExecuteEsql(db, "SELECT v FROM A", options);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  std::unique_ptr<Relation> p = std::move(projected.value().result);
  const std::vector<Tuple> p_rows = SortedRows(*p);
  EXPECT_EQ(db.AddRelation(std::move(p)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.relation("P").ok());

  // The same rows placed by Insert register, and the join the planner
  // then runs as an IdealJoin matches the oracle.
  auto placed = std::make_unique<Relation>(
      "P", Schema({{"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kHash, 4));
  for (const Tuple& t : p_rows) ASSERT_TRUE(placed->Insert(t).ok());
  ASSERT_TRUE(db.AddRelation(std::move(placed)).ok());
  auto joined = ExecuteEsql(db, "SELECT * FROM P JOIN C ON P.v = C.v");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_NE(joined.value().detail.find("IdealJoin(P, C)"), std::string::npos)
      << joined.value().detail;
  EXPECT_EQ(SortedRows(*joined.value().result),
            NestedLoopJoin(*db.relation("P").value(), 0,
                           *db.relation("C").value(), 0));
  EXPECT_EQ(joined.value().result->cardinality(), 1'000u);
}

TEST(PlacementTest, ScanResultKeepingThePartitionColumnIsPlaced) {
  // `SELECT v, k FROM A` keeps A's partition column k, so its result
  // declares A's placement on its column 1 and registers as it is.
  Database db(2);
  ASSERT_TRUE(db.AddRelation(PlacedKeyValues("A", 0, 1'000)).ok());
  ASSERT_TRUE(db.AddRelation(PlacedValueWeights()).ok());
  EsqlOptions options;
  options.result_name = "P";
  auto projected = ExecuteEsql(db, "SELECT v, k FROM A", options);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  const Status registered =
      db.AddRelation(std::move(projected.value().result));
  ASSERT_TRUE(registered.ok()) << registered.ToString();
  const Relation& p = *db.relation("P").value();
  EXPECT_EQ(p.partition_column(), 1u);
  EXPECT_EQ(p.partitioner(), db.relation("A").value()->partitioner());

  // Co-partitioned with A on k, P joins A as an IdealJoin; on v it is not
  // co-partitioned with C. Both match the oracle.
  auto on_k = ExecuteEsql(db, "SELECT * FROM P JOIN A ON P.k = A.k");
  ASSERT_TRUE(on_k.ok()) << on_k.status().ToString();
  EXPECT_NE(on_k.value().detail.find("IdealJoin(P, A)"), std::string::npos)
      << on_k.value().detail;
  EXPECT_EQ(SortedRows(*on_k.value().result),
            NestedLoopJoin(p, 1, *db.relation("A").value(), 0));
  EXPECT_EQ(on_k.value().result->cardinality(), 1'000u);
  auto on_v = ExecuteEsql(db, "SELECT * FROM P JOIN C ON P.v = C.v");
  ASSERT_TRUE(on_v.ok()) << on_v.status().ToString();
  EXPECT_EQ(on_v.value().detail.find("IdealJoin"), std::string::npos)
      << on_v.value().detail;
  EXPECT_EQ(SortedRows(*on_v.value().result),
            NestedLoopJoin(p, 0, *db.relation("C").value(), 0));

  // A projection that drops k is still refused.
  options.result_name = "Q";
  auto dropped = ExecuteEsql(db, "SELECT v FROM A", options);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(db.AddRelation(std::move(dropped.value().result)).code(),
            StatusCode::kInvalidArgument);
}

TEST(PlacementTest, FacadeIdealJoinRefusesOperandsNotPlacedOnTheJoinColumns) {
  // A and B are both hash on v: equal partitioners, but not on k.
  Database db(2);
  ASSERT_TRUE(db.AddRelation(PlacedKeyValues("A", 1, 100)).ok());
  ASSERT_TRUE(db.AddRelation(PlacedKeyValues("B", 1, 100)).ok());
  auto refused = RunIdealJoin(db, "A", "k", "B", "k", QueryOptions());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // Joined on their partition column they are co-partitioned.
  auto on_v = RunIdealJoin(db, "A", "v", "B", "v", QueryOptions());
  ASSERT_TRUE(on_v.ok()) << on_v.status().ToString();
  EXPECT_EQ(SortedRows(*on_v.value().result),
            NestedLoopJoin(*db.relation("A").value(), 1,
                           *db.relation("B").value(), 1));
}

}  // namespace
}  // namespace dbs3

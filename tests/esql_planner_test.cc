#include "esql/planner.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "storage/skew.h"

namespace dbs3 {
namespace {

/// A database with:
///  - residents(key, payload) / cities(key, payload): co-partitioned pair,
///  - orders: partitioned on its key,
///  - misaligned: partitioned on payload (not a join column).
class EsqlPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SkewSpec spec;
    spec.a_cardinality = 2'000;
    spec.b_cardinality = 200;
    spec.degree = 10;
    spec.theta = 0.4;
    ASSERT_TRUE(db_.CreateSkewedPair(spec, "residents", "cities").ok());

    // orders: modulo-partitioned on key like the pair (co-locatable).
    auto orders = std::make_unique<Relation>(
        "orders", Schema({{"key", ValueType::kInt64},
                          {"amount", ValueType::kInt64}}),
        0, Partitioner(PartitionKind::kModulo, 10));
    for (int64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(orders->Insert(Tuple({Value(k % 200), Value(k)})).ok());
    }
    ASSERT_TRUE(db_.AddRelation(std::move(orders)).ok());

    // misaligned: partitioned on its second column.
    auto misaligned = std::make_unique<Relation>(
        "misaligned", Schema({{"key", ValueType::kInt64},
                              {"grp", ValueType::kInt64}}),
        1, Partitioner(PartitionKind::kHash, 10));
    for (int64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(
          misaligned->Insert(Tuple({Value(k), Value(k % 7)})).ok());
    }
    ASSERT_TRUE(db_.AddRelation(std::move(misaligned)).ok());

    options_.schedule.total_threads = 4;
    options_.schedule.processors = 4;
  }

  Database db_{2};
  EsqlOptions options_;
};

TEST_F(EsqlPlannerTest, SelectStar) {
  auto r = ExecuteEsql(db_, "SELECT * FROM cities", options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 200u);
  EXPECT_TRUE(r.value().phases.empty());
}

TEST_F(EsqlPlannerTest, SelectWithWhereAndProjection) {
  auto r = ExecuteEsql(
      db_, "SELECT payload AS p FROM residents WHERE payload < 3",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->schema().num_columns(), 1u);
  EXPECT_EQ(r.value().result->schema().column(0).name, "p");
  for (const Tuple& t : r.value().result->Scan()) {
    EXPECT_LT(t.at(0).AsInt(), 3);
  }
}

TEST_F(EsqlPlannerTest, CoPartitionedJoinUsesIdealJoin) {
  auto r = ExecuteEsql(
      db_,
      "SELECT * FROM residents JOIN cities ON residents.key = cities.key",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().detail.find("IdealJoin"), std::string::npos)
      << r.value().detail;
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
}

TEST_F(EsqlPlannerTest, JoinWithPushdownUsesAssocJoin) {
  // A probe-side WHERE disables the IdealJoin shortcut; the planner scans
  // residents with the filter pushed down and probes cities.
  auto r = ExecuteEsql(db_,
                       "SELECT * FROM residents JOIN cities ON "
                       "residents.key = cities.key "
                       "WHERE residents.payload < 5",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().detail.find("AssocJoin"), std::string::npos)
      << r.value().detail;
  // residents.payload < 5 keeps 5 tuples per fragment... validate by
  // recomputing: every result row has payload < 5.
  const size_t payload_col = 1;
  for (const Tuple& t : r.value().result->Scan()) {
    EXPECT_LT(t.at(payload_col).AsInt(), 5);
  }
}

TEST_F(EsqlPlannerTest, MisalignedInnerSwapsProbeSide) {
  // misaligned is not partitioned on its join column, but residents is on
  // its own — the planner swaps the probe side instead of materializing.
  auto r = ExecuteEsql(
      db_,
      "SELECT * FROM residents JOIN misaligned ON residents.key = "
      "misaligned.key",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().detail.find("probe=misaligned"),
            std::string::npos)
      << r.value().detail;
  EXPECT_TRUE(r.value().phases.empty());
  // misaligned keys 0..199 each match the residents holding that key:
  // total matches = |residents| with key < 200 = all 2000 (keys are drawn
  // from cities' 200-key domain).
  EXPECT_EQ(r.value().result->cardinality(), 2'000u);
}

TEST_F(EsqlPlannerTest, FullyMisalignedJoinRepartitions) {
  // Neither side is partitioned on its join column: the planner
  // materializes a repartition of the right side first (a subquery
  // boundary), then runs an AssocJoin.
  auto r = ExecuteEsql(
      db_,
      "SELECT * FROM misaligned JOIN orders ON misaligned.key = "
      "orders.amount",
      options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().detail.find("repartition"), std::string::npos)
      << r.value().detail;
  EXPECT_EQ(r.value().phases.size(), 1u);  // Materialization boundary.
  // orders.amount runs 0..499, misaligned.key runs 0..199: 200 matches.
  EXPECT_EQ(r.value().result->cardinality(), 200u);
}

TEST_F(EsqlPlannerTest, GroupByWithAggregates) {
  auto r = ExecuteEsql(db_,
                       "SELECT key, COUNT(*) AS n, SUM(amount) AS total "
                       "FROM orders GROUP BY key",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 200 distinct keys; counts sum to 500.
  EXPECT_EQ(r.value().result->cardinality(), 200u);
  int64_t count_sum = 0, amount_sum = 0;
  for (const Tuple& t : r.value().result->Scan()) {
    count_sum += t.at(1).AsInt();
    amount_sum += t.at(2).AsInt();
  }
  EXPECT_EQ(count_sum, 500);
  EXPECT_EQ(amount_sum, 499 * 500 / 2);
  EXPECT_EQ(r.value().result->schema().column(1).name, "n");
}

TEST_F(EsqlPlannerTest, GroupKeysGloballyDistinct) {
  // The repartition before group-by must co-locate equal keys: no key may
  // appear in two result rows.
  auto r = ExecuteEsql(db_, "SELECT key, COUNT(*) FROM orders GROUP BY key",
                       options_);
  ASSERT_TRUE(r.ok());
  std::map<int64_t, int> seen;
  for (const Tuple& t : r.value().result->Scan()) {
    ++seen[t.at(0).AsInt()];
  }
  for (const auto& [key, times] : seen) {
    EXPECT_EQ(times, 1) << "key " << key << " split across instances";
  }
}

TEST_F(EsqlPlannerTest, GlobalAggregateWithoutGroupBy) {
  auto r = ExecuteEsql(db_,
                       "SELECT COUNT(*) AS n, MIN(amount) AS lo, "
                       "MAX(amount) AS hi FROM orders WHERE amount >= 100",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().result->cardinality(), 1u);
  const Tuple row = r.value().result->Scan()[0];
  // Columns: [_const group key, n, lo, hi].
  EXPECT_EQ(row.at(1).AsInt(), 400);
  EXPECT_EQ(row.at(2).AsInt(), 100);
  EXPECT_EQ(row.at(3).AsInt(), 499);
}

TEST_F(EsqlPlannerTest, OrderBySortsEachFragment) {
  auto r = ExecuteEsql(
      db_, "SELECT amount FROM orders ORDER BY amount DESC", options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 500u);
  // Each result fragment is internally descending.
  const Relation& res = *r.value().result;
  for (size_t f = 0; f < res.degree(); ++f) {
    const auto& tuples = res.fragment(f).tuples;
    for (size_t i = 1; i < tuples.size(); ++i) {
      EXPECT_LE(tuples[i].at(0).AsInt(), tuples[i - 1].at(0).AsInt())
          << "fragment " << f;
    }
  }
}

TEST_F(EsqlPlannerTest, JoinThenGroupBy) {
  auto r = ExecuteEsql(db_,
                       "SELECT payload, COUNT(*) AS n FROM residents JOIN "
                       "cities ON residents.key = cities.key "
                       "GROUP BY residents.payload",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t total = 0;
  for (const Tuple& t : r.value().result->Scan()) total += t.at(1).AsInt();
  EXPECT_EQ(total, 2'000);
}

TEST_F(EsqlPlannerTest, ThreeWayJoinChain) {
  auto r = ExecuteEsql(db_,
                       "SELECT * FROM residents "
                       "JOIN cities ON residents.key = cities.key "
                       "JOIN orders ON cities.key = orders.key",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Reference cardinality: every resident matches exactly one city; each
  // key k appears in orders (500 rows of k % 200) 3x for k < 100, 2x
  // otherwise.
  uint64_t expected = 0;
  for (const Tuple& t : db_.relation("residents").value()->Scan()) {
    expected += t.at(0).AsInt() < 100 ? 3 : 2;
  }
  EXPECT_EQ(r.value().result->cardinality(), expected);
  // Two pipelined joins in one chain, no materialization.
  EXPECT_TRUE(r.value().phases.empty());
  EXPECT_NE(r.value().detail.find("inner=cities"),
            std::string::npos);
  EXPECT_NE(r.value().detail.find("inner=orders"),
            std::string::npos);
}

TEST_F(EsqlPlannerTest, ThreeWayJoinWithAggregation) {
  auto r = ExecuteEsql(db_,
                       "SELECT COUNT(*) AS n, SUM(amount) AS total "
                       "FROM residents "
                       "JOIN cities ON residents.key = cities.key "
                       "JOIN orders ON cities.key = orders.key "
                       "WHERE amount < 200",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().result->cardinality(), 1u);
  const Tuple row = r.value().result->Scan()[0];
  // amount < 200 keeps orders rows 0..199 (key = amount % 200 = amount):
  // each such order joins the residents holding that key once per
  // resident; total matches = sum over orders k<200 of resident count of
  // key k.
  std::map<int64_t, int64_t> residents_per_key;
  for (const Tuple& t : db_.relation("residents").value()->Scan()) {
    ++residents_per_key[t.at(0).AsInt()];
  }
  int64_t expected_n = 0, expected_total = 0;
  for (int64_t amount = 0; amount < 200; ++amount) {
    expected_n += residents_per_key[amount % 200];
    expected_total += amount * residents_per_key[amount % 200];
  }
  EXPECT_EQ(row.at(1).AsInt(), expected_n);
  EXPECT_EQ(row.at(2).AsInt(), expected_total);
}

TEST_F(EsqlPlannerTest, SemanticErrors) {
  EXPECT_EQ(ExecuteEsql(db_, "SELECT * FROM nope", options_)
                .status()
                .code(),
            StatusCode::kNotFound);
  const Status unknown_item =
      ExecuteEsql(db_, "SELECT zzz FROM orders", options_).status();
  EXPECT_EQ(unknown_item.code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown_item.message(), "unknown column 'zzz'");
  // WHERE resolves before the select list, so its column is reported.
  const Status where_first =
      ExecuteEsql(db_, "SELECT zzz FROM orders WHERE yyy < 3", options_)
          .status();
  EXPECT_EQ(where_first.code(), StatusCode::kNotFound);
  EXPECT_EQ(where_first.message(), "unknown column 'yyy'");
  // GROUP BY without aggregates.
  EXPECT_FALSE(
      ExecuteEsql(db_, "SELECT key FROM orders GROUP BY key", options_)
          .ok());
  // Plain select item that is not the grouping column.
  EXPECT_FALSE(ExecuteEsql(db_,
                           "SELECT amount, COUNT(*) FROM orders GROUP BY "
                           "key",
                           options_)
                   .ok());
  // Join condition referencing only one side.
  EXPECT_FALSE(ExecuteEsql(db_,
                           "SELECT * FROM residents JOIN cities ON "
                           "residents.key = residents.payload",
                           options_)
                   .ok());
  // A WHERE column no FROM relation has, and one both have.
  const Status unknown =
      ExecuteEsql(db_, "SELECT * FROM orders WHERE zzz < 3", options_)
          .status();
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.message(), "unknown column 'zzz'");
  const Status ambiguous =
      ExecuteEsql(db_,
                  "SELECT * FROM residents JOIN cities ON residents.key = "
                  "cities.key WHERE key < 3",
                  options_)
          .status();
  EXPECT_EQ(ambiguous.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ambiguous.message(),
            "ambiguous column 'key' (qualify it with the relation name)");
}

TEST_F(EsqlPlannerTest, BadWhereColumnFailsBeforeAnyPhase) {
  // misaligned must be repartitioned before the join can run; the unknown
  // WHERE column fails the query before that phase starts.
  QueryHandle handle = SubmitEsql(
      db_,
      "SELECT * FROM orders JOIN misaligned ON orders.amount = "
      "misaligned.key WHERE zzz < 1",
      options_);
  auto r = handle.Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(handle.stats().phases, 0u);
}

TEST_F(EsqlPlannerTest, RelationNamedLikeARepartitionKeepsItsName) {
  // A relation whose own name ends in "_repart" is bound under that name.
  auto named = std::make_unique<Relation>(
      "orders_repart", db_.relation("orders").value()->schema(), 0,
      Partitioner(PartitionKind::kModulo, 10));
  for (const Tuple& t : db_.relation("orders").value()->Scan()) {
    ASSERT_TRUE(named->Insert(t).ok());
  }
  ASSERT_TRUE(db_.AddRelation(std::move(named)).ok());
  auto r = ExecuteEsql(db_,
                       "SELECT orders_repart.amount FROM misaligned JOIN "
                       "orders_repart ON misaligned.key = orders_repart.key",
                       options_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().result->cardinality(), 500u);
  EXPECT_EQ(r.value().detail,
            "scan(misaligned) ; AssocJoin(probe=misaligned, "
            "inner=orders_repart) ; project ; store");
}

TEST_F(EsqlPlannerTest, ParseErrorsPropagate) {
  auto r = ExecuteEsql(db_, "SELEKT * FROM x", options_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dbs3

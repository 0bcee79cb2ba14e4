// Differential testing of the ESQL engine: randomly generated queries over
// a small database are executed by the parallel engine and by a trivial
// single-threaded reference evaluator; results must agree exactly.

#include <algorithm>
#include <map>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "esql/planner.h"

namespace dbs3 {
namespace {

/// Reference evaluation of the supported query shape over full scans.
struct ReferenceResult {
  std::vector<Tuple> rows;  ///< Unordered (sorted before comparison).
};

bool EvalComparison(const Value& v, Comparison::Op op, const Value& lit) {
  switch (op) {
    case Comparison::Op::kEq:
      return v == lit;
    case Comparison::Op::kNe:
      return v != lit;
    case Comparison::Op::kLt:
      return v < lit;
    case Comparison::Op::kLe:
      return v < lit || v == lit;
    case Comparison::Op::kGt:
      return lit < v;
    case Comparison::Op::kGe:
      return lit < v || v == lit;
  }
  return false;
}

/// Evaluates `SELECT ... FROM A [JOIN B ON a=b] [WHERE ...] [GROUP BY g]`
/// with columns resolved by caller-provided indices.
ReferenceResult ReferenceEval(
    const Relation& a, std::optional<const Relation*> b, size_t a_col,
    size_t b_col, const std::vector<std::pair<size_t, Comparison>>& where,
    std::optional<size_t> group_col, const std::vector<AggSpec>& aggs,
    const std::vector<size_t>& projection) {
  // 1. Join (or plain scan).
  std::vector<Tuple> joined;
  if (b.has_value()) {
    for (const Tuple& ta : a.Scan()) {
      for (const Tuple& tb : (*b)->Scan()) {
        if (ta.at(a_col) == tb.at(b_col)) joined.push_back(ta.Concat(tb));
      }
    }
  } else {
    joined = a.Scan();
  }
  // 2. Filter.
  std::vector<Tuple> filtered;
  for (const Tuple& t : joined) {
    bool keep = true;
    for (const auto& [col, cmp] : where) {
      if (!EvalComparison(t.at(col), cmp.op, cmp.literal)) {
        keep = false;
        break;
      }
    }
    if (keep) filtered.push_back(t);
  }
  // 3. Group / project.
  ReferenceResult out;
  if (!aggs.empty()) {
    std::map<Value, std::vector<int64_t>> groups;
    std::map<Value, std::vector<bool>> seen;
    for (const Tuple& t : filtered) {
      const Value key =
          group_col.has_value() ? t.at(*group_col) : Value(int64_t{0});
      auto& acc = groups[key];
      auto& sn = seen[key];
      if (acc.empty()) {
        acc.assign(aggs.size(), 0);
        sn.assign(aggs.size(), false);
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        const AggSpec& spec = aggs[i];
        if (spec.kind == AggKind::kCount) {
          ++acc[i];
          continue;
        }
        const int64_t x = t.at(spec.column).AsInt();
        switch (spec.kind) {
          case AggKind::kSum:
            acc[i] += x;
            break;
          case AggKind::kMin:
            acc[i] = sn[i] ? std::min(acc[i], x) : x;
            break;
          case AggKind::kMax:
            acc[i] = sn[i] ? std::max(acc[i], x) : x;
            break;
          case AggKind::kCount:
            break;
        }
        sn[i] = true;
      }
    }
    for (const auto& [key, acc] : groups) {
      std::vector<Value> values = {key};
      for (int64_t v : acc) values.emplace_back(v);
      out.rows.push_back(Tuple(std::move(values)));
    }
  } else {
    for (const Tuple& t : filtered) {
      if (projection.empty()) {
        out.rows.push_back(t);
      } else {
        std::vector<Value> values;
        for (size_t c : projection) values.push_back(t.at(c));
        out.rows.push_back(Tuple(std::move(values)));
      }
    }
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

class EsqlDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    // r(k, v, w): modulo-partitioned on k; s(k, x): modulo on k too.
    Rng rng(GetParam());
    auto r = std::make_unique<Relation>(
        "r",
        Schema({{"k", ValueType::kInt64},
                {"v", ValueType::kInt64},
                {"w", ValueType::kInt64}}),
        0, Partitioner(PartitionKind::kModulo, 7));
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(r->Insert(Tuple({Value(rng.Range(0, 40)),
                                   Value(rng.Range(-20, 20)),
                                   Value(rng.Range(0, 5))}))
                      .ok());
    }
    auto s = std::make_unique<Relation>(
        "s", Schema({{"k", ValueType::kInt64}, {"x", ValueType::kInt64}}),
        0, Partitioner(PartitionKind::kModulo, 7));
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          s->Insert(Tuple({Value(rng.Range(0, 40)), Value(rng.Range(0, 9))}))
              .ok());
    }
    // m(k, y): modulo on y, not on its join column k, so a join of r and
    // m probes with m (the planner swaps the join's sides).
    auto m = std::make_unique<Relation>(
        "m", Schema({{"k", ValueType::kInt64}, {"y", ValueType::kInt64}}),
        1, Partitioner(PartitionKind::kModulo, 7));
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(
          m->Insert(Tuple({Value(rng.Range(0, 40)), Value(rng.Range(0, 9))}))
              .ok());
    }
    ASSERT_TRUE(db_.AddRelation(std::move(r)).ok());
    ASSERT_TRUE(db_.AddRelation(std::move(s)).ok());
    ASSERT_TRUE(db_.AddRelation(std::move(m)).ok());
    options_.schedule.total_threads = 3;
    options_.schedule.processors = 4;
  }

  std::vector<Tuple> RunEngine(const std::string& query) {
    auto result = ExecuteEsql(db_, query, options_);
    EXPECT_TRUE(result.ok()) << query << " -> "
                             << result.status().ToString();
    if (!result.ok()) return {};
    std::vector<Tuple> rows = result.value().result->Scan();
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Database db_{2};
  EsqlOptions options_;
};

TEST_P(EsqlDifferentialTest, FilterScan) {
  Rng rng(GetParam() * 13 + 1);
  const int64_t lit = rng.Range(-10, 10);
  const std::string query =
      "SELECT * FROM r WHERE v >= " + std::to_string(lit);
  Comparison cmp;
  cmp.op = Comparison::Op::kGe;
  cmp.literal = Value(lit);
  const ReferenceResult expected =
      ReferenceEval(*db_.relation("r").value(), std::nullopt, 0, 0,
                    {{1, cmp}}, std::nullopt, {}, {});
  EXPECT_EQ(RunEngine(query), expected.rows) << query;
}

TEST_P(EsqlDifferentialTest, JoinWithFilter) {
  Rng rng(GetParam() * 31 + 2);
  const int64_t lit = rng.Range(0, 8);
  const std::string query =
      "SELECT * FROM r JOIN s ON r.k = s.k WHERE x < " +
      std::to_string(lit);
  Comparison cmp;
  cmp.op = Comparison::Op::kLt;
  cmp.literal = Value(lit);
  // Joined schema: r columns (3) then s columns; x is column 4.
  const Relation* s = db_.relation("s").value();
  const ReferenceResult expected =
      ReferenceEval(*db_.relation("r").value(), s, 0, 0, {{4, cmp}},
                    std::nullopt, {}, {});
  EXPECT_EQ(RunEngine(query), expected.rows) << query;
}

TEST_P(EsqlDifferentialTest, GroupByAggregates) {
  const std::string query =
      "SELECT w, COUNT(*), SUM(v), MIN(v), MAX(v) FROM r GROUP BY w";
  const ReferenceResult expected = ReferenceEval(
      *db_.relation("r").value(), std::nullopt, 0, 0, {}, /*group_col=*/2,
      {{AggKind::kCount, 0}, {AggKind::kSum, 1}, {AggKind::kMin, 1},
       {AggKind::kMax, 1}},
      {});
  EXPECT_EQ(RunEngine(query), expected.rows) << query;
}

TEST_P(EsqlDifferentialTest, JoinGroupByWithWhere) {
  Rng rng(GetParam() * 57 + 3);
  const int64_t lit = rng.Range(-5, 5);
  const std::string query =
      "SELECT w, COUNT(*) , SUM(x) FROM r JOIN s ON r.k = s.k WHERE v > " +
      std::to_string(lit) + " GROUP BY w";
  Comparison cmp;
  cmp.op = Comparison::Op::kGt;
  cmp.literal = Value(lit);
  const Relation* s = db_.relation("s").value();
  const ReferenceResult expected = ReferenceEval(
      *db_.relation("r").value(), s, 0, 0, {{1, cmp}}, /*group_col=*/2,
      {{AggKind::kCount, 0}, {AggKind::kSum, 4}}, {});
  EXPECT_EQ(RunEngine(query), expected.rows) << query;
}

TEST_P(EsqlDifferentialTest, Projection) {
  const std::string query = "SELECT v, k FROM r WHERE w = 3";
  Comparison cmp;
  cmp.op = Comparison::Op::kEq;
  cmp.literal = Value(int64_t{3});
  const ReferenceResult expected =
      ReferenceEval(*db_.relation("r").value(), std::nullopt, 0, 0,
                    {{2, cmp}}, std::nullopt, {}, {1, 0});
  EXPECT_EQ(RunEngine(query), expected.rows) << query;
}

TEST_P(EsqlDifferentialTest, SwappedJoinMatchesReference) {
  // m is not partitioned on k and r is, so m probes r and the pipeline
  // runs in (m, r) order; SELECT * still lists r's columns first.
  Rng rng(GetParam() * 71 + 4);
  const int64_t lit = rng.Range(-10, 10);
  const Relation& r = *db_.relation("r").value();
  const Relation* m = db_.relation("m").value();
  const std::string star = "SELECT * FROM r JOIN m ON r.k = m.k";
  EXPECT_EQ(RunEngine(star),
            ReferenceEval(r, m, 0, 0, {}, std::nullopt, {}, {}).rows)
      << star;

  const std::string grouped =
      "SELECT w, COUNT(*), SUM(y), MAX(v) FROM r JOIN m ON r.k = m.k "
      "WHERE v < " +
      std::to_string(lit) + " GROUP BY w";
  Comparison cmp;
  cmp.op = Comparison::Op::kLt;
  cmp.literal = Value(lit);
  // Joined schema: r's columns (3) then m's; y is column 4.
  EXPECT_EQ(RunEngine(grouped),
            ReferenceEval(r, m, 0, 0, {{1, cmp}}, /*group_col=*/2,
                          {{AggKind::kCount, 0},
                           {AggKind::kSum, 4},
                           {AggKind::kMax, 1}},
                          {})
                .rows)
      << grouped;
}

TEST_P(EsqlDifferentialTest, BudgetedExecutionMatchesUnbudgeted) {
  // Under a declared memory budget the joins' refused build charges spill
  // (hybrid hash) and group-by flips into its two-phase spill mode;
  // results must be identical to the unconstrained in-memory plan at any
  // budget.
  const std::vector<std::string> queries = {
      "SELECT w, COUNT(*), SUM(x), MIN(v), MAX(v) FROM r JOIN s "
      "ON r.k = s.k GROUP BY w",
      "SELECT * FROM r JOIN s ON r.k = s.k",
  };
  for (const std::string& query : queries) {
    options_.memory_units = 0;
    const std::vector<Tuple> unbudgeted = RunEngine(query);
    for (uint64_t budget : {uint64_t{4}, uint64_t{32}, uint64_t{100'000}}) {
      options_.memory_units = budget;
      EXPECT_EQ(RunEngine(query), unbudgeted)
          << query << " budget=" << budget;
    }
    options_.memory_units = 0;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EsqlDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dbs3

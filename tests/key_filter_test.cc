// Tests of the probe-side key filter: the Bloom filter itself (no false
// negatives through every evaluation path, a bounded false-positive rate),
// and the planner rule that ANDs it into an AssocJoin's probe scan — rows
// identical to a naive oracle across chunk sizes, join algorithms, row and
// typed predicates, spilling budgets and key types, with the saving
// visible in the scan's stats.

#include "engine/vector/key_filter.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/rng.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/vector/column_batch.h"
#include "engine/vector/pred.h"
#include "esql/planner.h"

namespace dbs3 {
namespace {

// --------------------------------------------------------------- Filter --

std::shared_ptr<const KeyFilter> FilterOver(const std::vector<Value>& keys) {
  auto filter = std::make_shared<KeyFilter>(keys.size());
  for (const Value& k : keys) filter->Insert(k.Hash());
  return filter;
}

/// 20K distinct seeded int keys, including the edge values.
std::vector<Value> IntKeys() {
  std::set<int64_t> raw = {0, -1, 1, std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  Rng rng(17);
  while (raw.size() < 20'000) {
    raw.insert(static_cast<int64_t>(rng()));
    raw.insert(rng.Range(-1'000'000, 1'000'000));
  }
  std::vector<Value> keys;
  for (int64_t k : raw) keys.emplace_back(k);
  return keys;
}

/// 1K short strings (at most 15 chars) and 1K long ones (at least 16).
std::vector<Value> StringKeys() {
  std::vector<Value> keys;
  for (int i = 0; i < 1'000; ++i) {
    keys.emplace_back("s" + std::to_string(i * 7919));
    keys.emplace_back("a-long-string-key-" + std::to_string(i));
  }
  return keys;
}

/// Every key must pass the membership test, EvalRow, EvalPredAll, and
/// EvalPredFilter over a selection. Tiles hold `keys` in column 1 (column 0
/// is a row id), so an all-int key set gathers an int column and anything
/// else takes the Value path.
void ExpectEveryKeyPasses(const std::vector<Value>& keys) {
  const std::shared_ptr<const KeyFilter> filter = FilterOver(keys);
  const PredExpr leaf = PredExpr::InKeyFilter(1, filter);
  std::vector<Tuple> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.push_back(Tuple({Value(static_cast<int64_t>(i)), keys[i]}));
  }
  for (const Tuple& row : rows) {
    ASSERT_TRUE(filter->MayContain(row.at(1).Hash())) << row.ToString();
    ASSERT_TRUE(leaf.EvalRow(row)) << row.ToString();
  }
  Arena arena;
  constexpr size_t kTile = 1024;
  for (size_t base = 0; base < rows.size(); base += kTile) {
    const size_t n = std::min(kTile, rows.size() - base);
    ScopedArena scope(&arena);
    ColumnBatch batch(std::span<const Tuple>(rows.data() + base, n), &arena);
    uint32_t* sel = arena.AllocateArrayOf<uint32_t>(n);
    ASSERT_EQ(EvalPredAll(leaf, batch, sel), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(sel[i], i);
    // Every third row, filtered in place: the selection survives intact.
    size_t count = 0;
    for (size_t i = 0; i < n; i += 3) sel[count++] = static_cast<uint32_t>(i);
    ASSERT_EQ(EvalPredFilter(leaf, batch, sel, count), count);
    for (size_t i = 0; i < count; ++i) ASSERT_EQ(sel[i], i * 3);
  }
}

TEST(KeyFilterTest, NoFalseNegativesOverIntKeys) {
  const std::vector<Value> keys = IntKeys();
  ASSERT_GE(keys.size(), 20'000u);
  ExpectEveryKeyPasses(keys);  // All-int tiles.
}

TEST(KeyFilterTest, NoFalseNegativesOverStringKeys) {
  const std::vector<Value> keys = StringKeys();
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_LE(keys[i].AsString().size(), 15u);
    ASSERT_GE(keys[i + 1].AsString().size(), 16u);
  }
  ExpectEveryKeyPasses(keys);
}

TEST(KeyFilterTest, NoFalseNegativesOnMixedTiles) {
  // Ints and strings interleaved in one column: no tile gathers as ints,
  // so the batch kernels hash through Value::Hash like the row path.
  std::vector<Value> keys;
  const std::vector<Value> ints = IntKeys();
  const std::vector<Value> strings = StringKeys();
  for (size_t i = 0; i < strings.size(); ++i) {
    keys.push_back(ints[i]);
    keys.push_back(strings[i]);
  }
  ExpectEveryKeyPasses(keys);
}

TEST(KeyFilterTest, FalsePositiveRateUnderOnePercent) {
  // W2's shape in join_mix: 20K inner keys, probes spanning 200K values.
  std::vector<Value> inner;
  for (int64_t k = 0; k < 20'000; ++k) inner.emplace_back(k);
  const std::shared_ptr<const KeyFilter> filter = FilterOver(inner);
  EXPECT_EQ(filter->num_words(), 8'192u);  // 16 bits/key, power of two.
  size_t passed = 0;
  for (int64_t k = 20'000; k < 200'000; ++k) {
    passed += filter->MayContain(Value(k).Hash()) ? 1 : 0;
  }
  EXPECT_LE(passed, 1'800u) << passed << " of 180000 absent keys passed";
}

TEST(KeyFilterTest, EmptyFilterRejectsEverything) {
  const std::shared_ptr<const KeyFilter> filter = FilterOver({});
  EXPECT_EQ(filter->num_words(), 1u);
  for (int64_t k = -100; k < 100; ++k) {
    EXPECT_FALSE(filter->MayContain(Value(k).Hash()));
  }
}

TEST(KeyFilterTest, AndKeepsTheKeyFilterInOneFlatConjunction) {
  const PredExpr leaf =
      PredExpr::InKeyFilter(0, FilterOver({Value(int64_t{5})}));
  // MatchAll AND leaf is the leaf alone.
  const PredExpr alone = PredExpr::And({MatchAll(), leaf});
  EXPECT_EQ(alone.kind, PredExpr::Kind::kKeyFilter);
  // A typed conjunction gains one more child.
  const PredExpr typed = PredExpr::And(
      {PredExpr::And({PredExpr::IntLess(0, 10), PredExpr::IntGreater(0, 0)}),
       leaf});
  ASSERT_EQ(typed.kind, PredExpr::Kind::kAnd);
  EXPECT_EQ(typed.children.size(), 3u);
  EXPECT_TRUE(typed.EvalRow(Tuple({Value(int64_t{5})})));
  EXPECT_FALSE(typed.EvalRow(Tuple({Value(int64_t{50})})));
  // A row test is one more leaf of the same conjunction, tested first.
  const PredExpr custom = PredExpr::And(
      {Predicate([](const Tuple& t) { return t.at(0).AsInt() != 7; }), leaf});
  ASSERT_EQ(custom.kind, PredExpr::Kind::kAnd);
  ASSERT_EQ(custom.children.size(), 2u);
  EXPECT_EQ(custom.children[0].kind, PredExpr::Kind::kRow);
  EXPECT_EQ(custom.children[1].kind, PredExpr::Kind::kKeyFilter);
  EXPECT_TRUE(custom.EvalRow(Tuple({Value(int64_t{5})})));
  EXPECT_FALSE(custom.EvalRow(Tuple({Value(int64_t{7})})));
}

// ------------------------------------------------------------ Plan rule --

/// One plan-test configuration: key type, chunk size, path, budget. The
/// path is `true` for the engine's default (typed predicates, hash join
/// with its batched probe) and `false` for a reference that runs no probe
/// kernel: the nested-loop join, with the facade's typed predicate wrapped
/// as an opaque row leaf.
using PlanConfig = std::tuple<bool, size_t, bool, uint64_t>;

/// P (2000 rows) and Q (100 rows) probe I (200 rows, partitioned on its
/// key). P's keys span 10x I's, so 90% of P's rows have no partner; Q's
/// keys all match. Schemas: P/Q(k, v), I(k, x).
class KeyFilterPlanTest : public ::testing::TestWithParam<PlanConfig> {
 protected:
  static constexpr int64_t kVBelow = 5;

  void SetUp() override {
    string_keys_ = std::get<0>(GetParam());
    const ValueType key_type =
        string_keys_ ? ValueType::kString : ValueType::kInt64;
    auto make = [&](const std::string& name, const std::string& payload,
                    size_t partition_column) {
      return std::make_unique<Relation>(
          name, Schema({{"k", key_type}, {payload, ValueType::kInt64}}),
          partition_column, Partitioner(PartitionKind::kHash, 4));
    };
    auto p = make("P", "v", 1);
    auto q = make("Q", "v", 1);
    auto i = make("I", "x", 0);
    Rng rng(7);
    for (int64_t n = 0; n < 2'000; ++n) {
      ASSERT_TRUE(p->Insert(Tuple({Key(rng.Range(0, 1'999)),
                                   Value(rng.Range(0, 9))}))
                      .ok());
    }
    for (int64_t n = 0; n < 100; ++n) {
      ASSERT_TRUE(q->Insert(Tuple({Key(rng.Range(0, 199)),
                                   Value(rng.Range(0, 9))}))
                      .ok());
    }
    for (int64_t n = 0; n < 200; ++n) {
      ASSERT_TRUE(i->Insert(Tuple({Key(n), Value(n * 3)})).ok());
    }
    ASSERT_TRUE(db_.AddRelation(std::move(p)).ok());
    ASSERT_TRUE(db_.AddRelation(std::move(q)).ok());
    ASSERT_TRUE(db_.AddRelation(std::move(i)).ok());
  }

  /// Short keys for even ids, long (>= 16 chars) for odd ones.
  Value Key(int64_t id) const {
    if (!string_keys_) return Value(id);
    if (id % 2 == 0) return Value("k" + std::to_string(id));
    return Value("a-long-join-key-" + std::to_string(id));
  }

  template <typename Options>
  Options Configure() const {
    Options options;
    options.schedule.total_threads = 3;
    options.schedule.processors = 4;
    options.schedule.chunk_size = std::get<1>(GetParam());
    options.algorithm =
        KernelPath() ? JoinAlgorithm::kHash : JoinAlgorithm::kNestedLoop;
    options.memory_units = std::get<3>(GetParam());
    return options;
  }

  static bool KernelPath() { return std::get<2>(GetParam()); }

  /// `predicate` as is on the kernel path; on the reference path, the same
  /// test wrapped as an opaque row leaf.
  static Predicate OnPath(const Predicate& predicate) {
    if (KernelPath()) return predicate;
    return [predicate](const Tuple& t) { return predicate.EvalRow(t); };
  }

  const Relation& Rel(const std::string& name) {
    return *db_.relation(name).value();
  }

  /// Naive nested-loop join of probe ⋈ I on k, probe rows kept by `keep`
  /// and I's rows by `keep_inner`.
  template <typename Keep>
  std::vector<Tuple> Oracle(
      const std::string& probe, Keep keep, uint64_t* matching_probe_rows,
      const std::function<bool(const Tuple&)>& keep_inner =
          [](const Tuple&) { return true; }) {
    std::vector<Tuple> out;
    *matching_probe_rows = 0;
    for (const Tuple& r : Rel(probe).Scan()) {
      if (!keep(r)) continue;
      bool matched = false;
      for (const Tuple& s : Rel("I").Scan()) {
        if (keep_inner(s) && r.at(0) == s.at(0)) {
          out.push_back(r.Concat(s));
          matched = true;
        }
      }
      *matching_probe_rows += matched ? 1 : 0;
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static std::vector<Tuple> Sorted(const Relation& rel) {
    std::vector<Tuple> rows = rel.Scan();
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static uint64_t Processed(const OperationStats& op) {
    uint64_t n = 0;
    for (uint64_t c : op.per_instance_processed) n += c;
    return n;
  }

  /// Checks the scan → join stats of a probe scan that read `input_rows`,
  /// of which `kept` passed the caller's predicate and `matches` also have a
  /// partner: the join probes exactly what the scan emitted; an admitted
  /// filter ships fewer rows than the predicate kept, a declined one all.
  void ExpectScanShipped(const ExecutionResult& execution, bool filtered,
                         uint64_t input_rows, uint64_t kept,
                         uint64_t matches) {
    ASSERT_GE(execution.op_stats.size(), 2u);
    const OperationStats& scan = execution.op_stats[0];
    const OperationStats& join = execution.op_stats[1];
    EXPECT_GE(scan.emitted, matches);
    EXPECT_LE(scan.emitted, input_rows);
    EXPECT_EQ(Processed(join), scan.emitted);
    if (filtered) {
      EXPECT_LT(scan.emitted, kept);
      // At most 1% of the absent rows pass the filter.
      EXPECT_LE(scan.emitted, matches + (kept - matches) / 100);
    } else {
      EXPECT_EQ(scan.emitted, kept);
    }
  }

  /// Budgeted hash joins spill; a nested-loop join builds nothing and
  /// charges nothing, so only its rows are checked.
  void ExpectSpilledIfBudgeted(const ExecutionResult& execution) {
    if (std::get<3>(GetParam()) == 0 || !KernelPath()) return;
    auto it = execution.metrics.counters.find("spill.bytes_written");
    ASSERT_NE(it, execution.metrics.counters.end());
    EXPECT_GT(it->second, 0u);
  }

  bool string_keys_ = false;
  Database db_{2};
};

TEST_P(KeyFilterPlanTest, EsqlAssocJoinMatchesOracle) {
  const auto keep = [](const Tuple& t) { return t.at(1).AsInt() < kVBelow; };
  for (const std::string& probe : {std::string("P"), std::string("Q")}) {
    const bool filtered = probe == "P";  // Only P has >= I's rows.
    const std::string query = "SELECT * FROM " + probe + " JOIN I ON " +
                              probe + ".k = I.k WHERE " + probe + ".v < " +
                              std::to_string(kVBelow);
    auto r = ExecuteEsql(db_, query, Configure<EsqlOptions>());
    ASSERT_TRUE(r.ok()) << query << " -> " << r.status().ToString();
    uint64_t matches = 0;
    EXPECT_EQ(Sorted(*r.value().result), Oracle(probe, keep, &matches))
        << query;
    uint64_t kept = 0;
    for (const Tuple& t : Rel(probe).Scan()) kept += keep(t) ? 1 : 0;
    ExpectScanShipped(r.value().execution, filtered,
                      Rel(probe).cardinality(), kept, matches);
    ExpectSpilledIfBudgeted(r.value().execution);
    EXPECT_EQ(r.value().detail.find("keyfilter(I.k)") !=
                  std::string::npos,
              filtered)
        << r.value().detail;
  }
}

TEST_P(KeyFilterPlanTest, EsqlFilterCoversTheRepartitionedInner) {
  // A pushdown predicate on I makes the planner materialize I_repart (the
  // 100 rows with x < 300) before the probe scan is built, so the rule
  // compares against those 100 rows: Q (100 rows) is admitted although it
  // is smaller than I, and the filter drops Q's rows whose partner the
  // predicate removed.
  const auto keep_inner = [](const Tuple& t) { return t.at(1).AsInt() < 300; };
  auto r = ExecuteEsql(db_, "SELECT * FROM Q JOIN I ON Q.k = I.k "
                            "WHERE Q.v < 5 AND I.x < 300",
                       Configure<EsqlOptions>());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto keep = [](const Tuple& t) { return t.at(1).AsInt() < kVBelow; };
  uint64_t matches = 0;
  EXPECT_EQ(Sorted(*r.value().result),
            Oracle("Q", keep, &matches, keep_inner));
  EXPECT_NE(r.value().detail.find("keyfilter(I_repart.k)"),
            std::string::npos)
      << r.value().detail;
  uint64_t kept = 0;
  for (const Tuple& t : Rel("Q").Scan()) kept += keep(t) ? 1 : 0;
  ExpectScanShipped(r.value().execution, /*filtered=*/true,
                    Rel("Q").cardinality(), kept, matches);
}

TEST_P(KeyFilterPlanTest, FacadeAssocJoinMatchesOracle) {
  const auto keep = [](const Tuple&) { return true; };
  for (const std::string& probe : {std::string("P"), std::string("Q")}) {
    const bool filtered = probe == "P";
    auto r = RunAssocJoin(db_, probe, "k", "I", "k",
                          Configure<QueryOptions>());
    ASSERT_TRUE(r.ok()) << probe << " -> " << r.status().ToString();
    uint64_t matches = 0;
    EXPECT_EQ(Sorted(*r.value().result), Oracle(probe, keep, &matches))
        << probe;
    const ExecutionResult& execution = r.value().execution;
    ASSERT_EQ(execution.op_stats.size(), 3u);
    EXPECT_EQ(execution.op_stats[0].name, "transmit");
    ExpectScanShipped(execution, filtered, Rel(probe).cardinality(),
                      Rel(probe).cardinality(), matches);
    ExpectSpilledIfBudgeted(execution);
  }
}

TEST_P(KeyFilterPlanTest, FacadeFilterJoinMatchesOracle) {
  const auto keep = [](const Tuple& t) { return t.at(1).AsInt() < kVBelow; };
  // A typed predicate and a custom row predicate: either way the filter
  // ANDs the key-filter leaf after it into one conjunction.
  const std::vector<Predicate> predicates = {
      OnPath(ColumnBetween(1, std::numeric_limits<int64_t>::min(),
                           kVBelow - 1)),
      Predicate(keep)};
  for (const Predicate& predicate : predicates) {
    for (const std::string& probe : {std::string("P"), std::string("Q")}) {
      const bool filtered = probe == "P";
      auto r = RunFilterJoin(db_, probe, predicate, 0.5, "k", "I", "k",
                             Configure<QueryOptions>());
      ASSERT_TRUE(r.ok()) << probe << " -> " << r.status().ToString();
      uint64_t matches = 0;
      EXPECT_EQ(Sorted(*r.value().result), Oracle(probe, keep, &matches))
          << probe;
      uint64_t kept = 0;
      for (const Tuple& t : Rel(probe).Scan()) kept += keep(t) ? 1 : 0;
      ExpectScanShipped(r.value().execution, filtered,
                        Rel(probe).cardinality(), kept, matches);
      ExpectSpilledIfBudgeted(r.value().execution);
    }
  }
}

std::string ConfigName(const ::testing::TestParamInfo<PlanConfig>& info) {
  const auto& [strings, chunk, kernels, budget] = info.param;
  return std::string(strings ? "StringKeys" : "IntKeys") + "_Chunk" +
         std::to_string(chunk) + (kernels ? "_Vectorized" : "_RowPath") +
         (budget == 0 ? "_Unbudgeted" : "_Spilling");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KeyFilterPlanTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(size_t{1}, 4, 16, 64),
                       ::testing::Bool(), ::testing::Values(uint64_t{0}, 16)),
    ConfigName);

}  // namespace
}  // namespace dbs3

// Differential tests of the memory-bounded operators: both paper join
// nodes (the triggered IdealJoin and the pipelined AssocJoin) and the
// spilling group-by must produce exactly a naive oracle's rows under any
// budget, including budgets small enough to force recursive repartitioning
// and the block nested-loop fallback. Also pins the cancellation contract:
// a torn-down logic returns its quota charges and leaks no spill-file
// handles, and every entry point (facade and ESQL) enforces a declared
// budget; and bounds the row blocks a spilling join keeps alive.

#include "engine/spill_join.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_quota.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/blocking_operators.h"
#include "engine/executor.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "esql/planner.h"
#include "storage/row_block.h"
#include "storage/spill.h"

namespace dbs3 {
namespace {

class CapturingEmitter : public Emitter {
 public:
  void Emit(size_t producer_instance, Tuple tuple) override {
    std::lock_guard<std::mutex> lock(mu_);
    (void)producer_instance;
    emitted_.push_back(std::move(tuple));
  }
  std::vector<Tuple> take_sorted() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Tuple> out = std::move(emitted_);
    emitted_.clear();
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<Tuple> emitted_;
};

/// Delivers `row` to `logic` as a one-tuple data activation.
void Push(OperatorLogic& logic, size_t instance, Tuple row, Emitter* out) {
  logic.OnDataBatch(instance, std::span<Tuple>(&row, 1), out);
}

/// Degree-1 relation of two int columns (key first).
std::unique_ptr<Relation> MakeRelation(const std::string& name,
                                       const std::vector<Tuple>& rows) {
  auto rel = std::make_unique<Relation>(
      name, Schema({{"k", ValueType::kInt64}, {"payload", ValueType::kInt64}}),
      0, Partitioner(PartitionKind::kModulo, 1));
  for (const Tuple& t : rows) EXPECT_TRUE(rel->Insert(t).ok());
  return rel;
}

/// Degree-1 build relation with rows (key, 1000 + i).
std::unique_ptr<Relation> MakeInner(const std::vector<int64_t>& keys) {
  std::vector<Tuple> rows;
  int64_t i = 0;
  for (int64_t k : keys) rows.push_back(Tuple({Value(k), Value(1000 + i++)}));
  return MakeRelation("inner", rows);
}

std::vector<Tuple> MakeProbes(const std::vector<int64_t>& keys) {
  std::vector<Tuple> probes;
  int64_t i = 0;
  probes.reserve(keys.size());
  for (int64_t k : keys) {
    probes.push_back(Tuple({Value(k), Value(-(i++))}));
  }
  return probes;
}

/// The oracle: every probe concatenated with every inner row sharing its
/// key, sorted.
std::vector<Tuple> NaiveJoin(const Relation& inner,
                             const std::vector<Tuple>& probes) {
  std::multimap<Value, const Tuple*> by_key;
  for (const Tuple& t : inner.fragment(0).tuples) by_key.emplace(t.at(0), &t);
  std::vector<Tuple> out;
  for (const Tuple& p : probes) {
    auto [lo, hi] = by_key.equal_range(p.at(0));
    for (auto it = lo; it != hi; ++it) out.push_back(p.Concat(*it->second));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The two paper join nodes, both under test.
enum class JoinNode { kAssocJoin, kIdealJoin };

const char* NodeName(JoinNode node) {
  return node == JoinNode::kAssocJoin ? "AssocJoin" : "IdealJoin";
}

/// One join of `probes` against `inner` through `node`: the AssocJoin
/// receives the probes as data activations, the IdealJoin reads them as its
/// co-partitioned outer fragment.
class JoinUnderTest {
 public:
  JoinUnderTest(JoinNode node, const Relation* inner,
                const std::vector<Tuple>& probes)
      : node_(node),
        probes_(probes),
        outer_(MakeRelation("outer", probes)) {
    if (node == JoinNode::kAssocJoin) {
      logic_ = std::make_unique<PipelinedJoinLogic>(inner, 0, 0,
                                                    JoinAlgorithm::kHash);
    } else {
      logic_ = std::make_unique<TriggeredJoinLogic>(outer_.get(), 0, inner, 0,
                                                    JoinAlgorithm::kHash);
    }
  }

  /// Binds `quota`/`spill`/`cancel` and delivers every probe; no
  /// OnFinish, so the teardown test can stop here.
  void Probe(MemoryQuota* quota, SpillCounters* spill,
             CancelToken cancel = CancelToken::None()) {
    ExecResources resources;
    resources.quota = quota;
    resources.spill = spill;
    resources.cancel = cancel;
    logic_->BindExecution(resources);
    ASSERT_TRUE(logic_->Prepare(1).ok());
    if (node_ == JoinNode::kAssocJoin) {
      for (const Tuple& p : probes_) Push(*logic_, 0, Tuple(p), &out_);
    } else {
      logic_->OnTrigger(0, &out_);
    }
  }

  /// Probe + OnFinish; returns the sorted output.
  std::vector<Tuple> Run(MemoryQuota* quota, SpillCounters* spill = nullptr) {
    Probe(quota, spill);
    logic_->OnFinish(0, &out_);
    EXPECT_TRUE(logic_->error().ok()) << logic_->error().ToString();
    return out_.take_sorted();
  }

 private:
  JoinNode node_;
  const std::vector<Tuple>& probes_;
  std::unique_ptr<Relation> outer_;
  std::unique_ptr<OperatorLogic> logic_;
  CapturingEmitter out_;
};

constexpr JoinNode kJoinNodes[] = {JoinNode::kAssocJoin, JoinNode::kIdealJoin};

TEST(SpillJoinDifferentialTest, UnboundedQuotaMatchesInMemoryJoin) {
  Rng rng(7);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 300; ++i) build_keys.push_back(rng.Range(0, 60));
  for (int i = 0; i < 500; ++i) probe_keys.push_back(rng.Range(0, 80));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  const std::vector<Tuple> expected = NaiveJoin(*inner, probes);
  ASSERT_FALSE(expected.empty());

  for (JoinNode node : kJoinNodes) {
    SCOPED_TRACE(NodeName(node));
    MemoryQuota quota(0);  // Unlimited: tracks but never spills.
    SpillCounters spill;
    EXPECT_EQ(JoinUnderTest(node, inner.get(), probes).Run(&quota, &spill),
              expected);
    EXPECT_EQ(quota.used(), 0u);  // Everything released after OnFinish.
    EXPECT_EQ(quota.high_water(), build_keys.size());  // One whole charge.
    EXPECT_EQ(spill.bytes_written.load(), 0u);
    EXPECT_EQ(spill.partitions.load(), 0u);
    // No quota at all: nothing charged, same rows.
    EXPECT_EQ(JoinUnderTest(node, inner.get(), probes).Run(nullptr),
              expected);
  }
}

TEST(SpillJoinDifferentialTest, TinyBudgetsSpillAndStayByteIdentical) {
  Rng rng(11);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 400; ++i) build_keys.push_back(rng.Range(0, 100));
  for (int i = 0; i < 600; ++i) probe_keys.push_back(rng.Range(0, 120));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  const std::vector<Tuple> expected = NaiveJoin(*inner, probes);
  ASSERT_FALSE(expected.empty());

  const int64_t live_before = SpillFile::live_files();
  for (JoinNode node : kJoinNodes) {
    for (uint64_t budget : {uint64_t{1}, uint64_t{4}, uint64_t{32},
                            uint64_t{1'000'000}}) {
      SCOPED_TRACE(std::string(NodeName(node)) +
                   " budget=" + std::to_string(budget));
      MemoryQuota quota(budget);
      SpillCounters spill;
      EXPECT_EQ(JoinUnderTest(node, inner.get(), probes).Run(&quota, &spill),
                expected);
      EXPECT_EQ(quota.used(), 0u);
      // Forced-progress overshoot is bounded to O(1) units per instance.
      EXPECT_LE(quota.high_water(), budget + 2);
      if (budget < build_keys.size()) {
        EXPECT_GT(spill.bytes_written.load(), 0u);
        EXPECT_GT(spill.partitions.load(), 0u);
      } else {
        EXPECT_EQ(spill.bytes_written.load(), 0u);
        EXPECT_EQ(spill.partitions.load(), 0u);
      }
    }
  }
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(SpillJoinDifferentialTest, HotKeySkewFallsBackToNestedLoop) {
  // Every build row shares one key: no rehash can ever split the spilled
  // partition, so the join must detect the non-split and finish through
  // the block nested-loop pass instead of recursing forever.
  std::vector<int64_t> build_keys(200, 7);
  std::vector<int64_t> probe_keys(50, 7);
  probe_keys.push_back(8);  // One non-matching probe.
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  const std::vector<Tuple> expected = NaiveJoin(*inner, probes);
  ASSERT_EQ(expected.size(), 200u * 50u);

  for (JoinNode node : kJoinNodes) {
    SCOPED_TRACE(NodeName(node));
    MemoryQuota quota(2);
    EXPECT_EQ(JoinUnderTest(node, inner.get(), probes).Run(&quota),
              expected);
    EXPECT_EQ(quota.used(), 0u);
    EXPECT_LE(quota.high_water(), 2u + 2u);
  }
}

TEST(SpillJoinDifferentialTest, ZipfSkewAcrossBudgets) {
  // Zipf-ish frequencies: key k appears ~N/(k+1) times on both sides —
  // a few very hot keys with a long tail, the paper's skew regime.
  std::vector<int64_t> build_keys, probe_keys;
  for (int64_t k = 0; k < 40; ++k) {
    for (int64_t c = 0; c < 120 / (k + 1) + 1; ++c) build_keys.push_back(k);
  }
  for (int64_t k = 0; k < 50; ++k) {
    for (int64_t c = 0; c < 200 / (k + 1) + 1; ++c) probe_keys.push_back(k);
  }
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  const std::vector<Tuple> expected = NaiveJoin(*inner, probes);
  ASSERT_FALSE(expected.empty());

  for (JoinNode node : kJoinNodes) {
    for (uint64_t budget : {uint64_t{3}, uint64_t{17}, uint64_t{64}}) {
      SCOPED_TRACE(std::string(NodeName(node)) +
                   " budget=" + std::to_string(budget));
      MemoryQuota quota(budget);
      EXPECT_EQ(JoinUnderTest(node, inner.get(), probes).Run(&quota),
                expected);
      EXPECT_EQ(quota.used(), 0u);
    }
  }
}

TEST(SpillJoinDifferentialTest, SmallBudgetForcesDeepRecursion) {
  // A 500-row build under a 4-unit budget: each of the 8 level-0
  // partitions (~60 rows) overflows its reload, and so do most of its
  // level-1 sub-partitions (~8 rows), so the flush recurses at least two
  // levels deep before partitions fit. Results must still be exact.
  Rng rng(23);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 500; ++i) build_keys.push_back(rng.Range(0, 250));
  for (int i = 0; i < 400; ++i) probe_keys.push_back(rng.Range(0, 250));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);
  const std::vector<Tuple> expected = NaiveJoin(*inner, probes);

  for (JoinNode node : kJoinNodes) {
    SCOPED_TRACE(NodeName(node));
    MemoryQuota quota(4);
    SpillCounters spill;
    EXPECT_EQ(JoinUnderTest(node, inner.get(), probes).Run(&quota, &spill),
              expected);
    // One repartition per overflowing partition per level: more than the
    // 8 level-0 partitions can account for means a second level ran.
    EXPECT_GT(spill.recursions.load(), 8u);
    EXPECT_EQ(quota.used(), 0u);
  }
}

TEST(SpillJoinDifferentialTest,
     TeardownWithoutFinishReleasesQuotaAndFiles) {
  // A cancelled run skips OnFinish; destruction alone must return every
  // charged unit and close every spill file (they are unlinked from
  // birth, so closing is the whole cleanup).
  Rng rng(31);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 300; ++i) build_keys.push_back(rng.Range(0, 80));
  for (int i = 0; i < 200; ++i) probe_keys.push_back(rng.Range(0, 80));
  auto inner = MakeInner(build_keys);
  const std::vector<Tuple> probes = MakeProbes(probe_keys);

  const int64_t live_before = SpillFile::live_files();
  // A budget just under the build size: most partitions stay resident
  // (and hold charges) while at least one spills (and opens files).
  MemoryQuota quota(280);
  {
    JoinUnderTest join(JoinNode::kAssocJoin, inner.get(), probes);
    // Build happens on first data; deferred probes open probe files.
    join.Probe(&quota, nullptr);
    EXPECT_GT(SpillFile::live_files(), live_before);  // Mid-spill state.
    EXPECT_GT(quota.used(), 0u);
    // No OnFinish: the dtor is the cancel path.
  }
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_EQ(SpillFile::live_files(), live_before);

  // The IdealJoin flushes inside OnTrigger; a cancelled one abandons its
  // deferred probes there and must still leave nothing behind.
  {
    CancelToken cancel;
    cancel.Cancel();
    JoinUnderTest join(JoinNode::kIdealJoin, inner.get(), probes);
    join.Probe(&quota, nullptr, cancel);
  }
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

// ------------------------------------------------------------ Row memory

/// Degree-1 relation of `rows` rows, `width` int columns: (i % keys, i, ...).
std::unique_ptr<Relation> WideRelation(const std::string& name, int64_t rows,
                                       size_t width, int64_t keys) {
  std::vector<Column> columns;
  for (size_t c = 0; c < width; ++c) {
    columns.push_back({"c" + std::to_string(c), ValueType::kInt64});
  }
  auto rel = std::make_unique<Relation>(
      name, Schema(std::move(columns)), 0,
      Partitioner(PartitionKind::kModulo, 1));
  for (int64_t i = 0; i < rows; ++i) {
    RowValues values;
    values.reserve(width);
    values.emplace_back(i % keys);
    for (size_t c = 1; c < width; ++c) values.emplace_back(i);
    EXPECT_TRUE(rel->Insert(Tuple(std::move(values))).ok());
  }
  return rel;
}

/// Row blocks that `rows` live rows of `width` values fill end to end.
int64_t BlocksFor(uint64_t rows, size_t width) {
  const uint64_t slice = row_block::kHeaderBytes + width * sizeof(Value);
  const uint64_t usable = row_block::kBlockBytes - 64;  // Less the count.
  return static_cast<int64_t>((rows * slice + usable - 1) / usable);
}

/// Keeps every emitted row, as the store does: each one a fresh row carved
/// on the emitting thread, beside whatever else that thread carves.
class StoringEmitter : public Emitter {
 public:
  void Emit(size_t, Tuple tuple) override { rows.push_back(std::move(tuple)); }
  std::vector<Tuple> rows;
};

TEST(SpillJoinRowMemoryTest, SpilledPartitionsReturnTheirRowBlocks) {
  // A refused build copies the inner fragment into its 8 partitions and
  // spills the largest whenever a charge fails. Each partition's copies are
  // contiguous in the building thread's scratch row blocks, so a spilled
  // partition frees its blocks: after the build the live blocks hold the
  // resident rows plus at most one shared block per partition boundary and
  // the thread's current block — not every row the build ever copied. The
  // budget keeps about half the partitions resident.
  constexpr int64_t kRows = 40'000;
  constexpr size_t kWidth = 8;
  auto inner = WideRelation("inner", kRows, kWidth, kRows);
  MemoryQuota quota(kRows * 6 / 10);
  HashJoinBuild build(inner.get(), 0, 0);
  ExecResources resources;
  resources.quota = &quota;
  build.Bind(resources);
  build.Reset(1);

  const int64_t before = row_block::LiveBlocks();
  ASSERT_EQ(build.Build(0), nullptr);  // Refused: partitioned and spilled.
  ASSERT_TRUE(build.error().ok()) << build.error().ToString();
  ASSERT_GT(quota.used(), 0u);
  ASSERT_LT(quota.used(), static_cast<uint64_t>(kRows) / 2 + kRows / 8);
  EXPECT_LE(row_block::LiveBlocks() - before,
            BlocksFor(quota.used(), kWidth) + 8 + 1);

  StoringEmitter out;
  build.Finish(0, &out);
  EXPECT_TRUE(out.rows.empty());  // Nothing probed.
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_LE(row_block::LiveBlocks() - before, 1);
}

TEST(SpillJoinRowMemoryTest, FlushKeepsNoReadBackRowsAlive) {
  // Every build partition spills, so every probe is deferred to a spill
  // file and read back by the flush, which emits their matches on the same
  // thread. One probe in ten matches, and every partition overflows its
  // reload, so the flush repartitions into 64 small pairs. Deferring a probe copies no row, and
  // read-back rows come from the thread's scratch row blocks, so once the
  // build is released the live blocks hold the stored results, not the
  // probe and build rows read back beside them.
  constexpr int64_t kInner = 4'000;
  constexpr int64_t kProbes = 40'000;
  constexpr size_t kWidth = 8;
  auto inner = WideRelation("inner", kInner, kWidth, kInner);
  auto outer = WideRelation("outer", kProbes, kWidth, kProbes);
  const std::vector<Tuple>& probes = outer->fragment(0).tuples;
  MemoryQuota quota(kInner / 10);
  SpillCounters spill;
  HashJoinBuild build(inner.get(), 0, 0);
  ExecResources resources;
  resources.quota = &quota;
  resources.spill = &spill;
  build.Bind(resources);
  build.Reset(1);

  StoringEmitter out;
  out.rows.reserve(kInner);
  const int64_t before = row_block::LiveBlocks();
  ASSERT_EQ(build.Build(0), nullptr);
  build.ProbePartitions(0, probes, &out);
  build.Finish(0, &out);
  ASSERT_TRUE(build.error().ok()) << build.error().ToString();
  ASSERT_EQ(out.rows.size(), static_cast<size_t>(kInner));
  EXPECT_GT(spill.bytes_read.load(), 0u);
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_GT(spill.recursions.load(), 0u);
  // Plus the thread's current scratch block, and one for the tails of
  // blocks too short for another row.
  EXPECT_LE(row_block::LiveBlocks() - before,
            BlocksFor(out.rows.size(), 2 * kWidth) + 2);
}

// --------------------------------------------------------------- GroupBy

std::vector<Tuple> RunGroupBy(const std::vector<AggSpec>& aggs,
                              const std::vector<Tuple>& rows,
                              MemoryQuota* quota,
                              SpillCounters* spill = nullptr) {
  GroupByLogic group(0, aggs);
  ExecResources resources;
  resources.quota = quota;
  resources.spill = spill;
  group.BindExecution(resources);
  EXPECT_TRUE(group.Prepare(1).ok());
  CapturingEmitter out;
  for (const Tuple& r : rows) Push(group, 0, Tuple(r), &out);
  group.OnFinish(0, &out);
  EXPECT_TRUE(group.error().ok()) << group.error().ToString();
  return out.take_sorted();
}

TEST(GroupBySpillTest, SpilledAggregationMatchesInMemory) {
  Rng rng(13);
  std::vector<Tuple> rows;
  for (int i = 0; i < 800; ++i) {
    rows.push_back(Tuple({Value(rng.Range(0, 70)),
                          Value(rng.Range(-50, 50))}));
  }
  const std::vector<AggSpec> aggs = {{AggKind::kCount, 0},
                                     {AggKind::kSum, 1},
                                     {AggKind::kMin, 1},
                                     {AggKind::kMax, 1}};
  const std::vector<Tuple> expected = RunGroupBy(aggs, rows, nullptr);
  ASSERT_FALSE(expected.empty());

  const int64_t live_before = SpillFile::live_files();
  for (uint64_t budget : {uint64_t{1}, uint64_t{5}, uint64_t{24}}) {
    MemoryQuota quota(budget);
    SpillCounters spill;
    EXPECT_EQ(RunGroupBy(aggs, rows, &quota, &spill), expected)
        << "budget=" << budget;
    EXPECT_EQ(quota.used(), 0u);
    EXPECT_GT(spill.groupby_flushes.load(), 0u) << "budget=" << budget;
    EXPECT_GT(spill.bytes_written.load(), 0u) << "budget=" << budget;
    EXPECT_GT(spill.bytes_read.load(), 0u) << "budget=" << budget;
  }
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(GroupBySpillTest, SentinelExtremaSurviveTheSpillPath) {
  // Groups whose min/max column only ever holds strings emit the sentinel
  // (empty string) on the in-memory path; spilled re-aggregation must
  // agree, which exercises the (accumulator, seen) partial encoding.
  std::vector<Tuple> rows;
  for (int64_t g = 0; g < 30; ++g) {
    for (int64_t i = 0; i < 20; ++i) {
      if (g % 3 == 0) {
        rows.push_back(Tuple({Value(g), Value(std::string("label"))}));
      } else {
        rows.push_back(Tuple({Value(g), Value(g * 10 + i)}));
      }
    }
  }
  const std::vector<AggSpec> aggs = {{AggKind::kMin, 1},
                                     {AggKind::kMax, 1},
                                     {AggKind::kCount, 0}};
  const std::vector<Tuple> expected = RunGroupBy(aggs, rows, nullptr);
  ASSERT_EQ(expected.size(), 30u);

  MemoryQuota quota(4);
  EXPECT_EQ(RunGroupBy(aggs, rows, &quota), expected);
  EXPECT_EQ(quota.used(), 0u);
}

TEST(GroupBySpillTest, TeardownWithoutFinishReleasesQuotaAndFiles) {
  const int64_t live_before = SpillFile::live_files();
  MemoryQuota quota(3);
  {
    GroupByLogic group(
        0, std::vector<AggSpec>{{AggKind::kCount, 0}, {AggKind::kSum, 1}});
    ExecResources resources;
    resources.quota = &quota;
    group.BindExecution(resources);
    ASSERT_TRUE(group.Prepare(1).ok());
    for (int64_t i = 0; i < 200; ++i) {
      Push(group, 0, Tuple({Value(i % 40), Value(i)}), nullptr);
    }
    EXPECT_GT(SpillFile::live_files(), live_before);
    EXPECT_GT(quota.used(), 0u);
  }
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

// ---------------------------------------------------- End-to-end (ESQL)

TEST(SpillJoinEndToEndTest, BudgetedEsqlMatchesUnbudgetedAndBoundsMemory) {
  Database db(2);
  Rng rng(41);
  auto a = std::make_unique<Relation>(
      "A", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 4));
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(
        a->Insert(Tuple({Value(rng.Range(0, 200)), Value(rng.Range(0, 9))}))
            .ok());
  }
  auto b = std::make_unique<Relation>(
      "B", Schema({{"k", ValueType::kInt64}, {"g", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 4));
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        b->Insert(Tuple({Value(rng.Range(0, 200)), Value(rng.Range(0, 5))}))
            .ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(a)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(b)).ok());

  const std::string query =
      "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) "
      "FROM A JOIN B ON A.k = B.k GROUP BY g";
  EsqlOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;

  auto run = [&](uint64_t budget) {
    options.memory_units = budget;
    auto result = ExecuteEsql(db, query, options);
    EXPECT_TRUE(result.ok()) << "budget=" << budget << " -> "
                             << result.status().ToString();
    std::vector<Tuple> rows;
    if (result.ok()) rows = result.value().result->Scan();
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  const std::vector<Tuple> unbudgeted = run(0);
  ASSERT_FALSE(unbudgeted.empty());
  for (uint64_t budget : {uint64_t{8}, uint64_t{64}, uint64_t{4096}}) {
    EXPECT_EQ(run(budget), unbudgeted) << "budget=" << budget;
  }

  // The spill activity rolled up into the database's runtime registry.
  MetricsSnapshot snap = db.metrics().Snapshot();
  EXPECT_GT(snap.counters["spill.bytes_written"], 0u);
  EXPECT_GT(snap.series["runtime.quota_high_water_units"].samples, 0u);
}

/// Rows of a finished query, sorted; the empty set on failure.
std::vector<Tuple> SortedRows(Result<QueryResult>& taken) {
  EXPECT_TRUE(taken.ok()) << taken.status().ToString();
  if (!taken.ok()) return {};
  std::vector<Tuple> rows = taken.value().result->Scan();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(SpillJoinEndToEndTest, BudgetedSubmitReportsBoundedHighWater) {
  Database db(2);
  auto a = std::make_unique<Relation>(
      "A", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 2));
  auto b = std::make_unique<Relation>(
      "B", Schema({{"k", ValueType::kInt64}, {"g", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 2));
  for (int64_t i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(a->Insert(Tuple({Value(i % 150), Value(i)})).ok());
  }
  for (int64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(b->Insert(Tuple({Value(i % 150), Value(i % 7)})).ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(a)).ok());
  ASSERT_TRUE(db.AddRelation(std::move(b)).ok());

  const int64_t live_before = SpillFile::live_files();
  const std::string query = "SELECT * FROM A JOIN B ON A.k = B.k";
  EsqlOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  Result<QueryResult> unbudgeted_run = SubmitEsql(db, query, options).Take();
  const std::vector<Tuple> unbudgeted = SortedRows(unbudgeted_run);
  ASSERT_FALSE(unbudgeted.empty());

  options.memory_units = 16;
  QueryHandle handle = SubmitEsql(db, query, options);
  auto taken = handle.Take();
  EXPECT_EQ(SortedRows(taken), unbudgeted);
  ASSERT_TRUE(taken.ok());
  // A budget does not change the plan: the co-partitioned pair stays an
  // IdealJoin, whose triggered instances spill on their own.
  EXPECT_NE(taken.value().detail.find("IdealJoin(A, B)"), std::string::npos)
      << taken.value().detail;
  EXPECT_GT(taken.value().execution.metrics.counters["spill.bytes_written"],
            0u);

  const QueryRunStats stats = handle.stats();
  EXPECT_GT(stats.quota_high_water_units, 0u);
  // Enforced: the unconstrained working set (the 400-tuple build side)
  // would dwarf this. Slack covers the bounded per-instance overshoot of
  // the forced-progress charges.
  EXPECT_LE(stats.quota_high_water_units, options.memory_units + 16);

  // ESQL's sort-free plans finish with no residual quota: every phase's
  // spill files are gone once the query completes.
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(SpillJoinEndToEndTest, BudgetedFacadeJoinsSpillAndMatchUnbudgeted) {
  // The facade builds the same two join nodes the ESQL planner does, so a
  // declared budget binds them too: each inner fragment (~250 rows) is
  // refused against 16 units, and the join degrades to spilling.
  Database db(2);
  WisconsinOptions w1;
  w1.cardinality = 2'000;
  w1.degree = 4;
  ASSERT_TRUE(db.CreateWisconsin("W1", w1).ok());
  WisconsinOptions w2 = w1;
  w2.cardinality = 1'000;
  w2.seed = w1.seed + 1;
  ASSERT_TRUE(db.CreateWisconsin("W2", w2).ok());
  const size_t twenty =
      db.relation("W1").value()->schema().IndexOf("twenty").value();

  using Submit = std::function<QueryHandle(const QueryOptions&)>;
  const std::vector<std::pair<std::string, Submit>> joins = {
      {"AssocJoin",
       [&db](const QueryOptions& o) {
         return SubmitAssocJoin(db, "W1", "unique2", "W2", "unique1", o);
       }},
      {"FilterJoin",
       [&db, twenty](const QueryOptions& o) {
         return SubmitFilterJoin(db, "W1", ColumnBetween(twenty, 0, 9), 0.5,
                                 "unique2", "W2", "unique1", o);
       }},
      {"IdealJoin",
       [&db](const QueryOptions& o) {
         // Both hash-partitioned on unique1 at degree 4: co-partitioned.
         return SubmitIdealJoin(db, "W1", "unique1", "W2", "unique1", o);
       }},
  };
  const int64_t live_before = SpillFile::live_files();
  for (const auto& [name, submit] : joins) {
    SCOPED_TRACE(name);
    QueryOptions options;
    options.schedule.total_threads = 4;
    options.schedule.processors = 4;
    Result<QueryResult> unbudgeted_run = submit(options).Take();
    const std::vector<Tuple> unbudgeted = SortedRows(unbudgeted_run);
    ASSERT_FALSE(unbudgeted.empty());

    options.memory_units = 16;
    QueryHandle handle = submit(options);
    Result<QueryResult> taken = handle.Take();
    EXPECT_EQ(SortedRows(taken), unbudgeted);
    ASSERT_TRUE(taken.ok());
    const QueryRunStats stats = handle.stats();
    EXPECT_GT(stats.quota_high_water_units, 0u);
    // The slack covers the bounded per-instance forced-progress overshoot.
    EXPECT_LE(stats.quota_high_water_units, options.memory_units + 16);
    // The execution's counters are its spill record and nothing else: the
    // per-operation counts live in op_stats only.
    const std::map<std::string, uint64_t>& counters =
        taken.value().execution.metrics.counters;
    for (const auto& [counter, value] : counters) {
      EXPECT_EQ(counter.rfind("spill.", 0), 0u) << counter;
    }
    ASSERT_EQ(counters.count("spill.bytes_written"), 1u);
    EXPECT_GT(counters.at("spill.bytes_written"), 0u);
  }
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(SpillJoinEndToEndTest, RepeatedSpillingJoinsLeaveNoRowBlocksBehind) {
  // A spilling AssocJoin consumes its probes the way a store does, so
  // their chunks go back to the pool empty. Were the probes' storage kept,
  // it would sit in the pool between queries and later queries would free
  // it slot by slot, each query leaving about 8 more live row blocks than
  // the last at this size.
  Database db(2);
  WisconsinOptions w1;
  w1.cardinality = 50'000;
  w1.degree = 4;
  ASSERT_TRUE(db.CreateWisconsin("W1", w1).ok());
  WisconsinOptions w2 = w1;
  w2.cardinality = 12'500;
  w2.seed = w1.seed + 1;
  ASSERT_TRUE(db.CreateWisconsin("W2", w2).ok());
  QueryOptions options;
  options.schedule.total_threads = 4;
  options.schedule.processors = 4;
  options.memory_units = 1'250;
  auto run = [&] {
    Result<QueryResult> taken =
        SubmitAssocJoin(db, "W1", "unique2", "W2", "unique1", options).Take();
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    EXPECT_EQ(taken.value().result->cardinality(), 12'500u);
    EXPECT_GT(
        taken.value().execution.metrics.counters["spill.bytes_written"], 0u);
  };
  // Two queries first, so that the pools and threads exist.
  run();
  run();
  const int64_t warm = row_block::LiveBlocks();
  for (int i = 0; i < 6; ++i) run();
  EXPECT_LE(row_block::LiveBlocks() - warm, 16);
}

/// Cancels the run on its first data activation and keeps nothing.
class CancelOnFirstRow : public OperatorLogic {
 public:
  explicit CancelOnFirstRow(CancelToken cancel) : cancel_(std::move(cancel)) {}
  void OnDataBatch(size_t, std::span<Tuple>, Emitter*) override {
    cancel_.Cancel();
  }
  std::string name() const override { return "cancel"; }

 private:
  CancelToken cancel_;
};

TEST(SpillJoinEndToEndTest, CancelledRunStillReportsItsSpillIo) {
  // A refused IdealJoin build spills inside OnTrigger, before the join
  // emits a row, and the consumer cancels the run on the first row it
  // sees. The executor then skips OnFinish, yet the result still reports
  // the spill IO done before the stop.
  Rng rng(11);
  std::vector<int64_t> build_keys, probe_keys;
  for (int i = 0; i < 400; ++i) build_keys.push_back(rng.Range(0, 100));
  for (int i = 0; i < 600; ++i) probe_keys.push_back(rng.Range(0, 120));
  auto inner = MakeInner(build_keys);
  auto outer = MakeRelation("outer", MakeProbes(probe_keys));
  const int64_t live_before = SpillFile::live_files();
  MemoryQuota quota(4);
  {
    CancelToken cancel;
    Plan plan;
    const size_t join = plan.AddNode(
        "join", ActivationMode::kTriggered, 1,
        std::make_unique<TriggeredJoinLogic>(outer.get(), 0, inner.get(), 0,
                                             JoinAlgorithm::kHash));
    const size_t sink =
        plan.AddNode("cancel", ActivationMode::kPipelined, 1,
                     std::make_unique<CancelOnFirstRow>(cancel));
    ASSERT_TRUE(plan.ConnectSameInstance(join, sink).ok());
    ExecOptions options;
    options.cancel = cancel;
    options.quota = &quota;
    Executor executor;
    Result<ExecutionResult> run = executor.Run(plan, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().completion.code(), StatusCode::kCancelled);
    const std::map<std::string, uint64_t>& counters =
        run.value().metrics.counters;
    ASSERT_EQ(counters.count("spill.bytes_written"), 1u);
    EXPECT_GT(counters.at("spill.bytes_written"), 0u);
    ASSERT_EQ(counters.count("spill.partitions"), 1u);
    EXPECT_GT(counters.at("spill.partitions"), 0u);
  }
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_EQ(SpillFile::live_files(), live_before);
}

TEST(SpillJoinEndToEndTest, SortOverTinyBudgetFailsWithResourceExhausted) {
  Database db(2);
  auto r = std::make_unique<Relation>(
      "r", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}), 0,
      Partitioner(PartitionKind::kModulo, 2));
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(r->Insert(Tuple({Value(i), Value(i % 13)})).ok());
  }
  ASSERT_TRUE(db.AddRelation(std::move(r)).ok());

  EsqlOptions options;
  options.schedule.total_threads = 2;
  options.schedule.processors = 2;
  options.memory_units = 4;  // Sort has no spill path: must fail fast.
  auto result = ExecuteEsql(db, "SELECT * FROM r ORDER BY v", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // And with room it succeeds.
  options.memory_units = 4'096;
  auto ok = ExecuteEsql(db, "SELECT * FROM r ORDER BY v", options);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace dbs3

// Tests of the vectorized batch kernels: the arena, the columnar batch
// view, the predicate kernels and SelectRows, the batched index probe —
// and differential checks that every operator running them produces
// exactly the results (tuples and stats ledgers) of a reference that does
// not: the same predicate as an opaque row leaf, the nested-loop join.

#include "engine/vector/column_batch.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/rng.h"
#include "dbs3/database.h"
#include "dbs3/query.h"
#include "engine/executor.h"
#include "engine/operators.h"
#include "engine/vector/kernels.h"
#include "engine/vector/pred.h"
#include "esql/planner.h"
#include "storage/temp_index.h"

namespace dbs3 {
namespace {

// ---------------------------------------------------------------- Arena --

TEST(ArenaTest, AllocationsAlignedAndWritable) {
  Arena arena;
  char* c = arena.AllocateArrayOf<char>(3);
  ASSERT_NE(c, nullptr);
  int64_t* ints = arena.AllocateArrayOf<int64_t>(100);
  ASSERT_NE(ints, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ints) % alignof(int64_t), 0u);
  for (int i = 0; i < 100; ++i) ints[i] = i;
  c[0] = 'a';  // Distinct storage: the int array did not overlap.
  EXPECT_EQ(ints[99], 99);
}

TEST(ArenaTest, ResetRetainsBlocks) {
  Arena arena;
  arena.AllocateArrayOf<int64_t>(1000);
  const size_t warmed = arena.block_count();
  const size_t reserved = arena.reserved_bytes();
  EXPECT_GE(warmed, 1u);
  for (int round = 0; round < 100; ++round) {
    arena.Reset();
    arena.AllocateArrayOf<int64_t>(1000);
  }
  EXPECT_EQ(arena.block_count(), warmed);  // Steady state: no new blocks.
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(ArenaTest, MarkRewindRecyclesSpace) {
  Arena arena;
  arena.AllocateArrayOf<int64_t>(16);  // Force the first block into being.
  const Arena::Mark m = arena.mark();
  int64_t* first = arena.AllocateArrayOf<int64_t>(64);
  arena.Rewind(m);
  int64_t* second = arena.AllocateArrayOf<int64_t>(64);
  EXPECT_EQ(first, second);  // Same bytes handed out again.
}

// Regression: a ScopedArena opened on a still-empty arena must rewind to
// the start of the first block (allocated inside the scope), not to the
// pre-block null cursor — the original bug returned null pointers from
// every allocation after the first scope exit.
TEST(ArenaTest, ScopedArenaOnEmptyArenaStaysValid) {
  Arena arena;
  for (int round = 0; round < 50; ++round) {
    ScopedArena scope(&arena);
    int64_t* data = scope.get()->AllocateArrayOf<int64_t>(512);
    ASSERT_NE(data, nullptr);
    for (int i = 0; i < 512; ++i) data[i] = round + i;
    EXPECT_EQ(data[511], round + 511);
  }
  EXPECT_LE(arena.block_count(), 2u);  // Space was recycled, not regrown.
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena;
  const size_t huge = (1 << 22) + 4096;  // Past the block-doubling cap.
  char* data = arena.AllocateArrayOf<char>(huge);
  ASSERT_NE(data, nullptr);
  data[0] = 'x';
  data[huge - 1] = 'y';
  EXPECT_GE(arena.reserved_bytes(), huge);
}

// ---------------------------------------------------------- ColumnBatch --

std::vector<Tuple> IntRows(Rng& rng, size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value(rng.Range(-50, 50)), Value(rng.Range(0, 10)),
                          Value(static_cast<int64_t>(i))}));
  }
  return rows;
}

TEST(ColumnBatchTest, IntColumnGatheredAndCached) {
  Rng rng(1);
  std::vector<Tuple> rows = IntRows(rng, 37);
  Arena arena;
  ColumnBatch batch(rows, &arena);
  EXPECT_EQ(batch.num_rows(), 37u);
  EXPECT_EQ(batch.num_columns(), 3u);
  const int64_t* col0 = batch.Ints(0);
  ASSERT_NE(col0, nullptr);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(col0[i], rows[i].at(0).AsInt());
  }
  EXPECT_EQ(batch.Ints(0), col0);  // Second access reuses the build.
}

TEST(ColumnBatchTest, MixedColumnHasNoIntViewButValuesWork) {
  std::vector<Tuple> rows;
  rows.push_back(Tuple({Value(int64_t{1})}));
  rows.push_back(Tuple({Value(std::string("s"))}));
  rows.push_back(Tuple({Value(int64_t{3})}));
  Arena arena;
  ColumnBatch batch(rows, &arena);
  EXPECT_EQ(batch.Ints(0), nullptr);
  const Value* const* values = batch.Values(0);
  ASSERT_NE(values, nullptr);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(values[i], &rows[i].at(0));  // Pointers into the rows.
  }
}

// ------------------------------------------------------------- PredExpr --

TEST(PredExprTest, FactoriesNormalizeDegenerateForms) {
  EXPECT_EQ(PredExpr::IntBetween(0, 7, 3).kind, PredExpr::Kind::kNone);
  EXPECT_EQ(PredExpr::IntLess(0, std::numeric_limits<int64_t>::min()).kind,
            PredExpr::Kind::kNone);
  EXPECT_EQ(PredExpr::IntGreater(0, std::numeric_limits<int64_t>::max()).kind,
            PredExpr::Kind::kNone);
  // Single-child conjunctions collapse.
  std::vector<PredExpr> one;
  one.push_back(PredExpr::IntEquals(2, 5));
  EXPECT_EQ(PredExpr::And(std::move(one)).kind, PredExpr::Kind::kIntRange);
}

TEST(PredExprTest, LeafSemanticsAreTyped) {
  const PredExpr range = PredExpr::IntBetween(0, 0, 10);
  EXPECT_TRUE(range.EvalValue(Value(int64_t{5})));
  EXPECT_FALSE(range.EvalValue(Value(int64_t{11})));
  EXPECT_FALSE(range.EvalValue(Value(std::string("5"))));  // Ints only.
  const PredExpr ne = PredExpr::IntNotEquals(0, 5);
  EXPECT_FALSE(ne.EvalValue(Value(int64_t{5})));
  EXPECT_TRUE(ne.EvalValue(Value(int64_t{6})));
  EXPECT_TRUE(ne.EvalValue(Value(std::string("5"))));  // Non-ints match.
  const PredExpr eq = PredExpr::StringEquals(0, "x");
  EXPECT_TRUE(eq.EvalValue(Value(std::string("x"))));
  EXPECT_FALSE(eq.EvalValue(Value(int64_t{0})));
  const PredExpr sne = PredExpr::StringNotEquals(0, "x");
  EXPECT_FALSE(sne.EvalValue(Value(std::string("x"))));
  EXPECT_TRUE(sne.EvalValue(Value(int64_t{0})));
}

TEST(PredExprTest, AndFlattensAndDropsMatchAll) {
  EXPECT_EQ(PredExpr::And({}).kind, PredExpr::Kind::kAll);
  EXPECT_EQ(PredExpr::And({PredExpr::All(), PredExpr::All()}).kind,
            PredExpr::Kind::kAll);
  const PredExpr nested = PredExpr::And(
      {PredExpr::IntEquals(0, 1),
       PredExpr::And({PredExpr::All(), PredExpr::IntEquals(1, 2),
                      PredExpr::IntEquals(2, 3)}),
       PredExpr::All()});
  ASSERT_EQ(nested.kind, PredExpr::Kind::kAnd);
  ASSERT_EQ(nested.children.size(), 3u);
  for (uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(nested.children[c].kind, PredExpr::Kind::kIntRange);
    EXPECT_EQ(nested.children[c].column, c);  // Order kept.
  }
}

TEST(PredExprTest, CallablesConvertToSharedRowLeaves) {
  int calls = 0;
  const PredExpr leaf = [&calls](const Tuple& t) {
    ++calls;
    return t.at(0).AsInt() > 0;
  };
  ASSERT_EQ(leaf.kind, PredExpr::Kind::kRow);
  EXPECT_TRUE(leaf.Validate().ok());
  const PredExpr copy = leaf;  // Copies share the one function.
  EXPECT_EQ(copy.row, leaf.row);
  EXPECT_TRUE(copy.EvalRow(Tuple({Value(int64_t{3})})));
  EXPECT_FALSE(leaf.EvalRow(Tuple({Value(int64_t{-3})})));
  EXPECT_EQ(calls, 2);
  // The default predicate keeps everything; an empty function is refused.
  EXPECT_EQ(PredExpr().kind, PredExpr::Kind::kAll);
  EXPECT_TRUE(PredExpr().Validate().ok());
  const PredExpr empty = TuplePredicate();
  EXPECT_EQ(empty.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PredExpr::And({PredExpr::IntEquals(0, 1), empty})
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
}

/// Reference evaluation: per-row EvalRow over the whole span.
std::vector<uint32_t> RowPathSelection(const PredExpr& pred,
                                       const std::vector<Tuple>& rows) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (pred.EvalRow(rows[i])) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

TEST(PredKernelTest, BatchSelectionMatchesRowPath) {
  Rng rng(42);
  std::vector<Tuple> rows = IntRows(rng, 200);
  rows[17] = Tuple({Value(std::string("odd")), Value(int64_t{3}),
                    Value(int64_t{17})});  // Poison column 0 -> fallback.
  std::vector<PredExpr> preds;
  preds.push_back(PredExpr::All());
  preds.push_back(PredExpr::None());
  preds.push_back(PredExpr::IntBetween(0, -10, 10));
  preds.push_back(PredExpr::IntNotEquals(1, 4));
  preds.push_back(PredExpr::StringEquals(0, "odd"));
  preds.push_back(PredExpr::StringNotEquals(0, "odd"));
  {
    std::vector<PredExpr> conj;
    conj.push_back(PredExpr::IntBetween(0, -30, 30));
    conj.push_back(PredExpr::IntBetween(1, 2, 8));
    conj.push_back(PredExpr::IntNotEquals(2, 100));
    preds.push_back(PredExpr::And(std::move(conj)));
  }
  const PredExpr odd_id = [](const Tuple& t) { return t.at(2).AsInt() % 2; };
  preds.push_back(odd_id);
  // A row leaf between typed leaves: it filters a selection in place.
  preds.push_back(PredExpr::And(
      {PredExpr::IntBetween(1, 2, 8), odd_id, PredExpr::IntNotEquals(0, 0)}));
  Arena arena;
  for (const PredExpr& pred : preds) {
    ScopedArena scope(&arena);
    ColumnBatch batch(rows, scope.get());
    uint32_t* sel = scope.get()->AllocateArrayOf<uint32_t>(rows.size());
    const size_t n = EvalPredAll(pred, batch, sel);
    const std::vector<uint32_t> expect = RowPathSelection(pred, rows);
    ASSERT_EQ(n, expect.size()) << pred.ToString();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sel[i], expect[i]) << pred.ToString();
    }
  }
}

TEST(PredKernelTest, FilterRefinesExistingSelection) {
  Rng rng(7);
  std::vector<Tuple> rows = IntRows(rng, 100);
  Arena arena;
  ColumnBatch batch(rows, &arena);
  uint32_t* sel = arena.AllocateArrayOf<uint32_t>(rows.size());
  const PredExpr first = PredExpr::IntBetween(0, -25, 25);
  const PredExpr second = PredExpr::IntBetween(1, 0, 4);
  size_t n = EvalPredAll(first, batch, sel);
  n = EvalPredFilter(second, batch, sel, n);
  std::vector<PredExpr> both;
  both.push_back(first);
  both.push_back(second);
  const std::vector<uint32_t> expect =
      RowPathSelection(PredExpr::And(std::move(both)), rows);
  ASSERT_EQ(n, expect.size());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(sel[i], expect[i]);
}

TEST(PredKernelTest, SelectRowsMatchesRowPathAtEverySpanLength) {
  Rng rng(9);
  std::vector<Tuple> rows = IntRows(rng, 12);
  rows[5] = Tuple({Value(std::string("odd")), Value(int64_t{3}),
                   Value(int64_t{5})});  // Poison column 0 -> fallback.
  const PredExpr odd_id = [](const Tuple& t) { return t.at(2).AsInt() % 2; };
  const std::vector<PredExpr> preds = {
      PredExpr::All(), PredExpr::None(), PredExpr::IntBetween(0, -20, 20),
      PredExpr::StringNotEquals(0, "odd"), odd_id,
      PredExpr::And({PredExpr::IntBetween(1, 1, 9), odd_id})};
  Arena arena;
  // Spans of 0-3 rows take the EvalRow loop, 4 and more the kernels.
  for (size_t n = 0; n <= rows.size(); ++n) {
    const std::vector<Tuple> span(rows.begin(), rows.begin() + n);
    for (const PredExpr& pred : preds) {
      ScopedArena scope(&arena);
      ColumnBatch batch(span, scope.get());
      uint32_t* sel = scope.get()->AllocateArrayOf<uint32_t>(n);
      const size_t kept = SelectRows(pred, batch, sel);
      const std::vector<uint32_t> expect = RowPathSelection(pred, span);
      ASSERT_EQ(kept, expect.size()) << pred.ToString() << " n=" << n;
      for (size_t i = 0; i < kept; ++i) {
        EXPECT_EQ(sel[i], expect[i]) << pred.ToString() << " n=" << n;
      }
    }
  }
}

// -------------------------------------------------------------- Hashing --

TEST(HashKernelTest, HashColumnMatchesValueHash) {
  std::vector<Tuple> rows;
  rows.push_back(Tuple({Value(int64_t{-3}), Value(std::string("a"))}));
  rows.push_back(Tuple({Value(int64_t{0}), Value(int64_t{9})}));
  rows.push_back(Tuple({Value(int64_t{1234567}), Value(std::string("b"))}));
  Arena arena;
  ColumnBatch batch(rows, &arena);
  const uint64_t* ints = HashColumn(batch, 0, &arena);   // Int fast path.
  const uint64_t* mixed = HashColumn(batch, 1, &arena);  // Value fallback.
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(ints[i], rows[i].at(0).Hash());
    EXPECT_EQ(mixed[i], rows[i].at(1).Hash());
  }
}

// -------------------------------------------------------- Batched probe --

TEST(BatchedProbeTest, MatchesScalarProbeIncludingChains) {
  // A fragment with heavy duplication so chains have length > 1.
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(rng.Range(0, 60))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);

  std::vector<Tuple> probes;
  for (int i = 0; i < 300; ++i) {
    probes.push_back(Tuple({Value(rng.Range(0, 80))}));  // Some miss.
  }
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  const Value* const* keys = batch.Values(0);
  uint32_t* first = arena.AllocateArrayOf<uint32_t>(probes.size());
  index.ProbeHashed(std::span<const uint64_t>(hashes, probes.size()), keys,
                    first);
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::vector<uint32_t> expect = index.Lookup(probes[i].at(0));
    std::vector<uint32_t> got;
    for (uint32_t pos = first[i]; pos != TempIndex::kNone;
         pos = index.NextMatchAfter(pos, hashes[i], *keys[i])) {
      got.push_back(pos);
    }
    EXPECT_EQ(got, expect) << "probe key " << probes[i].at(0).AsInt();
  }
}

TEST(BatchedProbeTest, ProbeKeysMatchesScalarProbe) {
  // Spans several kProbeTile tiles so the three-stage pipeline's prologue,
  // steady state, and ragged tail all run; duplicated keys give chains.
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng rng(7);
  for (int i = 0; i < 900; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(rng.Range(0, 120))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  ASSERT_TRUE(index.int_keyed());

  std::vector<int64_t> keys;
  for (int i = 0; i < 333; ++i) keys.push_back(rng.Range(0, 160));
  std::vector<uint32_t> first(keys.size());
  index.ProbeKeys(std::span<const int64_t>(keys), first.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<uint32_t> expect = index.Lookup(Value(keys[i]));
    std::vector<uint32_t> got;
    for (uint32_t pos = first[i]; pos != TempIndex::kNone;
         pos = index.NextMatchAfter(pos, keys[i])) {
      got.push_back(pos);
    }
    EXPECT_EQ(got, expect) << "probe key " << keys[i];
  }
}

TEST(BatchedProbeTest, StringKeyedIndexUsesGenericWave) {
  // Non-int keys keep the index off the inline-key fast path; the batched
  // probe must fall back to the hash-prefilter wave and still agree with
  // the scalar walk. Few distinct keys force multi-node chains.
  Relation rel("inner", Schema({{"k", ValueType::kString}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng rng(13);
  const char* words[] = {"ada", "bee", "cat", "doe", "elk"};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(words[rng.Range(0, 4)])})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  ASSERT_FALSE(index.int_keyed());

  std::vector<Tuple> probes;
  for (int i = 0; i < 150; ++i) {
    probes.push_back(Tuple({Value(words[rng.Range(0, 4)])}));
  }
  probes.push_back(Tuple({Value("missing")}));
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  const Value* const* keys = batch.Values(0);
  uint32_t* first = arena.AllocateArrayOf<uint32_t>(probes.size());
  index.ProbeHashed(std::span<const uint64_t>(hashes, probes.size()), keys,
                    first);
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::vector<uint32_t> expect = index.Lookup(probes[i].at(0));
    std::vector<uint32_t> got;
    for (uint32_t pos = first[i]; pos != TempIndex::kNone;
         pos = index.NextMatchAfter(pos, hashes[i], *keys[i])) {
      got.push_back(pos);
    }
    EXPECT_EQ(got, expect) << "probe key " << probes[i].at(0).AsString();
  }
}

TEST(BatchedProbeTest, IntKeyedIndexRejectsNonIntProbeKeys) {
  // A mixed probe column against an int-keyed index: the int tiles resolve
  // on the fast path and the tile holding the string key falls back to
  // per-key resolution, which cannot match any int key.
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(static_cast<int64_t>(i))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  ASSERT_TRUE(index.int_keyed());

  std::vector<Tuple> probes;
  for (int i = 0; i < 10; ++i) {
    probes.push_back(Tuple({Value(static_cast<int64_t>(i * 5))}));
  }
  probes.push_back(Tuple({Value("7")}));  // String, not the int 7.
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  uint32_t* first = arena.AllocateArrayOf<uint32_t>(probes.size());
  index.ProbeHashed(std::span<const uint64_t>(hashes, probes.size()),
                    batch.Values(0), first);
  for (size_t i = 0; i + 1 < probes.size(); ++i) {
    EXPECT_EQ(first[i], static_cast<uint32_t>(i * 5));
  }
  EXPECT_EQ(first[probes.size() - 1], TempIndex::kNone);
}

TEST(BatchedProbeTest, EmptyIndexReturnsNoMatches) {
  Relation rel("empty", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  const TempIndex index(rel.fragment(0), 0);
  std::vector<Tuple> probes = {Tuple({Value(int64_t{1})})};
  Arena arena;
  ColumnBatch batch(probes, &arena);
  const uint64_t* hashes = HashColumn(batch, 0, &arena);
  uint32_t first = 0;
  index.ProbeHashed(std::span<const uint64_t>(hashes, 1), batch.Values(0),
                    &first);
  EXPECT_EQ(first, TempIndex::kNone);
}

// ------------------------------------------------- Concurrent execution --

// Several threads hammer the kernels through their thread-local arenas
// against one shared (read-only) index. Run under TSan by the sanitizer CI
// job; any cross-thread kernel state would fire there.
TEST(ConcurrentKernelTest, ThreadLocalArenasDoNotInterfere) {
  Relation rel("inner", Schema({{"k", ValueType::kInt64}}), 0,
               Partitioner(PartitionKind::kModulo, 1));
  Rng seed_rng(11);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(seed_rng.Range(0, 50))})).ok());
  }
  const TempIndex index(rel.fragment(0), 0);
  std::atomic<uint64_t> total_matches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&index, &total_matches, t] {
      Rng rng(100 + t);
      std::vector<Tuple> rows = IntRows(rng, 128);
      const PredExpr pred = PredExpr::IntBetween(0, -20, 20);
      uint64_t matches = 0;
      for (int round = 0; round < 200; ++round) {
        Arena& arena = ThreadLocalKernelArena();
        ScopedArena scope(&arena);
        ColumnBatch batch(rows, scope.get());
        uint32_t* sel = scope.get()->AllocateArrayOf<uint32_t>(rows.size());
        const size_t n = EvalPredAll(pred, batch, sel);
        const uint64_t* hashes = HashColumn(batch, 2, scope.get());
        uint32_t* first =
            scope.get()->AllocateArrayOf<uint32_t>(rows.size());
        index.ProbeHashed(
            std::span<const uint64_t>(hashes, rows.size()),
            batch.Values(2), first);
        for (size_t i = 0; i < n; ++i) {
          if (first[sel[i]] != TempIndex::kNone) ++matches;
        }
      }
      total_matches.fetch_add(matches);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(total_matches.load(), 0u);
}

// ------------------------------------------- Differential: whole queries --

std::vector<Tuple> SortedScan(const Relation& rel) {
  std::vector<Tuple> rows = rel.Scan();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The portion of an execution's ledger that must be identical between a
/// kernel run and its reference: per-operation tuple units in and out.
std::vector<std::tuple<std::string, uint64_t, uint64_t>> Ledger(
    const ExecutionResult& execution) {
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> out;
  for (const OperationStats& stats : execution.op_stats) {
    uint64_t processed = 0;
    for (uint64_t units : stats.per_instance_processed) processed += units;
    out.emplace_back(stats.name, processed, stats.emitted);
  }
  return out;
}

/// `pred` as an opaque row leaf: the same test, evaluated row by row with
/// none of the typed kernels.
Predicate Opaque(const Predicate& pred) {
  return [pred](const Tuple& t) { return pred.EvalRow(t); };
}

/// The rows of `rel` that `keep` accepts, sorted: the naive oracle.
template <typename Keep>
std::vector<Tuple> NaiveSelect(const Relation& rel, Keep keep) {
  std::vector<Tuple> rows;
  for (const Tuple& t : rel.Scan()) {
    if (keep(t)) rows.push_back(t);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class VectorDifferentialTest : public ::testing::Test {
 protected:
  /// Whether a run uses the engine's default path or the reference.
  enum class Path { kKernels, kReference };

  void SetUp() override {
    WisconsinOptions wopt;
    wopt.cardinality = 2'000;
    wopt.degree = 8;
    wopt.partition_kind = PartitionKind::kHash;
    wopt.with_strings = true;
    ASSERT_TRUE(db_.CreateWisconsin("tenk1", wopt).ok());
    wopt.seed = 99;  // Different permutation, same key set.
    ASSERT_TRUE(db_.CreateWisconsin("tenk2", wopt).ok());
    SkewSpec spec;  // Zipf-skewed join pair.
    spec.a_cardinality = 3'000;
    spec.b_cardinality = 300;
    spec.degree = 8;
    spec.theta = 0.8;
    ASSERT_TRUE(db_.CreateSkewedPair(spec, "Z", "W").ok());
    // Fragments of 1, 2 and 3 rows beside larger ones: one scan runs
    // SelectRows' EvalRow loop and its kernels side by side.
    auto small = std::make_unique<Relation>(
        "small", Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
        0, Partitioner(PartitionKind::kModulo, 8));
    const size_t sizes[8] = {1, 2, 3, 1, 2, 3, 9, 40};
    for (size_t f = 0; f < 8; ++f) {
      for (size_t i = 0; i < sizes[f]; ++i) {
        const int64_t k = static_cast<int64_t>(f + 8 * i);
        ASSERT_TRUE(small->Insert(Tuple({Value(k), Value(k % 5)})).ok());
      }
    }
    ASSERT_TRUE(db_.AddRelation(std::move(small)).ok());
  }

  QueryOptions Options(size_t chunk_size, Path path) {
    QueryOptions options;
    options.schedule.total_threads = 4;
    options.schedule.processors = 4;
    options.schedule.chunk_size = chunk_size;
    options.algorithm = path == Path::kKernels ? JoinAlgorithm::kHash
                                               : JoinAlgorithm::kNestedLoop;
    return options;
  }

  size_t Column(const std::string& rel, const std::string& column) {
    return db_.relation(rel).value()->schema().IndexOf(column).value();
  }

  /// Runs `run` on the kernel path and on the reference path (hash join vs
  /// nested loop; `run` wraps its predicate with Opaque on the reference)
  /// at every chunk size, and requires identical sorted results and
  /// identical tuple ledgers.
  void ExpectPathsAgree(
      const std::function<Result<QueryResult>(const QueryOptions&, Path)>&
          run,
      std::initializer_list<size_t> chunk_sizes = {1, 4, 16, 64}) {
    for (size_t chunk_size : chunk_sizes) {
      auto kernels =
          run(Options(chunk_size, Path::kKernels), Path::kKernels);
      auto reference =
          run(Options(chunk_size, Path::kReference), Path::kReference);
      ASSERT_TRUE(kernels.ok()) << kernels.status().ToString();
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_EQ(SortedScan(*kernels.value().result),
                SortedScan(*reference.value().result))
          << "chunk_size=" << chunk_size;
      EXPECT_EQ(Ledger(kernels.value().execution),
                Ledger(reference.value().execution))
          << "chunk_size=" << chunk_size;
    }
  }

  /// `pred` on the kernel path, Opaque(pred) on the reference.
  static Predicate On(Path path, const Predicate& pred) {
    return path == Path::kKernels ? pred : Opaque(pred);
  }

  Database db_{4};
};

TEST_F(VectorDifferentialTest, IntFilterOnWisconsin) {
  const size_t col = Column("tenk1", "unique1");
  ExpectPathsAgree([&](const QueryOptions& options, Path path) {
    return RunSelect(db_, "tenk1", On(path, ColumnBetween(col, 100, 700)),
                     0.3, options);
  });
}

TEST_F(VectorDifferentialTest, StringFilterOnWisconsin) {
  const size_t col = Column("tenk1", "string4");
  std::string hhhh = "HHHH";
  hhhh.resize(52, 'x');  // string4 values are padded to 52 characters.
  ExpectPathsAgree([&](const QueryOptions& options, Path path) {
    return RunSelect(db_, "tenk1", On(path, ColumnEquals(col, Value(hhhh))),
                     0.25, options);
  });
}

TEST_F(VectorDifferentialTest, HashJoinOnWisconsin) {
  ExpectPathsAgree([&](const QueryOptions& options, Path) {
    return RunIdealJoin(db_, "tenk1", "unique1", "tenk2", "unique1", options);
  });
}

TEST_F(VectorDifferentialTest, FilterJoinOnZipfPair) {
  const size_t payload = Column("Z", "payload");
  ExpectPathsAgree([&](const QueryOptions& options, Path path) {
    return RunFilterJoin(db_, "Z",
                         On(path, ColumnBetween(payload, 0, 1'000'000'000)),
                         0.5, "key", "W", "key", options);
  });
}

// The IdealJoin builds a TempIndex per inner fragment (JoinAlgorithm::kHash)
// on the kernel path, and joins by nested loop on the reference.
TEST_F(VectorDifferentialTest, TempIndexJoinOnZipfPair) {
  ExpectPathsAgree([&](const QueryOptions& options, Path) {
    return RunIdealJoin(db_, "Z", "key", "W", "key", options);
  });
}

TEST_F(VectorDifferentialTest, FragmentsAndChunksOfOneToThreeRows) {
  const PredExpr typed = PredExpr::And(
      {PredExpr::IntNotEquals(1, 2), PredExpr::IntLess(0, 50)});
  const auto keep = [&typed](const Tuple& t) { return typed.EvalRow(t); };
  const Relation& small = *db_.relation("small").value();
  // The triggered scan: fragments of 1-3 rows take the EvalRow branch, the
  // 9- and 40-row ones the kernels.
  ExpectPathsAgree(
      [&](const QueryOptions& options, Path path) {
        return RunSelect(db_, "small", On(path, typed), 0.5, options);
      },
      {1, 2, 3, 4, 16});
  auto scanned =
      RunSelect(db_, "small", typed, 0.5, Options(1, Path::kKernels));
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(SortedScan(*scanned.value().result), NaiveSelect(small, keep));

  // The pipelined filter: chunk sizes 1-3 hand it data activations of 1-3
  // tuples, 4 and 16 larger ones plus the partial chunks each fragment's
  // tail leaves.
  for (size_t chunk_size : {1, 2, 3, 4, 16}) {
    for (const Path path : {Path::kKernels, Path::kReference}) {
      Relation result("res", small.schema(), 0,
                      Partitioner(PartitionKind::kModulo, small.degree()));
      Plan plan;
      const size_t scan =
          plan.AddNode("scan", ActivationMode::kTriggered, small.degree(),
                       std::make_unique<TransmitLogic>(&small));
      const size_t filter = plan.AddNode(
          "filter", ActivationMode::kPipelined, small.degree(),
          std::make_unique<PipelinedFilterLogic>(On(path, typed), 0.5));
      const size_t store =
          plan.AddNode("store", ActivationMode::kPipelined, small.degree(),
                       std::make_unique<StoreLogic>(&result));
      ASSERT_TRUE(plan.ConnectSameInstance(scan, filter).ok());
      ASSERT_TRUE(plan.ConnectSameInstance(filter, store).ok());
      for (size_t i = 0; i < plan.num_nodes(); ++i) {
        plan.params(i).threads = 2;
        plan.params(i).chunk_size = chunk_size;
      }
      Executor executor;
      auto run = executor.Run(plan);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(SortedScan(result), NaiveSelect(small, keep))
          << "chunk_size=" << chunk_size;
    }
  }
}

TEST_F(VectorDifferentialTest, EsqlWhereWithAnUntypedConjunct) {
  // `string4 < 'OOOO'` has no typed leaf (no string ranges), so it runs as
  // a row leaf between the two conjuncts that lower.
  const Relation& tenk1 = *db_.relation("tenk1").value();
  const size_t unique1 = Column("tenk1", "unique1");
  const size_t string4 = Column("tenk1", "string4");
  const size_t ten = Column("tenk1", "ten");
  const std::vector<Tuple> expected = NaiveSelect(tenk1, [&](const Tuple& t) {
    return t.at(unique1) < Value(int64_t{1'500}) &&
           t.at(string4) < Value("OOOO") && !(t.at(ten) == Value(int64_t{3}));
  });
  ASSERT_FALSE(expected.empty());
  const std::string query =
      "SELECT * FROM tenk1 WHERE unique1 < 1500 AND string4 < 'OOOO' AND "
      "ten != 3";
  for (size_t chunk_size : {1, 4, 16, 64}) {
    for (const bool share_work : {false, true}) {
      EsqlOptions options;
      options.schedule.total_threads = 4;
      options.schedule.processors = 4;
      options.schedule.chunk_size = chunk_size;
      options.share_work = share_work;
      auto r = ExecuteEsql(db_, query, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(SortedScan(*r.value().result), expected)
          << "chunk_size=" << chunk_size << " share_work=" << share_work;
    }
  }
}

}  // namespace
}  // namespace dbs3

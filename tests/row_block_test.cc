// Tests of row storage: Tuple's semantics over row-block slices (checked
// against a std::vector<Value> model), and the blocks' lifetimes — rows
// freed on other threads, rows outliving the thread, relation and Database
// that made them, wide rows, and the poisoning that keeps AddressSanitizer
// coverage per row.

#include "storage/row_block.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dbs3/database.h"
#include "esql/planner.h"
#include "storage/relation.h"
#include "storage/tuple.h"
#include "storage/value.h"

#if defined(__SANITIZE_ADDRESS__)
#define DBS3_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DBS3_TEST_ASAN 1
#endif
#endif

#if defined(DBS3_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace dbs3 {
namespace {

/// Values per row past which a row is its own allocation, not a slice of a
/// block.
constexpr size_t kMaxBlockValues =
    (row_block::kMaxBlockSliceBytes - row_block::kHeaderBytes) / sizeof(Value);

using Model = std::vector<Value>;

Value RandomValue(Rng& rng) {
  switch (rng.Below(6)) {
    case 0:
      // Long enough to live outside std::string's inline buffer.
      return Value(std::string(16 + rng.Below(24), 'a' + rng.Below(3)));
    case 1:
      return Value(std::string(rng.Below(4), 'a' + rng.Below(3)));
    default:
      return Value(rng.Range(-3, 3));
  }
}

Model RandomModel(Rng& rng, size_t min_size, size_t max_size) {
  Model values(min_size + rng.Below(max_size - min_size + 1));
  for (Value& v : values) v = RandomValue(rng);
  return values;
}

void ExpectMatchesModel(const Tuple& t, const Model& m) {
  ASSERT_EQ(t.size(), m.size());
  ASSERT_EQ(t.values().size(), m.size());
  for (size_t c = 0; c < m.size(); ++c) {
    EXPECT_EQ(t.at(c), m[c]) << "column " << c;
    EXPECT_EQ(t.values()[c], m[c]) << "column " << c;
  }
}

TEST(TupleTest, MatchesVectorModelUnderRandomOperations) {
  constexpr size_t kSlots = 4;
  constexpr int kOps = 20'000;
  Rng rng(21);
  // Slots are optionals so that construction and destruction are
  // operations of their own; a destroyed slot's model is nullopt.
  std::array<std::optional<Tuple>, kSlots> rows;
  std::array<std::optional<Model>, kSlots> models;
  for (int op = 0; op < kOps; ++op) {
    const size_t i = rng.Below(kSlots);
    // Two slots distinct from i (they may equal each other).
    const size_t j = (i + 1 + rng.Below(kSlots - 1)) % kSlots;
    const size_t k = (i + 1 + rng.Below(kSlots - 1)) % kSlots;
    for (size_t s : {i, j, k}) {
      if (!rows[s].has_value()) {
        rows[s].emplace();
        models[s].emplace();
      }
    }
    Tuple& ti = *rows[i];
    Model& mi = *models[i];
    const uint64_t kind = rng.Below(17);
    switch (kind) {
      case 0:  // Construct empty.
        rows[i].emplace();
        models[i].emplace();
        break;
      case 1: {  // Construct from an initializer list.
        const Value a = RandomValue(rng), b = RandomValue(rng),
                    c = RandomValue(rng);
        switch (rng.Below(3)) {
          case 0:
            rows[i].emplace(std::initializer_list<Value>{a});
            models[i] = Model{a};
            break;
          case 1:
            rows[i].emplace(std::initializer_list<Value>{a, b});
            models[i] = Model{a, b};
            break;
          default:
            rows[i].emplace(std::initializer_list<Value>{a, b, c});
            models[i] = Model{a, b, c};
            break;
        }
        break;
      }
      case 2: {  // Construct from a std::vector.
        Model m = RandomModel(rng, 0, 20);
        models[i] = m;
        rows[i].emplace(std::move(m));
        break;
      }
      case 3: {  // Construct wider than a block slice.
        Model m = RandomModel(rng, kMaxBlockValues + 1, kMaxBlockValues + 40);
        models[i] = m;
        rows[i].emplace(std::move(m));
        break;
      }
      case 4:  // Copy-construct.
        rows[i].emplace(*rows[j]);
        models[i] = *models[j];
        break;
      case 5:  // Move-construct; the source is left empty.
        rows[i].emplace(std::move(*rows[j]));
        models[i] = std::move(*models[j]);
        EXPECT_EQ(rows[j]->size(), 0u);
        models[j]->clear();
        break;
      case 6:  // Copy-assign.
        ti = *rows[j];
        mi = *models[j];
        break;
      case 7:  // Move-assign; the source is left empty.
        ti = std::move(*rows[j]);
        mi = std::move(*models[j]);
        EXPECT_EQ(rows[j]->size(), 0u);
        models[j]->clear();
        break;
      case 8: {  // Self copy-assign.
        const Tuple& self = ti;
        ti = self;
        const Model& model_self = mi;
        mi = model_self;
        break;
      }
      case 9: {  // Self move-assign: whatever the model's vector does.
        Tuple& self = ti;
        ti = std::move(self);
        Model& model_self = mi;
        mi = std::move(model_self);
        break;
      }
      case 10: {  // Append.
        const Value v = RandomValue(rng);
        ti.Append(v);
        mi.push_back(v);
        break;
      }
      case 11:  // AssignFrom a distinct row.
        ti.AssignFrom(*rows[j]);
        mi = *models[j];
        break;
      case 12: {  // AssignConcat of rows distinct from the target.
        ti.AssignConcat(*rows[j], *rows[k]);
        Model m = *models[j];
        m.insert(m.end(), models[k]->begin(), models[k]->end());
        mi = std::move(m);
        break;
      }
      case 13: {  // AssignSelect of a distinct row, columns may repeat.
        const Model& src = *models[j];
        std::vector<size_t> columns;
        if (!src.empty()) {
          columns.resize(rng.Below(src.size() + 3));
          for (size_t& c : columns) c = rng.Below(src.size());
        }
        ti.AssignSelect(*rows[j], columns);
        Model m;
        for (size_t c : columns) m.push_back(src[c]);
        mi = std::move(m);
        break;
      }
      case 14: {  // Concat.
        ti = rows[j]->Concat(*rows[k]);
        Model m = *models[j];
        m.insert(m.end(), models[k]->begin(), models[k]->end());
        mi = std::move(m);
        break;
      }
      case 15:  // AssignFrom onto itself.
        ti.AssignFrom(ti);
        break;
      case 16:  // Destroy.
        rows[i].reset();
        models[i].reset();
        break;
    }
    for (size_t a = 0; a < kSlots; ++a) {
      ASSERT_EQ(rows[a].has_value(), models[a].has_value());
      if (!rows[a].has_value()) continue;
      ExpectMatchesModel(*rows[a], *models[a]);
      for (size_t b = 0; b < kSlots; ++b) {
        if (!rows[b].has_value()) continue;
        EXPECT_EQ(*rows[a] == *rows[b], *models[a] == *models[b]);
        EXPECT_EQ(*rows[a] < *rows[b], *models[a] < *models[b]);
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged from the model at operation " << op << " (kind "
             << kind << ", slots " << i << ", " << j << ", " << k << ")";
    }
  }
}

/// A 13-int row, the width of a Wisconsin row without strings.
Tuple WideIntRow(int64_t seed) {
  std::vector<Value> values;
  for (int64_t c = 0; c < 13; ++c) values.emplace_back(seed * 13 + c);
  return Tuple(std::move(values));
}

void ExpectWideIntRow(const Tuple& t, int64_t seed) {
  ASSERT_EQ(t.size(), 13u);
  for (int64_t c = 0; c < 13; ++c) {
    ASSERT_EQ(t.at(static_cast<size_t>(c)).AsInt(), seed * 13 + c);
  }
}

/// Enough 13-int rows to span several blocks.
constexpr int64_t kManyRows = 3'000;

TEST(RowBlockTest, RowsFreedOnAnotherThread) {
  const int64_t baseline = row_block::LiveBlocks();
  std::vector<Tuple> rows;
  std::thread([&] {
    for (int64_t r = 0; r < kManyRows; ++r) rows.push_back(WideIntRow(r));
  }).join();
  EXPECT_GT(row_block::LiveBlocks(), baseline);
  // Read and free on a third thread.
  std::thread([&] {
    for (int64_t r = 0; r < kManyRows; ++r) {
      ExpectWideIntRow(rows[static_cast<size_t>(r)], r);
    }
    rows.clear();
    rows.shrink_to_fit();
  }).join();
  EXPECT_EQ(row_block::LiveBlocks(), baseline);
}

TEST(RowBlockTest, RowsOutliveTheThreadThatMadeThem) {
  const int64_t baseline = row_block::LiveBlocks();
  std::optional<Tuple> last;
  std::vector<Tuple> rows;
  std::thread([&] {
    for (int64_t r = 0; r < kManyRows; ++r) rows.push_back(WideIntRow(r));
    last.emplace(WideIntRow(kManyRows));
  }).join();
  // The thread and its block cache are gone; every row is still readable.
  for (int64_t r = 0; r < kManyRows; ++r) {
    ExpectWideIntRow(rows[static_cast<size_t>(r)], r);
  }
  rows.clear();
  rows.shrink_to_fit();
  // One live row keeps its block alive...
  EXPECT_GT(row_block::LiveBlocks(), baseline);
  ExpectWideIntRow(*last, kManyRows);
  // ...and the last row's death frees it.
  last.reset();
  EXPECT_EQ(row_block::LiveBlocks(), baseline);
}

TEST(RowBlockTest, RowsOutliveTheirRelationAndDatabase) {
  const int64_t baseline = row_block::LiveBlocks();
  std::vector<Tuple> survivors;
  int64_t expected_sum = 0;
  // Every row is made on threads that are gone before the rows are read:
  // this helper and the database's runtime threads.
  std::thread([&] {
    Database db(2);
    WisconsinOptions options;
    options.cardinality = 2'000;
    options.degree = 4;
    ASSERT_TRUE(db.CreateWisconsin("w", options).ok());
    auto taken =
        SubmitEsql(db, "SELECT * FROM w WHERE unique1 < 500", EsqlOptions{})
            .Take();
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    std::unique_ptr<Relation> result = std::move(taken.value().result);
    for (size_t f = 0; f < result->degree(); ++f) {
      for (Tuple& t : result->fragment(f).tuples) {
        expected_sum += t.at(0).AsInt();
        survivors.push_back(std::move(t));
      }
    }
  }).join();
  ASSERT_EQ(survivors.size(), 500u);
  EXPECT_GT(row_block::LiveBlocks(), baseline);
  int64_t sum = 0;
  for (const Tuple& t : survivors) sum += t.at(0).AsInt();
  EXPECT_EQ(sum, expected_sum);
  EXPECT_EQ(sum, 499 * 500 / 2);
  survivors.clear();
  survivors.shrink_to_fit();
  EXPECT_EQ(row_block::LiveBlocks(), baseline);
}

TEST(RowBlockTest, WideRowsAreTheirOwnAllocation) {
  const int64_t baseline = row_block::LiveBlocks();
  std::thread([&] {
    const uint64_t slices_before = row_block::SlicesAllocated();
    std::vector<Value> values;
    for (size_t c = 0; c <= kMaxBlockValues; ++c) {
      values.emplace_back(static_cast<int64_t>(c));
    }
    const Tuple wide(std::move(values));
    // One slice counted, but no block: the thread never carved.
    EXPECT_EQ(row_block::SlicesAllocated(), slices_before + 1);
    EXPECT_EQ(row_block::LiveBlocks(), baseline);
    const Tuple copy = wide;
    ASSERT_EQ(copy.size(), kMaxBlockValues + 1);
    for (size_t c = 0; c <= kMaxBlockValues; ++c) {
      EXPECT_EQ(copy.at(c).AsInt(), static_cast<int64_t>(c));
    }
    // The widest row a block holds is a slice of one.
    Tuple widest = copy;
    widest.AssignSelect(copy, std::vector<size_t>(kMaxBlockValues, 0));
    EXPECT_EQ(row_block::LiveBlocks(), baseline);  // Reused in place.
    const Tuple carved(widest);
    EXPECT_EQ(row_block::LiveBlocks(), baseline + 1);
  }).join();
  EXPECT_EQ(row_block::LiveBlocks(), baseline);
}

TEST(RowBlockTest, ScratchScopeRowsShareNoBlockWithOtherRows) {
  // One thread interleaves rows it keeps with rows made inside a scratch
  // scope (nested, then in the outer scope alone). The scoped rows come
  // from a chain of their own, so once they die their blocks go back while
  // every kept row is still alive; interleaved in one chain, each block
  // would hold a kept row and stay.
  const int64_t baseline = row_block::LiveBlocks();
  std::thread([&] {
    constexpr int64_t kRows = 4'000;
    const size_t usable = row_block::kBlockBytes - 64;
    const size_t kept_bytes =
        kRows * (row_block::kHeaderBytes + 2 * sizeof(Value));
    const size_t scratch_bytes =
        2 * kRows * (row_block::kHeaderBytes + 4 * sizeof(Value));
    std::vector<Tuple> kept, scratch;
    kept.reserve(kRows);
    scratch.reserve(2 * kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      kept.push_back(Tuple({Value(i), Value(-i)}));
      row_block::ScratchScope scope;
      {
        row_block::ScratchScope nested;
        scratch.push_back(Tuple({Value(i), Value(i), Value(i), Value(i)}));
      }
      scratch.push_back(Tuple({Value(-i), Value(i), Value(i), Value(i)}));
    }
    const int64_t kept_blocks =
        static_cast<int64_t>((kept_bytes + usable - 1) / usable);
    const int64_t scratch_blocks =
        static_cast<int64_t>((scratch_bytes + usable - 1) / usable);
    EXPECT_EQ(row_block::LiveBlocks() - baseline,
              kept_blocks + scratch_blocks);
    scratch.clear();
    // The scratch chain keeps only its current block.
    EXPECT_EQ(row_block::LiveBlocks() - baseline, kept_blocks + 1);
    // Outside every scope, rows come from the kept rows' chain again.
    kept.push_back(Tuple({Value(kRows), Value(-kRows)}));
    EXPECT_EQ(row_block::LiveBlocks() - baseline, kept_blocks + 1);
    for (int64_t i = 0; i <= kRows; ++i) {
      ASSERT_EQ(kept[i].at(0).AsInt(), i);
      ASSERT_EQ(kept[i].at(1).AsInt(), -i);
    }
  }).join();
  EXPECT_EQ(row_block::LiveBlocks(), baseline);
}

TEST(RowBlockTest, SlicesAllocatedCountsEveryThreadsRows) {
  const uint64_t before = row_block::SlicesAllocated();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([] {
      for (int64_t r = 0; r < 100; ++r) (void)WideIntRow(r);
    });
  }
  for (std::thread& t : threads) t.join();
  // Exited threads' counts are folded in exactly.
  EXPECT_EQ(row_block::SlicesAllocated(), before + 300);
}

TEST(RowBlockTest, StressAllocateOnOneThreadFreeOnAnother) {
  // Four threads in a ring: each makes rows and hands them to the next,
  // which reads and frees them. Under TSan this checks that the count's
  // ordering makes every write to a row happen before its block's free.
  constexpr int kThreads = 4;
  constexpr int64_t kRowsPerThread = 20'000;
  constexpr size_t kBatch = 64;
  const int64_t baseline = row_block::LiveBlocks();
  struct Mailbox {
    std::mutex mu;
    std::deque<std::vector<Tuple>> batches;
    bool closed = false;
  };
  std::array<Mailbox, kThreads> boxes;
  std::atomic<int64_t> checked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Mailbox& out = boxes[(t + 1) % kThreads];
      Mailbox& in = boxes[t];
      std::vector<Tuple> batch;
      bool in_closed = false;
      int64_t made = 0;
      while (made < kRowsPerThread || !in_closed) {
        if (made < kRowsPerThread) {
          batch.push_back(WideIntRow(made++));
          if (batch.size() == kBatch || made == kRowsPerThread) {
            std::lock_guard<std::mutex> lock(out.mu);
            out.batches.push_back(std::move(batch));
            batch.clear();
            if (made == kRowsPerThread) out.closed = true;
          }
        }
        std::vector<Tuple> got;
        {
          std::lock_guard<std::mutex> lock(in.mu);
          if (!in.batches.empty()) {
            got = std::move(in.batches.front());
            in.batches.pop_front();
          }
          in_closed = in.closed && in.batches.empty();
        }
        for (const Tuple& row : got) {
          const int64_t seed = row.at(0).AsInt() / 13;
          ExpectWideIntRow(row, seed);
        }
        checked.fetch_add(static_cast<int64_t>(got.size()));
        if (got.empty() && made == kRowsPerThread) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(checked.load(), kThreads * kRowsPerThread);
  EXPECT_EQ(row_block::LiveBlocks(), baseline);
}

TEST(RowBlockTest, AsanPoisonsFreedRowsAndHeaders) {
#if !defined(DBS3_TEST_ASAN)
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  // Two rows carved one after the other from the same block.
  std::optional<Tuple> neighbour;
  std::optional<Tuple> row;
  const char* at = nullptr;
  const char* neighbour_at = nullptr;
  for (int attempt = 0; attempt < 2; ++attempt) {
    neighbour.emplace(std::initializer_list<Value>{Value(1), Value(2)});
    row.emplace(std::initializer_list<Value>{Value(3), Value(4), Value(5)});
    neighbour_at = reinterpret_cast<const char*>(neighbour->values().data());
    at = reinterpret_cast<const char*>(row->values().data());
    if (at == neighbour_at + 2 * sizeof(Value) + row_block::kHeaderBytes) {
      break;  // Not split across a block boundary.
    }
  }
  ASSERT_EQ(at, neighbour_at + 2 * sizeof(Value) + row_block::kHeaderBytes);
  const char* header = at - row_block::kHeaderBytes;
  EXPECT_TRUE(__asan_address_is_poisoned(header));
  EXPECT_FALSE(__asan_address_is_poisoned(at));

  row.reset();
  for (size_t b = 0; b < row_block::kHeaderBytes + 3 * sizeof(Value); ++b) {
    EXPECT_TRUE(__asan_address_is_poisoned(header + b)) << "byte " << b;
  }
  for (size_t b = 0; b < 2 * sizeof(Value); ++b) {
    EXPECT_FALSE(__asan_address_is_poisoned(neighbour_at + b)) << "byte " << b;
  }
  EXPECT_EQ(neighbour->at(1).AsInt(), 2);
#endif
}

}  // namespace
}  // namespace dbs3

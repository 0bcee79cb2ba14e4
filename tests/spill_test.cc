// Tests of the spill-file layer: chunk-framed tuple roundtrips, rescans
// (the block nested-loop fallback re-reads its probe file), and the
// live-handle accounting the cancellation tests pin.

#include "storage/spill.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dbs3 {
namespace {

Tuple IntRow(int64_t a, int64_t b) { return Tuple({Value(a), Value(b)}); }

std::vector<Tuple> ReadAll(SpillFile& file) {
  EXPECT_TRUE(file.Rewind().ok());
  std::vector<Tuple> all, chunk;
  while (true) {
    auto more = file.ReadChunk(&chunk);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    for (Tuple& t : chunk) all.push_back(std::move(t));
  }
  return all;
}

TEST(SpillFileTest, RoundTripsTuplesAcrossChunkBoundaries) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  SpillFile& spill = *file.value();
  // 2.5 chunk frames' worth, so reads cross frame boundaries.
  const size_t n = kSpillChunkTuples * 2 + kSpillChunkTuples / 2;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(spill.Append(IntRow(static_cast<int64_t>(i), -7)).ok());
  }
  EXPECT_EQ(spill.tuple_count(), n);
  const std::vector<Tuple> back = ReadAll(spill);
  ASSERT_EQ(back.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(back[i].at(0).AsInt(), static_cast<int64_t>(i));
    EXPECT_EQ(back[i].at(1).AsInt(), -7);
  }
  EXPECT_GT(spill.bytes_written(), 0u);
}

TEST(SpillFileTest, RoundTripsStringsAndMixedArity) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  SpillFile& spill = *file.value();
  const Tuple a({Value(int64_t{1}), Value(std::string("paris"))});
  const Tuple b({Value(std::string("")), Value(int64_t{-5}),
                 Value(std::string("lyon"))});
  const Tuple c({Value(int64_t{42})});
  ASSERT_TRUE(spill.Append(a).ok());
  ASSERT_TRUE(spill.Append(b).ok());
  ASSERT_TRUE(spill.Append(c).ok());
  const std::vector<Tuple> back = ReadAll(spill);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);
  EXPECT_EQ(back[2], c);
}

TEST(SpillFileTest, RewindAllowsRepeatedRescans) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  SpillFile& spill = *file.value();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(spill.Append(IntRow(i, i * 2)).ok());
  }
  const std::vector<Tuple> first = ReadAll(spill);
  const std::vector<Tuple> second = ReadAll(spill);  // Rescan.
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 100u);
}

TEST(SpillFileTest, EmptyFileReadsCleanEof) {
  auto file = SpillFile::Create();
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Rewind().ok());
  std::vector<Tuple> chunk;
  auto more = file.value()->ReadChunk(&chunk);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  EXPECT_TRUE(chunk.empty());
}

TEST(SpillFileTest, CountersAccumulateAcrossFiles) {
  SpillCounters counters;
  {
    auto f1 = SpillFile::Create(&counters);
    auto f2 = SpillFile::Create(&counters);
    ASSERT_TRUE(f1.ok() && f2.ok());
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(f1.value()->Append(IntRow(i, 0)).ok());
      ASSERT_TRUE(f2.value()->Append(IntRow(i, 1)).ok());
    }
    (void)ReadAll(*f1.value());
  }
  EXPECT_GT(counters.bytes_written.load(), 0u);
  EXPECT_GT(counters.bytes_read.load(), 0u);
}

TEST(SpillFileTest, LiveFileCountReturnsToBaseline) {
  const int64_t before = SpillFile::live_files();
  {
    auto f1 = SpillFile::Create();
    auto f2 = SpillFile::Create();
    ASSERT_TRUE(f1.ok() && f2.ok());
    EXPECT_EQ(SpillFile::live_files(), before + 2);
  }
  EXPECT_EQ(SpillFile::live_files(), before);
}

}  // namespace
}  // namespace dbs3

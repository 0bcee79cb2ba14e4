#include "storage/relation.h"

#include <gtest/gtest.h>

namespace dbs3 {
namespace {

Schema TwoCols() {
  return Schema({{"key", ValueType::kInt64}, {"val", ValueType::kInt64}});
}

TEST(RelationTest, StartsEmptyWithDegreeFragments) {
  Relation r("R", TwoCols(), 0, Partitioner(PartitionKind::kModulo, 4));
  EXPECT_EQ(r.degree(), 4u);
  EXPECT_EQ(r.cardinality(), 0u);
  EXPECT_EQ(r.name(), "R");
  EXPECT_EQ(r.partition_column(), 0u);
}

TEST(RelationTest, InsertRoutesByPartitioner) {
  Relation r("R", TwoCols(), 0, Partitioner(PartitionKind::kModulo, 4));
  for (int64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(r.Insert(Tuple({Value(k), Value(k * 10)})).ok());
  }
  EXPECT_EQ(r.cardinality(), 40u);
  const std::vector<uint64_t> cards = r.FragmentCardinalities();
  ASSERT_EQ(cards.size(), 4u);
  for (uint64_t c : cards) EXPECT_EQ(c, 10u);
  // Every tuple in fragment f has key % 4 == f.
  for (size_t f = 0; f < 4; ++f) {
    for (const Tuple& t : r.fragment(f).tuples) {
      EXPECT_EQ(t.at(0).AsInt() % 4, static_cast<int64_t>(f));
    }
  }
}

TEST(RelationTest, InsertRejectsArityMismatch) {
  Relation r("R", TwoCols(), 0, Partitioner(PartitionKind::kModulo, 2));
  const Status s = r.Insert(Tuple({Value(int64_t{1})}));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("R"), std::string::npos);
}

TEST(RelationTest, InsertRejectsStringIntoIntColumn) {
  Relation r("R", TwoCols(), 0, Partitioner(PartitionKind::kModulo, 2));
  ASSERT_TRUE(r.Insert(Tuple({Value(int64_t{1}), Value(int64_t{2})})).ok());
  const Status s =
      r.Insert(Tuple({Value(int64_t{3}), Value(std::string("four"))}));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("val"), std::string::npos) << s.ToString();
  EXPECT_EQ(r.cardinality(), 1u);
}

TEST(RelationTest, InsertRejectsIntIntoStringColumn) {
  Relation r("R",
             Schema({{"key", ValueType::kInt64}, {"name", ValueType::kString}}),
             0, Partitioner(PartitionKind::kModulo, 2));
  ASSERT_TRUE(
      r.Insert(Tuple({Value(int64_t{1}), Value(std::string("one"))})).ok());
  const Status s = r.Insert(Tuple({Value(int64_t{2}), Value(int64_t{2})}));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("name"), std::string::npos) << s.ToString();
  EXPECT_EQ(r.cardinality(), 1u);
}

TEST(RelationTest, AppendToFragmentBypassesRouting) {
  Relation r("R", TwoCols(), 0, Partitioner(PartitionKind::kModulo, 4));
  r.AppendToFragment(3, Tuple({Value(int64_t{0}), Value(int64_t{0})}));
  EXPECT_EQ(r.fragment(3).cardinality(), 1u);
  EXPECT_EQ(r.fragment(0).cardinality(), 0u);
}

TEST(RelationTest, ScanVisitsFragmentsInOrder) {
  Relation r("R", TwoCols(), 0, Partitioner(PartitionKind::kModulo, 2));
  r.AppendToFragment(0, Tuple({Value(int64_t{0}), Value(int64_t{10})}));
  r.AppendToFragment(1, Tuple({Value(int64_t{1}), Value(int64_t{11})}));
  r.AppendToFragment(0, Tuple({Value(int64_t{2}), Value(int64_t{12})}));
  const std::vector<Tuple> all = r.Scan();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].at(1).AsInt(), 10);
  EXPECT_EQ(all[1].at(1).AsInt(), 12);  // Second tuple of fragment 0.
  EXPECT_EQ(all[2].at(1).AsInt(), 11);
}

TEST(RelationTest, EstimatedBytesGrowsWithData) {
  Relation r("R", TwoCols(), 0, Partitioner(PartitionKind::kModulo, 2));
  const uint64_t empty = r.EstimatedBytes();
  ASSERT_TRUE(r.Insert(Tuple({Value(int64_t{1}), Value(int64_t{2})})).ok());
  const uint64_t one = r.EstimatedBytes();
  EXPECT_GT(one, empty);
  ASSERT_TRUE(r.Insert(Tuple({Value(int64_t{2}), Value(int64_t{3})})).ok());
  EXPECT_EQ(r.EstimatedBytes(), 2 * one - empty);  // Linear in tuples.
}

TEST(RelationTest, StringColumnsCountTowardsBytes) {
  Schema s({{"name", ValueType::kString}});
  Relation r("S", s, 0, Partitioner(PartitionKind::kHash, 1));
  ASSERT_TRUE(r.Insert(Tuple({Value(std::string("x"))})).ok());
  const uint64_t small = r.EstimatedBytes();
  Relation r2("S2", s, 0, Partitioner(PartitionKind::kHash, 1));
  ASSERT_TRUE(r2.Insert(Tuple({Value(std::string(100, 'x'))})).ok());
  EXPECT_GT(r2.EstimatedBytes(), small + 90);
}

}  // namespace
}  // namespace dbs3

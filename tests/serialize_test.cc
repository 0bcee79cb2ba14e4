#include "storage/serialize.h"

#include <cstdio>
#include <unistd.h>

#include <gtest/gtest.h>

#include "dbs3/database.h"
#include "storage/skew.h"
#include "storage/wisconsin.h"

namespace dbs3 {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Overwrites `n` bytes of the file at `path`, starting at `offset`.
void PatchFile(const std::string& path, long offset, const void* data,
               size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(data, 1, n, f), n);
  std::fclose(f);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

/// A one-column, one-fragment relation named "r" whose column is "c".
/// Its file starts with magic and version (4 bytes each), the name (u64
/// length + 1 byte), the column count (u64) and the column's name (u64
/// length + 1 byte); then come the column's type byte, the partition column
/// (u64) and the partitioning kind byte.
constexpr long kTypeByteOffset = 4 + 4 + (8 + 1) + 8 + (8 + 1);
constexpr long kKindByteOffset = kTypeByteOffset + 1 + 8;

Relation OneColumnRelation(ValueType type) {
  return Relation("r", Schema({{"c", type}}), 0,
                  Partitioner(PartitionKind::kHash, 1));
}

TEST(SerializeTest, RoundTripsIntRelation) {
  SkewSpec spec;
  spec.a_cardinality = 1'000;
  spec.b_cardinality = 100;
  spec.degree = 8;
  spec.theta = 0.7;
  auto db = BuildSkewedDatabase(spec);
  ASSERT_TRUE(db.ok());
  const std::string path = TempPath("round_trip.dbs3");
  ASSERT_TRUE(WriteRelation(*db.value().a, path).ok());
  auto loaded = ReadRelation(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Relation& a = *db.value().a;
  const Relation& b = *loaded.value();
  EXPECT_EQ(b.name(), a.name());
  EXPECT_TRUE(b.schema() == a.schema());
  EXPECT_EQ(b.partition_column(), a.partition_column());
  EXPECT_TRUE(b.partitioner() == a.partitioner());
  EXPECT_EQ(b.degree(), a.degree());
  for (size_t f = 0; f < a.degree(); ++f) {
    EXPECT_EQ(b.fragment(f).tuples, a.fragment(f).tuples) << "fragment " << f;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RoundTripsStringColumns) {
  WisconsinOptions opt;
  opt.cardinality = 200;
  opt.degree = 4;
  opt.with_strings = true;
  auto rel = GenerateWisconsin("w", opt);
  ASSERT_TRUE(rel.ok());
  const std::string path = TempPath("strings.dbs3");
  ASSERT_TRUE(WriteRelation(*rel.value(), path).ok());
  auto loaded = ReadRelation(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->Scan(), rel.value()->Scan());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsNotFound) {
  auto r = ReadRelation(TempPath("does_not_exist.dbs3"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SerializeTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.dbs3");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a relation file at all, honestly", f);
  std::fclose(f);
  auto r = ReadRelation(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("not a DBS3 relation"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileRejected) {
  SkewSpec spec;
  spec.a_cardinality = 500;
  spec.b_cardinality = 100;
  spec.degree = 4;
  auto db = BuildSkewedDatabase(spec);
  ASSERT_TRUE(db.ok());
  const std::string path = TempPath("truncated.dbs3");
  ASSERT_TRUE(WriteRelation(*db.value().a, path).ok());
  // Truncate to half.
  const long size = FileSize(path);
  ASSERT_GT(size, 0);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto r = ReadRelation(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(SerializeTest, DatabaseSaveLoadCycle) {
  Database db(2);
  SkewSpec spec;
  spec.a_cardinality = 300;
  spec.b_cardinality = 60;
  spec.degree = 6;
  ASSERT_TRUE(db.CreateSkewedPair(spec, "A", "B").ok());
  const std::string path = TempPath("db_cycle.dbs3");
  ASSERT_TRUE(db.SaveRelation("A", path).ok());
  EXPECT_EQ(db.SaveRelation("nope", path).code(), StatusCode::kNotFound);

  Database other(2);
  ASSERT_TRUE(other.LoadRelation(path).ok());
  auto a = other.relation("A");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value()->cardinality(), 300u);
  // Fragments placed on the new database's disks.
  EXPECT_GE(a.value()->fragment(0).disk_id, 0);
  // Loading the same file again collides on the name.
  EXPECT_EQ(other.LoadRelation(path).code(), StatusCode::kAlreadyExists);
  std::remove(path.c_str());
}

TEST(SerializeTest, EmptyRelationRoundTrips) {
  Relation empty("empty", SkewSchema(), 0,
                 Partitioner(PartitionKind::kHash, 5));
  const std::string path = TempPath("empty.dbs3");
  ASSERT_TRUE(WriteRelation(empty, path).ok());
  auto loaded = ReadRelation(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->cardinality(), 0u);
  EXPECT_EQ(loaded.value()->degree(), 5u);
  std::remove(path.c_str());
}

TEST(SerializeTest, UnknownColumnTypeRejected) {
  Relation rel = OneColumnRelation(ValueType::kInt64);
  ASSERT_TRUE(rel.Insert(Tuple({Value(int64_t{5})})).ok());
  const std::string path = TempPath("bad_type.dbs3");
  ASSERT_TRUE(WriteRelation(rel, path).ok());
  const uint8_t type = 7;
  PatchFile(path, kTypeByteOffset, &type, 1);
  auto r = ReadRelation(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(SerializeTest, UnknownPartitionKindRejected) {
  Relation rel = OneColumnRelation(ValueType::kInt64);
  ASSERT_TRUE(rel.Insert(Tuple({Value(int64_t{5})})).ok());
  const std::string path = TempPath("bad_kind.dbs3");
  ASSERT_TRUE(WriteRelation(rel, path).ok());
  const uint8_t kind = 7;
  PatchFile(path, kKindByteOffset, &kind, 1);
  auto r = ReadRelation(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(SerializeTest, ValueOfTheWrongTypeRejected) {
  // Insert rejects a value of the wrong type, but AppendToFragment checks
  // nothing, so an int64 column can still hold a string cell in memory; the
  // file must not carry it back in.
  Relation rel = OneColumnRelation(ValueType::kInt64);
  ASSERT_TRUE(rel.Insert(Tuple({Value(int64_t{5})})).ok());
  rel.AppendToFragment(0, Tuple({Value(std::string("not an int"))}));
  const std::string path = TempPath("wrong_type.dbs3");
  ASSERT_TRUE(WriteRelation(rel, path).ok());
  auto r = ReadRelation(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(SerializeTest, StringLongerThanTheFileRejected) {
  Relation rel = OneColumnRelation(ValueType::kString);
  ASSERT_TRUE(rel.Insert(Tuple({Value(std::string("abc"))})).ok());
  const std::string path = TempPath("long_string.dbs3");
  ASSERT_TRUE(WriteRelation(rel, path).ok());
  // The file ends with the only value: its u64 length, then "abc".
  const uint64_t length = uint64_t{1} << 31;
  PatchFile(path, FileSize(path) - 3 - 8, &length, sizeof(length));
  auto r = ReadRelation(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // Rejected by the length check, before any allocation for the string.
  EXPECT_NE(r.status().message().find("bytes left"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dbs3

#include "storage/schema.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/hash.h"
#include "common/rng.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace dbs3 {
namespace {

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, IntAndStringKinds) {
  Value i(int64_t{-5});
  Value s(std::string("hello"));
  EXPECT_EQ(i.type(), ValueType::kInt64);
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(i.AsInt(), -5);
  EXPECT_EQ(s.AsString(), "hello");
  EXPECT_STREQ(ValueTypeName(i.type()), "int64");
  EXPECT_STREQ(ValueTypeName(s.type()), "string");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(int64_t{4}));
  EXPECT_NE(Value(int64_t{3}), Value(std::string("3")));
  EXPECT_LT(Value(int64_t{3}), Value(int64_t{4}));
  // Ints order before strings (variant index order): total order exists.
  EXPECT_LT(Value(int64_t{999}), Value(std::string("a")));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(int64_t{7}).Hash());
  EXPECT_EQ(Value(std::string("x")).Hash(), Value(std::string("x")).Hash());
  EXPECT_NE(Value(int64_t{7}).Hash(), Value(int64_t{8}).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{-12}).ToString(), "-12");
  EXPECT_EQ(Value(std::string("abc")).ToString(), "abc");
}

// Reference model: a variant over the same two payloads has exactly the
// semantics Value promises (type by alternative, ints ordered before
// strings, payload equality and order), so Value must agree with it after
// every operation.
using ValueModel = std::variant<int64_t, std::string>;

uint64_t ModelHash(const ValueModel& m) {
  if (m.index() == 0) {
    return HashInt64(static_cast<uint64_t>(std::get<int64_t>(m)));
  }
  return HashBytes(std::get<std::string>(m));
}

void ExpectMatchesModel(const Value& v, const ValueModel& m) {
  ASSERT_EQ(v.is_int(), m.index() == 0);
  EXPECT_EQ(v.type(), m.index() == 0 ? ValueType::kInt64 : ValueType::kString);
  if (v.is_int()) {
    EXPECT_EQ(v.AsInt(), std::get<int64_t>(m));
    ASSERT_NE(v.TryInt(), nullptr);
    EXPECT_EQ(*v.TryInt(), std::get<int64_t>(m));
  } else {
    EXPECT_EQ(v.AsString(), std::get<std::string>(m));
    EXPECT_EQ(v.TryInt(), nullptr);
  }
  EXPECT_EQ(v.Hash(), ModelHash(m));
}

std::string RandomString(Rng& rng, int64_t min_len, int64_t max_len) {
  // A two-letter alphabet makes equal and prefix-related strings common.
  std::string s(static_cast<size_t>(rng.Range(min_len, max_len)), 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.Below(2));
  return s;
}

int64_t RandomInt(Rng& rng) {
  switch (rng.Below(8)) {
    case 0:
      return std::numeric_limits<int64_t>::min();
    case 1:
      return std::numeric_limits<int64_t>::max();
    default:
      return rng.Range(-3, 3);
  }
}

TEST(ValueTest, MatchesVariantModelUnderRandomOperations) {
  constexpr size_t kSlots = 4;
  constexpr int kOps = 20'000;
  Rng rng(16);
  // Slots are optionals so that each constructor can run in place of a
  // destroyed value.
  std::array<std::optional<Value>, kSlots> values;
  std::array<ValueModel, kSlots> models;
  for (size_t i = 0; i < kSlots; ++i) {
    values[i].emplace();
    models[i] = int64_t{0};
  }
  for (int op = 0; op < kOps; ++op) {
    const size_t i = rng.Below(kSlots);
    // A second slot distinct from i (self-assignment is its own operation).
    const size_t j = (i + 1 + rng.Below(kSlots - 1)) % kSlots;
    const uint64_t kind = rng.Below(9);
    switch (kind) {
      case 0: {
        const int64_t x = RandomInt(rng);
        values[i].emplace(x);
        models[i] = x;
        break;
      }
      case 1:
      case 2: {
        // Short strings fit a std::string's inline buffer; long ones do not.
        std::string s = kind == 1 ? RandomString(rng, 0, 15)
                                  : RandomString(rng, 16, 40);
        models[i] = s;
        values[i].emplace(std::move(s));
        break;
      }
      case 3:  // Copy-construct.
        values[i].emplace(*values[j]);
        models[i] = models[j];
        break;
      case 4:  // Copy-assign.
        *values[i] = *values[j];
        models[i] = models[j];
        break;
      case 5:  // Move-construct; the source becomes the default Value.
        values[i].emplace(std::move(*values[j]));
        models[i] = std::exchange(models[j], int64_t{0});
        break;
      case 6:  // Move-assign; the source becomes the default Value.
        *values[i] = std::move(*values[j]);
        models[i] = std::exchange(models[j], int64_t{0});
        break;
      case 7: {  // Self copy-assign: unchanged.
        Value& self = *values[i];
        *values[i] = self;
        break;
      }
      case 8: {  // Self move-assign: unchanged.
        Value& self = *values[i];
        *values[i] = std::move(self);
        break;
      }
    }
    for (size_t a = 0; a < kSlots; ++a) {
      ExpectMatchesModel(*values[a], models[a]);
      for (size_t b = 0; b < kSlots; ++b) {
        EXPECT_EQ(*values[a] == *values[b], models[a] == models[b]);
        EXPECT_EQ(*values[a] != *values[b], models[a] != models[b]);
        EXPECT_EQ(*values[a] < *values[b], models[a] < models[b]);
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged from the model at operation " << op << " (kind "
             << kind << ", slots " << i << ", " << j << ")";
    }
  }
}

TEST(ValueTest, MovesAreNoexcept) {
  // std::vector<Value> moves its elements on growth only when these hold.
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<Value>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<Value>);
}

TEST(ValueTest, EveryIntStringTransition) {
  const std::array<ValueModel, 3> kinds = {
      ValueModel(int64_t{-7}), ValueModel(std::string("short")),
      ValueModel(std::string("a string too long for the inline buffer"))};
  auto make = [](const ValueModel& m) {
    return m.index() == 0 ? Value(std::get<int64_t>(m))
                          : Value(std::get<std::string>(m));
  };
  const ValueModel moved_from = int64_t{0};
  for (const ValueModel& target : kinds) {
    for (const ValueModel& source : kinds) {
      SCOPED_TRACE(make(target).ToString() + " <- " + make(source).ToString());
      {
        Value dst = make(target);
        const Value src = make(source);
        dst = src;
        ExpectMatchesModel(dst, source);
        ExpectMatchesModel(src, source);
      }
      {
        Value dst = make(target);
        Value src = make(source);
        dst = std::move(src);
        ExpectMatchesModel(dst, source);
        ExpectMatchesModel(src, moved_from);
      }
    }
    SCOPED_TRACE(make(target).ToString());
    const Value original = make(target);
    const Value copy(original);
    ExpectMatchesModel(copy, target);
    ExpectMatchesModel(original, target);
    Value src = make(target);
    const Value moved(std::move(src));
    ExpectMatchesModel(moved, target);
    ExpectMatchesModel(src, moved_from);
  }
}

TEST(ValueTest, StringCopyAssignReusesTheTargetBuffer) {
  Value target(std::string(64, 'x'));
  const Value source(std::string(40, 'y'));
  const char* buffer = target.AsString().data();
  target = source;
  EXPECT_EQ(target.AsString(), source.AsString());
  EXPECT_EQ(target.AsString().data(), buffer);
}

TEST(TupleTest, AppendAndAccess) {
  Tuple t;
  t.Append(Value(int64_t{1}));
  t.Append(Value(std::string("two")));
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.at(0).AsInt(), 1);
  EXPECT_EQ(t.at(1).AsString(), "two");
}

TEST(TupleTest, ConcatJoinsValues) {
  Tuple a({Value(int64_t{1}), Value(int64_t{2})});
  Tuple b({Value(int64_t{3})});
  Tuple c = a.Concat(b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.at(2).AsInt(), 3);
  // Originals untouched.
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(TupleTest, AssignFromOverwritesInPlace) {
  Tuple dest({Value(int64_t{9}), Value(int64_t{8}), Value(int64_t{7})});
  // Shrinking assignment: reused slots, trimmed tail.
  dest.AssignFrom(Tuple({Value(int64_t{1}), Value(std::string("x"))}));
  EXPECT_EQ(dest, Tuple({Value(int64_t{1}), Value(std::string("x"))}));
  // Growing assignment from a wider source.
  dest.AssignFrom(
      Tuple({Value(int64_t{4}), Value(int64_t{5}), Value(int64_t{6})}));
  EXPECT_EQ(dest,
            Tuple({Value(int64_t{4}), Value(int64_t{5}), Value(int64_t{6})}));
}

TEST(TupleTest, AssignConcatMatchesConcat) {
  Tuple left({Value(int64_t{1}), Value(std::string("l"))});
  Tuple right({Value(int64_t{2})});
  Tuple dest({Value(int64_t{0})});  // Narrower than the output row.
  dest.AssignConcat(left, right);
  EXPECT_EQ(dest, left.Concat(right));
  // Sources untouched, and a reused (now wider) destination converges to
  // the same row.
  EXPECT_EQ(left.size(), 2u);
  EXPECT_EQ(right.size(), 1u);
  dest.AssignConcat(right, left);
  EXPECT_EQ(dest, right.Concat(left));
}

TEST(TupleTest, ComparisonIsLexicographic) {
  Tuple a({Value(int64_t{1}), Value(int64_t{2})});
  Tuple b({Value(int64_t{1}), Value(int64_t{3})});
  EXPECT_LT(a, b);
  EXPECT_EQ(a, Tuple({Value(int64_t{1}), Value(int64_t{2})}));
}

TEST(TupleTest, ToStringFormat) {
  Tuple t({Value(int64_t{1}), Value(std::string("x"))});
  EXPECT_EQ(t.ToString(), "[1, x]");
}

TEST(SchemaTest, IndexOfFindsColumns) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(s.num_columns(), 2u);
  ASSERT_TRUE(s.IndexOf("b").ok());
  EXPECT_EQ(s.IndexOf("b").value(), 1u);
  auto missing = s.IndexOf("zz");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The error message is actionable: names the column and the schema.
  EXPECT_NE(missing.status().message().find("zz"), std::string::npos);
}

TEST(SchemaTest, ConcatPrefixesCollidingNames) {
  Schema left({{"key", ValueType::kInt64}, {"x", ValueType::kInt64}});
  Schema right({{"key", ValueType::kInt64}, {"y", ValueType::kString}});
  Schema joined = Schema::Concat(left, right);
  ASSERT_EQ(joined.num_columns(), 4u);
  EXPECT_EQ(joined.column(0).name, "key");
  EXPECT_EQ(joined.column(2).name, "r_key");
  EXPECT_EQ(joined.column(3).name, "y");
  EXPECT_EQ(joined.column(3).type, ValueType::kString);
}

TEST(SchemaTest, ConcatCustomPrefix) {
  Schema left({{"k", ValueType::kInt64}});
  Schema right({{"k", ValueType::kInt64}});
  Schema joined = Schema::Concat(left, right, "inner_");
  EXPECT_EQ(joined.column(1).name, "inner_k");
}

TEST(SchemaTest, EqualityAndToString) {
  Schema a({{"a", ValueType::kInt64}});
  Schema b({{"a", ValueType::kInt64}});
  Schema c({{"a", ValueType::kString}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "(a:int64)");
}

}  // namespace
}  // namespace dbs3

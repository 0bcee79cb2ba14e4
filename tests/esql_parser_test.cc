#include "esql/parser.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "esql/lexer.h"

namespace dbs3 {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a, b1 FROM r WHERE x <= -5 AND s = 'hi';");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = tokens.value();
  EXPECT_EQ(t[0].kind, Token::Kind::kIdent);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[2].kind, Token::Kind::kSymbol);
  EXPECT_EQ(t[2].text, ",");
  // "<=" lexes as one symbol.
  bool saw_le = false, saw_neg = false, saw_str = false;
  for (const Token& tok : t) {
    if (tok.kind == Token::Kind::kSymbol && tok.text == "<=") saw_le = true;
    if (tok.kind == Token::Kind::kInt && tok.value == -5) saw_neg = true;
    if (tok.kind == Token::Kind::kString && tok.text == "hi") saw_str = true;
  }
  EXPECT_TRUE(saw_le);
  EXPECT_TRUE(saw_neg);
  EXPECT_TRUE(saw_str);
  EXPECT_EQ(t.back().kind, Token::Kind::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
  EXPECT_FALSE(
      Tokenize("SELECT * FROM wisc WHERE unique1 = 99999999999999999999")
          .ok());
}

TEST(LexerTest, IntegerLiteralsSpanTheInt64Range) {
  auto q = ParseEsql(
      "SELECT * FROM r WHERE a >= -9223372036854775808 "
      "AND a <= 9223372036854775807");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().where.size(), 2u);
  EXPECT_EQ(q.value().where[0].literal,
            Value(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(q.value().where[1].literal,
            Value(std::numeric_limits<int64_t>::max()));

  // One past either end is a clean error naming the literal's position.
  for (const char* text : {"SELECT * FROM r WHERE a = 9223372036854775808",
                           "SELECT * FROM r WHERE a = -9223372036854775809"}) {
    auto out_of_range = ParseEsql(text);
    ASSERT_FALSE(out_of_range.ok()) << text;
    EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out_of_range.status().message().find("position 26"),
              std::string::npos)
        << out_of_range.status().message();
  }
}

TEST(ParserTest, MinimalSelect) {
  auto q = ParseEsql("SELECT * FROM residents");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().items.size(), 1u);
  EXPECT_EQ(q.value().items[0].kind, SelectItem::Kind::kStar);
  EXPECT_EQ(q.value().from, "residents");
  EXPECT_TRUE(q.value().joins.empty());
  EXPECT_TRUE(q.value().where.empty());
}

TEST(ParserTest, FullQuery) {
  auto q = ParseEsql(
      "select r.city, count(*) as n, sum(r.income) "
      "from residents join cities on residents.city = cities.name "
      "where r.age >= 18 and cities.country = 'FR' "
      "group by city order by n desc;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const EsqlQuery& query = q.value();
  ASSERT_EQ(query.items.size(), 3u);
  EXPECT_EQ(query.items[0].kind, SelectItem::Kind::kColumn);
  EXPECT_EQ(query.items[0].column.relation, "r");
  EXPECT_EQ(query.items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_TRUE(query.items[1].count_star);
  EXPECT_EQ(query.items[1].alias, "n");
  EXPECT_EQ(query.items[2].aggregate, AggKind::kSum);
  ASSERT_EQ(query.joins.size(), 1u);
  EXPECT_EQ(query.joins[0].relation, "cities");
  EXPECT_EQ(query.joins[0].left.ToString(), "residents.city");
  EXPECT_EQ(query.joins[0].right.ToString(), "cities.name");
  ASSERT_EQ(query.where.size(), 2u);
  EXPECT_EQ(query.where[0].op, Comparison::Op::kGe);
  EXPECT_EQ(query.where[0].literal.AsInt(), 18);
  EXPECT_EQ(query.where[1].literal.AsString(), "FR");
  ASSERT_TRUE(query.group_by.has_value());
  EXPECT_EQ(query.group_by->column, "city");
  ASSERT_TRUE(query.order_by.has_value());
  EXPECT_EQ(query.order_by->order, SortOrder::kDescending);
}

TEST(ParserTest, OperatorsAllParse) {
  struct Case {
    const char* text;
    Comparison::Op op;
  };
  const Case cases[] = {
      {"=", Comparison::Op::kEq},  {"<>", Comparison::Op::kNe},
      {"!=", Comparison::Op::kNe}, {"<", Comparison::Op::kLt},
      {"<=", Comparison::Op::kLe}, {">", Comparison::Op::kGt},
      {">=", Comparison::Op::kGe},
  };
  for (const Case& c : cases) {
    auto q = ParseEsql(std::string("SELECT * FROM r WHERE x ") + c.text +
                       " 3");
    ASSERT_TRUE(q.ok()) << c.text;
    EXPECT_EQ(q.value().where[0].op, c.op) << c.text;
  }
}

TEST(ParserTest, ErrorsNamePositionAndExpectation) {
  auto missing_from = ParseEsql("SELECT *");
  ASSERT_FALSE(missing_from.ok());
  EXPECT_NE(missing_from.status().message().find("FROM"), std::string::npos);

  auto bad_agg = ParseEsql("SELECT SUM(*) FROM r");
  ASSERT_FALSE(bad_agg.ok());
  EXPECT_NE(bad_agg.status().message().find("COUNT"), std::string::npos);

  auto trailing = ParseEsql("SELECT * FROM r garbage garbage");
  EXPECT_FALSE(trailing.ok());

  auto no_literal = ParseEsql("SELECT * FROM r WHERE a = b");
  ASSERT_FALSE(no_literal.ok());
  EXPECT_NE(no_literal.status().message().find("literal"),
            std::string::npos);
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  auto q = ParseEsql("sElEcT a FrOm r OrDeR bY a AsC");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().order_by.has_value());
}

TEST(ParserTest, IdentifiersKeepCase) {
  auto q = ParseEsql("SELECT MyCol FROM MyRel");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().items[0].column.column, "MyCol");
  EXPECT_EQ(q.value().from, "MyRel");
}

TEST(ParserTest, ToStringRoundTripsStructure) {
  const std::string text =
      "SELECT city, count(*) AS n FROM residents JOIN cities ON city = "
      "name WHERE age >= 18 GROUP BY city ORDER BY n DESC";
  auto q = ParseEsql(text);
  ASSERT_TRUE(q.ok());
  // Re-parse the rendering; structure must survive.
  auto q2 = ParseEsql(q.value().ToString());
  ASSERT_TRUE(q2.ok()) << q.value().ToString();
  EXPECT_EQ(q2.value().ToString(), q.value().ToString());
}

TEST(ParserTest, AggregatesWithoutParensAreColumns) {
  // "count" used as a plain identifier still works as a column name.
  auto q = ParseEsql("SELECT count FROM r");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().items[0].kind, SelectItem::Kind::kColumn);
  EXPECT_EQ(q.value().items[0].column.column, "count");
}

}  // namespace
}  // namespace dbs3

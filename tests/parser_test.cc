// Unit tests for the SQL lexer and parser, including the paper's dialect
// extensions (cardinality specs, case join, expression macros,
// allow_precision_loss).
#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "expr/fold.h"
#include "sql/parser.h"

namespace vdm {
namespace {

Statement Parse(const std::string& sql) {
  Result<Statement> stmt = ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << sql << "\n" << stmt.status().ToString();
  return std::move(stmt).value();
}

TEST(LexerTest, TokenKinds) {
  Result<std::vector<Token>> tokens =
      Tokenize("select x, 42, 3.14, 'str''ing' from t -- comment\nwhere");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kSymbol);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kInteger);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kDecimal);
  EXPECT_EQ((*tokens)[7].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[7].text, "str'ing");  // escaped quote
  EXPECT_EQ((*tokens).back().kind, TokenKind::kEnd);
}

TEST(LexerTest, MultiCharOperators) {
  Result<std::vector<Token>> tokens = Tokenize("a <> b <= c >= d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "<=");
  EXPECT_EQ((*tokens)[5].text, ">=");
  EXPECT_EQ((*tokens)[7].text, "!=");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("select 'unterminated").ok());
  EXPECT_FALSE(Tokenize("select #").ok());
}

TEST(ParserTest, BasicSelect) {
  Statement stmt = Parse("select a, b as bee, t.c from tab t where a > 1");
  ASSERT_EQ(stmt.kind, Statement::Kind::kSelect);
  const SelectCore& core = stmt.select->cores[0];
  ASSERT_EQ(core.items.size(), 3u);
  EXPECT_EQ(core.items[1].alias, "bee");
  EXPECT_EQ(core.from.name, "tab");
  EXPECT_EQ(core.from.alias, "t");
  EXPECT_NE(core.where, nullptr);
}

TEST(ParserTest, ImplicitAlias) {
  Statement stmt = Parse("select a aa from tab tt");
  EXPECT_EQ(stmt.select->cores[0].items[0].alias, "aa");
  EXPECT_EQ(stmt.select->cores[0].from.alias, "tt");
}

TEST(ParserTest, Star) {
  Statement stmt = Parse("select * from t");
  EXPECT_TRUE(stmt.select->cores[0].items[0].star);
}

TEST(ParserTest, Joins) {
  Statement stmt = Parse(
      "select * from a "
      "join b on a.x = b.x "
      "left join c on a.y = c.y "
      "left outer join d on a.z = d.z "
      "inner join e on a.w = e.w");
  const SelectCore& core = stmt.select->cores[0];
  ASSERT_EQ(core.joins.size(), 4u);
  EXPECT_EQ(core.joins[0].join_type, JoinType::kInner);
  EXPECT_EQ(core.joins[1].join_type, JoinType::kLeftOuter);
  EXPECT_EQ(core.joins[2].join_type, JoinType::kLeftOuter);
  EXPECT_EQ(core.joins[3].join_type, JoinType::kInner);
}

TEST(ParserTest, CardinalitySpecs) {
  Statement stmt = Parse(
      "select * from a "
      "left outer many to one join b on a.x = b.x "
      "many to exact one join c on a.y = c.y "
      "one to one join d on a.z = d.z");
  const SelectCore& core = stmt.select->cores[0];
  ASSERT_EQ(core.joins.size(), 3u);
  EXPECT_EQ(core.joins[0].cardinality, DeclaredCardinality::kAtMostOne);
  EXPECT_EQ(core.joins[0].join_type, JoinType::kLeftOuter);
  EXPECT_EQ(core.joins[1].cardinality, DeclaredCardinality::kExactOne);
  EXPECT_EQ(core.joins[2].cardinality, DeclaredCardinality::kExactOne);
}

TEST(ParserTest, CaseJoin) {
  Statement stmt = Parse(
      "select * from v left outer case join t on v.k = t.k");
  ASSERT_EQ(stmt.select->cores[0].joins.size(), 1u);
  EXPECT_TRUE(stmt.select->cores[0].joins[0].case_join);
  EXPECT_EQ(stmt.select->cores[0].joins[0].join_type, JoinType::kLeftOuter);
}

TEST(ParserTest, CaseExpressionVsCaseJoin) {
  // CASE as an expression must still parse.
  Statement stmt = Parse(
      "select case when a > 1 then 'big' else 'small' end from t");
  ASSERT_EQ(stmt.select->cores[0].items.size(), 1u);
  EXPECT_EQ(stmt.select->cores[0].items[0].expr->kind(), ExprKind::kCase);
}

TEST(ParserTest, SubqueryInFrom) {
  Statement stmt = Parse(
      "select s.a from (select a from t where a > 0) s "
      "left join u on s.a = u.a");
  EXPECT_EQ(stmt.select->cores[0].from.kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(stmt.select->cores[0].from.alias, "s");
  // Subquery requires an alias.
  EXPECT_FALSE(ParseStatement("select * from (select a from t)").ok());
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  Statement stmt = Parse(
      "select a, count(*) as n from t group by a "
      "having count(*) > 2 order by n desc, a limit 10 offset 5");
  const SelectCore& core = stmt.select->cores[0];
  EXPECT_EQ(core.group_by.size(), 1u);
  EXPECT_NE(core.having, nullptr);
  ASSERT_EQ(stmt.select->order_by.size(), 2u);
  EXPECT_FALSE(stmt.select->order_by[0].ascending);
  EXPECT_TRUE(stmt.select->order_by[1].ascending);
  EXPECT_EQ(stmt.select->limit, 10);
  EXPECT_EQ(stmt.select->offset, 5);
}

TEST(ParserTest, UnionAll) {
  Statement stmt = Parse(
      "select a from t union all select b from u union all select c from v");
  EXPECT_EQ(stmt.select->cores.size(), 3u);
  // Plain UNION (distinct) is not supported.
  EXPECT_FALSE(ParseStatement("select a from t union select b from u").ok());
}

TEST(ParserTest, Aggregates) {
  Statement stmt = Parse(
      "select count(*), count(distinct a), sum(b), min(c), max(d), avg(e) "
      "from t");
  const SelectCore& core = stmt.select->cores[0];
  ASSERT_EQ(core.items.size(), 6u);
  const auto& count_star =
      static_cast<const AggregateExpr&>(*core.items[0].expr);
  EXPECT_EQ(count_star.agg(), AggKind::kCountStar);
  const auto& count_distinct =
      static_cast<const AggregateExpr&>(*core.items[1].expr);
  EXPECT_TRUE(count_distinct.distinct());
}

TEST(ParserTest, AllowPrecisionLossMarksAggregates) {
  Statement stmt = Parse(
      "select allow_precision_loss(sum(round(p * 1.11, 2))) from t");
  ExprRef expr = stmt.select->cores[0].items[0].expr;
  bool found = false;
  std::function<void(const ExprRef&)> visit = [&](const ExprRef& e) {
    if (e->kind() == ExprKind::kAggregate) {
      EXPECT_TRUE(
          static_cast<const AggregateExpr&>(*e).allow_precision_loss());
      found = true;
    }
    for (const ExprRef& child : e->children()) visit(child);
  };
  visit(expr);
  EXPECT_TRUE(found);
}

TEST(ParserTest, ExpressionMacroRef) {
  Statement stmt = Parse("select expression_macro(margin) from v");
  EXPECT_EQ(stmt.select->cores[0].items[0].expr->kind(),
            ExprKind::kMacroRef);
}

TEST(ParserTest, OperatorPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3).
  Statement stmt = Parse("select 1 + 2 * 3 from t");
  const auto& add =
      static_cast<const BinaryExpr&>(*stmt.select->cores[0].items[0].expr);
  EXPECT_EQ(add.op(), BinaryOpKind::kAdd);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*add.right()).op(),
            BinaryOpKind::kMul);
  // a = 1 and b = 2 or c = 3 parses as ((a=1 and b=2) or c=3).
  Statement logic = Parse("select * from t where a = 1 and b = 2 or c = 3");
  const auto& top =
      static_cast<const BinaryExpr&>(*logic.select->cores[0].where);
  EXPECT_EQ(top.op(), BinaryOpKind::kOr);
}

TEST(ParserTest, BetweenAndIn) {
  Statement stmt =
      Parse("select * from t where a between 1 and 5 and b in (1, 2, 3)");
  EXPECT_NE(stmt.select->cores[0].where, nullptr);
}

TEST(ParserTest, IsNull) {
  Statement stmt =
      Parse("select * from t where a is null and b is not null");
  std::string rendered = stmt.select->cores[0].where->ToString();
  EXPECT_NE(rendered.find("IS NULL"), std::string::npos);
  EXPECT_NE(rendered.find("IS NOT NULL"), std::string::npos);
}

TEST(ParserTest, DecimalLiteralsAreExact) {
  Statement stmt = Parse("select 13.1945 from t");
  const auto& lit =
      static_cast<const LiteralExpr&>(*stmt.select->cores[0].items[0].expr);
  EXPECT_EQ(lit.value(), Value::Decimal(131945, 4));
}

TEST(ParserTest, CreateTable) {
  Statement stmt = Parse(
      "create table t ("
      "  a int primary key,"
      "  b varchar(10) not null,"
      "  c decimal(12,2),"
      "  d double unique,"
      "  e date,"
      "  unique (b, c),"
      "  unique (e) not enforced,"
      "  foreign key (a) references other (x))");
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateTable);
  const TableSchema& schema = stmt.create_table->schema;
  EXPECT_EQ(schema.NumColumns(), 5u);
  EXPECT_EQ(schema.PrimaryKey(), std::vector<std::string>{"a"});
  EXPECT_FALSE(schema.column(1).nullable);
  EXPECT_EQ(schema.column(2).type, DataType::Decimal(2));
  ASSERT_EQ(schema.unique_keys().size(), 4u);  // pk + inline + 2 table-level
  bool found_declared = false;
  for (const UniqueKeyDef& key : schema.unique_keys()) {
    if (!key.enforced) found_declared = true;
  }
  EXPECT_TRUE(found_declared);
  ASSERT_EQ(schema.foreign_keys().size(), 1u);
  EXPECT_EQ(schema.foreign_keys()[0].referenced_table, "other");
}

TEST(ParserTest, CreateViewWithMacros) {
  Statement stmt = Parse(
      "create view v as select a, b from t "
      "with expression macros (sum(a) / sum(b) as ratio, sum(a) as total)");
  ASSERT_EQ(stmt.kind, Statement::Kind::kCreateView);
  EXPECT_EQ(stmt.create_view->name, "v");
  ASSERT_EQ(stmt.create_view->macros.size(), 2u);
  EXPECT_EQ(stmt.create_view->macros[0].name, "ratio");
  EXPECT_NE(stmt.create_view->macros[0].body_sql.find("sum(a)"),
            std::string::npos);
  // The captured view SQL round-trips through the parser.
  EXPECT_TRUE(ParseStatement(stmt.create_view->select_sql).ok());
}

TEST(ParserTest, CreateOrReplaceView) {
  Statement stmt = Parse("create or replace view v as select a from t");
  EXPECT_TRUE(stmt.create_view->or_replace);
}

TEST(ParserTest, ErrorMessagesCarryLocation) {
  Result<Statement> bad = ParseStatement("select from t");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseStatement("select a from t garbage garbage").ok());
  // A single trailing semicolon is fine.
  EXPECT_TRUE(ParseStatement("select a from t;").ok());
}


TEST(ParserTest, SumAndAvgDistinctAreRejected) {
  // They used to parse and then silently ignore DISTINCT.
  for (const char* sql : {"select sum(distinct b) from t",
                          "select avg(distinct b) from t",
                          "select a, SUM(DISTINCT b) from t group by a"}) {
    Result<Statement> stmt = ParseStatement(sql);
    ASSERT_FALSE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  EXPECT_TRUE(ParseStatement("select count(distinct b) from t").ok());
  EXPECT_TRUE(ParseStatement("select min(distinct b) from t").ok());
  EXPECT_TRUE(ParseStatement("select max(distinct b) from t").ok());
}

TEST(ParserTest, DateLiteral) {
  Statement stmt = Parse("select * from t where d >= date '2024-02-29'");
  std::string rendered = stmt.select->cores[0].where->ToString();
  EXPECT_NE(rendered.find("2024-02-29"), std::string::npos);
  EXPECT_FALSE(
      ParseStatement("select * from t where d = date '2023-02-29'").ok());
  EXPECT_FALSE(
      ParseStatement("select * from t where d = date 'garbage'").ok());
}

TEST(ParseExpressionTest, Standalone) {
  Result<ExprRef> expr = ParseExpression("coalesce(a, 0) < 63 and b = 'x'");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(SplitConjuncts(*expr).size(), 2u);
  EXPECT_FALSE(ParseExpression("a = 1 extra").ok());
}

}  // namespace
}  // namespace vdm

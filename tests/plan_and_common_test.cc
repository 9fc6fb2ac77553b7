// Remaining unit coverage: plan printing/statistics, the catalog registry,
// and the common utilities (strings, RNG, Status).
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "plan/plan_builder.h"
#include "plan/plan_printer.h"
#include "types/date_util.h"

namespace vdm {
namespace {

TableSchema Simple(const std::string& name) {
  TableSchema schema(name);
  schema.AddColumn("k", DataType::Int64(), false)
      .AddColumn("v", DataType::String());
  schema.SetPrimaryKey({"k"});
  return schema;
}

TEST(PlanPrinterTest, RendersTreeWithIndentation) {
  PlanRef plan = PlanBuilder::ScanSchema(Simple("t"), "a")
                     .Join(PlanBuilder::ScanSchema(Simple("u"), "b"),
                           JoinType::kLeftOuter, Eq(Col("a.k"), Col("b.k")))
                     .Filter(Eq(Col("a.v"), LitStr("x")))
                     .ProjectColumns({"a.k"}, {"k"})
                     .Build();
  std::string rendered = PrintPlan(plan);
  EXPECT_NE(rendered.find("Project"), std::string::npos);
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find("Join LEFT OUTER"), std::string::npos);
  EXPECT_NE(rendered.find("  Scan"), std::string::npos);
  // Deeper nodes are indented further.
  EXPECT_LT(rendered.find("Project"), rendered.find("Filter"));
}

TEST(PlanStatsTest, CountsAllOperatorKinds) {
  PlanBuilder u1 = PlanBuilder::ScanSchema(Simple("t"), "a")
                       .ProjectColumns({"a.k"}, {"k"});
  PlanBuilder u2 = PlanBuilder::ScanSchema(Simple("t"), "b")
                       .ProjectColumns({"b.k"}, {"k"});
  PlanRef plan =
      PlanBuilder::UnionAll({u1, u2}, {"k"})
          .Join(PlanBuilder::ScanSchema(Simple("u"), "c"),
                JoinType::kInner, Eq(Col("k"), Col("c.k")))
          .Aggregate({{Col("k"), "k"}}, {{CountStar(), "n"}})
          .Sort({{Col("n"), false}})
          .Limit(5)
          .Distinct()
          .Build();
  PlanStats stats = ComputePlanStats(plan);
  EXPECT_EQ(stats.table_instances, 3u);
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.union_alls, 1u);
  EXPECT_EQ(stats.union_all_children, 2u);
  EXPECT_EQ(stats.aggregates, 1u);
  EXPECT_EQ(stats.limits, 1u);
  EXPECT_EQ(stats.distincts, 1u);
  EXPECT_GE(stats.max_depth, 4u);
}

TEST(CatalogTest, RegistryBehaviour) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(Simple("t")).ok());
  EXPECT_EQ(catalog.RegisterTable(Simple("T")).code(),
            StatusCode::kAlreadyExists);
  ViewDef view;
  view.name = "v";
  view.sql = "select k from t";
  ASSERT_TRUE(catalog.RegisterView(view).ok());
  EXPECT_EQ(catalog.RegisterView(view).code(), StatusCode::kAlreadyExists);
  // A view cannot shadow a table.
  ViewDef shadow;
  shadow.name = "t";
  shadow.sql = "select 1 from t";
  EXPECT_FALSE(catalog.RegisterView(shadow).ok());
  EXPECT_FALSE(catalog.ReplaceView(shadow).ok());
  // Replace updates in place; drop removes.
  view.dac_filter_sql = "k = 1";
  ASSERT_TRUE(catalog.ReplaceView(view).ok());
  EXPECT_EQ(catalog.FindView("V")->dac_filter_sql, "k = 1");
  ASSERT_TRUE(catalog.DropView("v").ok());
  EXPECT_EQ(catalog.FindView("v"), nullptr);
  EXPECT_EQ(catalog.DropView("v").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, StatsRoundTrip) {
  Catalog catalog;
  EXPECT_EQ(catalog.FindTableStats("t"), nullptr);
  catalog.SetTableStats(
      "T", TableStats{.row_count = 123, .columns = {}, .physical_rows = 0});
  ASSERT_NE(catalog.FindTableStats("t"), nullptr);
  EXPECT_EQ(catalog.FindTableStats("t")->row_count, 123u);
}

TEST(StringUtilTest, Basics) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("HeLLo", "hello"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a.b..c", '.'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(Rng(42).Next(), c.Next());
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(r.NextString(8).size(), 8u);
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::ParseError("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kParseError);
  EXPECT_EQ(err.ToString(), "ParseError: boom");
  Result<int> result = err;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.ValueOr(9), 9);
  Result<int> good = 4;
  EXPECT_EQ(good.ValueOr(9), 4);
}

TEST(DateUtilTest, RoundTripAndParse) {
  for (int64_t days : {-1000LL, 0LL, 11017LL, 19782LL, 40000LL}) {
    CivilDate civil = CivilFromDays(days);
    EXPECT_EQ(DaysFromCivil(civil), days);
  }
  EXPECT_EQ(FormatDate(0), "1970-01-01");
  EXPECT_EQ(*ParseDate("2024-02-29"), 19782);
  EXPECT_FALSE(ParseDate("2023-02-29").has_value());  // not a leap year
  EXPECT_FALSE(ParseDate("2023-13-01").has_value());
  EXPECT_FALSE(ParseDate("garbage").has_value());
  EXPECT_FALSE(ParseDate("2023-1-1").has_value());  // strict format
}

}  // namespace
}  // namespace vdm

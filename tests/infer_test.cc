// Unit tests for the static inference lattice (analysis/infer):
// uniqueness from base keys / GROUP BY / selective equality, functional
// dependencies through projection, many-to-one joins, and UNION ALL branch
// intersection, 3VL NULL-ability through LEFT OUTER joins, and the shared
// structural primitives (ExtractSimpleRelation, TableKeyCovered,
// NullRejectedColumns).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/infer/inference.h"
#include "engine/database.h"
#include "expr/expr.h"
#include "plan/plan_builder.h"

namespace vdm {
namespace {

class InferTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->Execute("create table t (k int primary key, a int, "
                             "b int, c int not null)")
                    .ok());
    ASSERT_TRUE(
        db_->Execute("create table u (k int primary key, v int)").ok());
    ASSERT_TRUE(db_->Execute("create table t2 (a int, b int, c int, "
                             "primary key (a, b))")
                    .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static PlanRef Bind(const std::string& sql) {
    Result<PlanRef> plan = db_->BindQuery(sql);
    EXPECT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  static InferredProps InferSql(const std::string& sql,
                                InferOptions options = {}) {
    PlanRef plan = Bind(sql);
    if (!plan) return {};
    InferenceEngine engine(options);
    return engine.Infer(plan);
  }

  static Database* db_;
};

Database* InferTest::db_ = nullptr;

TEST_F(InferTest, UniquenessFromBaseTableKey) {
  InferredProps props = InferSql("select k, a from t");
  EXPECT_TRUE(props.UniqueOn({"k"}));
  EXPECT_FALSE(props.UniqueOn({"a"}));

  InferOptions no_keys;
  no_keys.base_table_keys = false;
  EXPECT_FALSE(InferSql("select k, a from t", no_keys).UniqueOn({"k"}));
}

TEST_F(InferTest, UniquenessFromGroupBy) {
  const std::string sql =
      "select a as ga, b as gb, count(*) as n from t group by a, b";
  InferredProps props = InferSql(sql);
  EXPECT_TRUE(props.UniqueOn({"ga", "gb"}));
  EXPECT_FALSE(props.UniqueOn({"ga"}));

  InferOptions no_groupby;
  no_groupby.groupby_keys = false;
  EXPECT_FALSE(InferSql(sql, no_groupby).UniqueOn({"ga", "gb"}));
}

TEST_F(InferTest, UniquenessFromSelectiveEquality) {
  // The composite key (a, b) collapses to {b} once a is pinned.
  const std::string sql = "select a, b, c from t2 where a = 7";
  InferredProps props = InferSql(sql);
  EXPECT_TRUE(props.UniqueOn({"b"}));
  EXPECT_TRUE(props.UniqueOn({"a", "b"}));

  InferOptions no_pinning;
  no_pinning.const_pinning = false;
  InferredProps weak = InferSql(sql, no_pinning);
  EXPECT_FALSE(weak.UniqueOn({"b"}));
  EXPECT_TRUE(weak.UniqueOn({"a", "b"}));
}

TEST_F(InferTest, AggregateItemsRestatingGroupExpressionsAreAliases) {
  // Items that restate a computed group expression (not a ColumnRef to the
  // group name) alias that group column: they inherit its properties, and
  // the group key is restated with one alias substituted at a time, so a
  // projection keeping one alias and the other group column keeps the key.
  TableSchema schema("s");
  schema.AddColumn("a", DataType::Int64(), false)
      .AddColumn("b", DataType::Int64(), false)
      .AddColumn("c", DataType::Int64());
  ExprRef a1 = Bin(BinaryOpKind::kAdd, Col("s.a"), LitInt(1));
  ExprRef b1 = Bin(BinaryOpKind::kAdd, Col("s.b"), LitInt(1));
  PlanBuilder agg = PlanBuilder::ScanSchema(schema, "s")
                        .Aggregate({{a1, "ga"}, {b1, "gb"}, {Col("s.b"), "g"}},
                                   {{a1, "xa"},
                                    {b1, "xb"},
                                    {Agg(AggKind::kSum, Col("s.c")), "t"}});
  InferenceEngine engine;
  const InferredProps& props = engine.Infer(agg.Build());
  EXPECT_TRUE(props.FdHolds({"ga"}, "xa"));
  EXPECT_TRUE(props.FdHolds({"xb"}, "gb"));
  PlanRef one_alias = PlanBuilder(agg.Build())
                          .ProjectColumns({"xa", "gb", "g", "t"})
                          .Build();
  EXPECT_TRUE(engine.Infer(one_alias).UniqueOn({"xa", "gb", "g"}));
  PlanRef both = PlanBuilder(agg.Build())
                     .ProjectColumns({"xa", "xb", "g", "t"})
                     .Build();
  EXPECT_TRUE(engine.Infer(both).UniqueOn({"xa", "xb", "g"}));
  PlanRef none = PlanBuilder(agg.Build()).ProjectColumns({"xa", "t"}).Build();
  EXPECT_FALSE(engine.Infer(none).UniqueOn({"xa", "t"}));
}

TEST_F(InferTest, GlobalAggregateIsSingleRow) {
  InferredProps props = InferSql("select count(*) as n from t");
  EXPECT_TRUE(props.at_most_one_row);
  EXPECT_TRUE(props.UniqueOn({"n"}));
}

TEST_F(InferTest, NotNullFromSchemaAndPredicates) {
  InferredProps props = InferSql("select k, a, c from t");
  EXPECT_TRUE(props.IsNotNull("k"));  // primary key
  EXPECT_TRUE(props.IsNotNull("c"));  // declared NOT NULL
  EXPECT_FALSE(props.IsNotNull("a"));

  // A comparison is NULL-rejecting under 3VL.
  EXPECT_TRUE(InferSql("select a from t where a > 3").IsNotNull("a"));
}

TEST_F(InferTest, NullabilityThroughLeftJoin) {
  // Without a NULL-rejecting filter, the right side's columns may be
  // null-extended even though u.k is the (NOT NULL) primary key.
  InferredProps loj = InferSql(
      "select t.k as k, u.v as v from t left outer join u on t.k = u.k");
  EXPECT_TRUE(loj.IsNotNull("k"));
  EXPECT_FALSE(loj.IsNotNull("v"));

  // A NULL-rejecting WHERE on the right side restores non-NULL-ness.
  InferredProps filtered = InferSql(
      "select t.k as k, u.v as v from t left outer join u on t.k = u.k "
      "where u.v > 0");
  EXPECT_TRUE(filtered.IsNotNull("v"));
}

TEST_F(InferTest, FdThroughProjection) {
  // The filter equality a = b induces {a}→{b} and {b}→{a}; the projection
  // renames both columns and the FD follows.
  InferredProps props =
      InferSql("select a as x, b as y from t where a = b");
  EXPECT_TRUE(props.FdHolds({"x"}, "y"));
  EXPECT_TRUE(props.FdHolds({"y"}, "x"));
  EXPECT_FALSE(props.FdHolds({"x"}, "x_missing"));
}

TEST_F(InferTest, FdThroughManyToOneJoin) {
  // u's primary key makes the join many-to-one: t.a determines every
  // u column (LEFT OUTER included: a NULL t.a null-extends consistently).
  InferredProps props = InferSql(
      "select t.k as k, t.a as a, u.v as v "
      "from t left outer join u on t.a = u.k");
  EXPECT_TRUE(props.FdHolds({"a"}, "v"));
  EXPECT_FALSE(props.FdHolds({"v"}, "a"));
  // The left key survives a many-to-one join.
  EXPECT_TRUE(props.UniqueOn({"k"}));
}

TEST_F(InferTest, FdThroughUnionAllByBranchIntersection) {
  // Both branches carry {x}→{y}; positionally-common FDs survive the
  // union with the branch discriminator added to the determinants.
  InferredProps props = InferSql(
      "select a as x, b as y, 1 as bid from t where a = b "
      "union all "
      "select a as x, b as y, 2 as bid from t where a = b");
  EXPECT_TRUE(props.FdHolds({"x", "bid"}, "y"));
}

TEST_F(InferTest, UniquenessThroughUnionAllBranchIds) {
  // Fig. 12: distinct per-branch constants make {k, bid} unique.
  const std::string sql =
      "select k, 1 as bid from t union all select k, 2 as bid from t";
  InferredProps props = InferSql(sql);
  EXPECT_TRUE(props.UniqueOn({"k", "bid"}));
  EXPECT_FALSE(props.UniqueOn({"k"}));

  InferOptions no_union;
  no_union.keys_through_union_all = false;
  EXPECT_FALSE(InferSql(sql, no_union).UniqueOn({"k", "bid"}));
}

TEST_F(InferTest, ValueSourcesThroughEqualities) {
  // u.k takes t.a's source through the join equality (via_equality), so a
  // further self-join on u.k can be traced back to t's scan.
  PlanRef plan =
      Bind("select t.a as a, u.k as uk from t join u on t.a = u.k");
  ASSERT_NE(plan, nullptr);
  InferenceEngine engine;
  const InferredProps& props = engine.Infer(plan);
  const ValueSource* direct = props.FindSource("a", "t", "a");
  ASSERT_NE(direct, nullptr);
  const ValueSource* derived = props.FindSource("uk", "t", "a");
  ASSERT_NE(derived, nullptr);
  EXPECT_EQ(direct->source_id, derived->source_id);
  EXPECT_TRUE(derived->via_equality);
}

TEST_F(InferTest, MemoKeysNodesNotIds) {
  // WithChildren keeps a node's id while changing its subtree: over a
  // UNION ALL of the scan with itself, k is no longer unique. One engine
  // must tell the two versions apart.
  PlanRef plan = Bind("select k, a from t");
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->kind(), OpKind::kProject);
  const PlanRef& scan = plan->child(0);
  ASSERT_EQ(scan->kind(), OpKind::kScan);
  PlanRef doubled = std::make_shared<UnionAllOp>(
      std::vector<PlanRef>{scan, scan}, scan->OutputNames());
  PlanRef rewritten = plan->WithChildren({doubled});
  ASSERT_EQ(rewritten->id(), plan->id());

  InferenceEngine engine;
  EXPECT_TRUE(engine.Infer(plan).UniqueOn({"k"}));
  EXPECT_FALSE(engine.Infer(rewritten).UniqueOn({"k"}));
  EXPECT_EQ(engine.Infer(rewritten).ToString(),
            InferenceEngine().Infer(rewritten).ToString());
  EXPECT_EQ(engine.Infer(plan).ToString(),
            InferenceEngine().Infer(plan).ToString());
}

TEST_F(InferTest, ExtractSimpleRelationAndKeyCoverage) {
  PlanRef plan = Bind("select k as kk, a from t where a > 1");
  ASSERT_NE(plan, nullptr);
  std::optional<SimpleRelation> rel = ExtractSimpleRelation(plan);
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(rel->scan->table_name(), "t");
  ASSERT_EQ(rel->base_preds.size(), 1u);
  EXPECT_EQ(rel->out_to_base.at("kk"), "k");

  InferOptions options;
  EXPECT_TRUE(TableKeyCovered(rel->scan->table_schema(), {"k"}, options));
  EXPECT_FALSE(TableKeyCovered(rel->scan->table_schema(), {"a"}, options));

  // Aggregates are not simple relations.
  EXPECT_FALSE(ExtractSimpleRelation(
                   Bind("select a, count(*) as n from t group by a"))
                   .has_value());
}

TEST_F(InferTest, NullRejectedColumnsThreeValuedLogic) {
  ExprRef cmp = Bin(BinaryOpKind::kGreater, Col("a"), Col("b"));
  EXPECT_EQ(NullRejectedColumns(cmp),
            (std::set<std::string>{"a", "b"}));

  // AND unions, OR intersects.
  ExprRef both = And(Bin(BinaryOpKind::kGreater, Col("a"), LitInt(1)),
                     Eq(Col("b"), LitInt(2)));
  EXPECT_EQ(NullRejectedColumns(both),
            (std::set<std::string>{"a", "b"}));
  ExprRef either = Bin(BinaryOpKind::kOr,
                       Bin(BinaryOpKind::kGreater, Col("a"), LitInt(1)),
                       Eq(Col("a"), LitInt(0)));
  EXPECT_EQ(NullRejectedColumns(either), (std::set<std::string>{"a"}));
  ExprRef mixed = Bin(BinaryOpKind::kOr,
                      Bin(BinaryOpKind::kGreater, Col("a"), LitInt(1)),
                      Eq(Col("b"), LitInt(0)));
  EXPECT_TRUE(NullRejectedColumns(mixed).empty());

  // IS NOT NULL rejects; IS NULL does not.
  EXPECT_EQ(NullRejectedColumns(
                std::make_shared<IsNullExpr>(Col("a"), /*negated=*/true)),
            (std::set<std::string>{"a"}));
  EXPECT_TRUE(NullRejectedColumns(
                  std::make_shared<IsNullExpr>(Col("a"), /*negated=*/false))
                  .empty());
}

}  // namespace
}  // namespace vdm

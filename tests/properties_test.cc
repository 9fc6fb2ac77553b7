// Unit tests for the optimizer's property derivation (the inference engine
// of analysis/infer): unique keys, constant pinning, provenance,
// join-cardinality analysis — including the capability gates that model
// the paper's weaker optimizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/infer/inference.h"
#include "plan/plan_builder.h"

namespace vdm {
namespace {

TableSchema Orders() {
  TableSchema schema("orders");
  schema.AddColumn("o_orderkey", DataType::Int64(), false)
      .AddColumn("o_custkey", DataType::Int64(), false)
      .AddColumn("o_total", DataType::Decimal(2));
  schema.SetPrimaryKey({"o_orderkey"});
  return schema;
}

TableSchema Customer() {
  TableSchema schema("customer");
  schema.AddColumn("c_custkey", DataType::Int64(), false)
      .AddColumn("c_name", DataType::String())
      .AddColumn("c_nation", DataType::Int64());
  schema.SetPrimaryKey({"c_custkey"});
  return schema;
}

TableSchema Lineitem() {
  TableSchema schema("lineitem");
  schema.AddColumn("l_orderkey", DataType::Int64(), false)
      .AddColumn("l_linenumber", DataType::Int64(), false)
      .AddColumn("l_qty", DataType::Int64());
  schema.SetPrimaryKey({"l_orderkey", "l_linenumber"});
  return schema;
}

/// The properties of `plan` under `options`, from a fresh engine.
InferredProps Derive(const PlanRef& plan, InferOptions options = {}) {
  InferenceEngine engine(options);
  return engine.Infer(plan);
}

/// `key` is provably duplicate-free.
bool HasKey(const InferredProps& props, std::vector<std::string> key) {
  return props.UniqueOn(std::set<std::string>(key.begin(), key.end()));
}

/// `key` is materialized as one of the derived unique sets.
bool HasSet(const InferredProps& props, std::vector<std::string> key) {
  std::sort(key.begin(), key.end());
  for (const auto& existing : props.unique_sets) {
    if (existing == key) return true;
  }
  return false;
}

JoinAnalysis Analyze(const JoinOp& join, InferOptions options = {}) {
  InferenceEngine engine(options);
  return engine.Analyze(join);
}

TEST(PropertiesTest, ScanDerivesBaseKeys) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c").Build();
  InferredProps props = Derive(plan);
  EXPECT_TRUE(HasKey(props, {"c.c_custkey"}));
  const ValueSource* origin = props.DirectSource("c.c_name");
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->table, "customer");
  EXPECT_EQ(origin->column, "c_name");
  EXPECT_FALSE(origin->null_extended);
}

TEST(PropertiesTest, BaseKeysGatedByConfig) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c").Build();
  InferOptions config;
  config.base_table_keys = false;  // "System X"
  EXPECT_TRUE(Derive(plan, config).unique_sets.empty());
}

TEST(PropertiesTest, DeclaredKeysGatedByTrust) {
  TableSchema schema("d");
  schema.AddColumn("k", DataType::Int64());
  schema.AddDeclaredUniqueKey({"k"});
  PlanRef plan = PlanBuilder::ScanSchema(schema, "d").Build();
  EXPECT_TRUE(HasKey(Derive(plan), {"d.k"}));
  InferOptions untrusting;
  untrusting.trust_declared_cardinality = false;
  EXPECT_FALSE(HasKey(Derive(plan, untrusting), {"d.k"}));
}

TEST(PropertiesTest, FilterPinsConstantsAndReducesKeys) {
  PlanRef plan = PlanBuilder::ScanSchema(Lineitem(), "l")
                     .Filter(Eq(Col("l.l_linenumber"), LitInt(1)))
                     .Build();
  InferredProps props = Derive(plan);
  EXPECT_TRUE(HasSet(props, {"l.l_orderkey", "l.l_linenumber"}));
  // AJ 2a-3: the pinned component drops out of the composite key.
  EXPECT_TRUE(HasSet(props, {"l.l_orderkey"}));
  ASSERT_TRUE(props.constants.count("l.l_linenumber"));
  EXPECT_EQ(props.constants.at("l.l_linenumber"), Value::Int64(1));
}

TEST(PropertiesTest, ConstPinningGate) {
  PlanRef plan = PlanBuilder::ScanSchema(Lineitem(), "l")
                     .Filter(Eq(Col("l.l_linenumber"), LitInt(1)))
                     .Build();
  InferOptions config;
  config.const_pinning = false;
  InferredProps props = Derive(plan, config);
  EXPECT_FALSE(HasKey(props, {"l.l_orderkey"}));
  EXPECT_TRUE(props.constants.empty());
}

TEST(PropertiesTest, AlwaysFalseFilterMarksEmpty) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c")
                     .Filter(Eq(LitInt(1), LitInt(0)))
                     .Build();
  EXPECT_TRUE(Derive(plan).empty_relation);
}

TEST(PropertiesTest, ProjectRenamesKeysAndOrigins) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Customer(), "c")
          .ProjectColumns({"c.c_custkey", "c.c_name"}, {"id", "name"})
          .Build();
  InferredProps props = Derive(plan);
  EXPECT_TRUE(HasKey(props, {"id"}));
  ASSERT_NE(props.DirectSource("name"), nullptr);
  EXPECT_EQ(props.DirectSource("name")->column, "c_name");
  // Computed expressions have no origin.
  PlanRef computed =
      PlanBuilder::ScanSchema(Customer(), "c")
          .Project({{Bin(BinaryOpKind::kAdd, Col("c.c_custkey"), LitInt(1)),
                     "k1"}})
          .Build();
  InferredProps computed_props = Derive(computed);
  EXPECT_EQ(computed_props.DirectSource("k1"), nullptr);
  EXPECT_TRUE(computed_props.unique_sets.empty());
}

TEST(PropertiesTest, AggregateGroupKeysGated) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Lineitem(), "l")
          .Aggregate({{Col("l.l_orderkey"), "l.l_orderkey"}},
                     {{Agg(AggKind::kSum, Col("l.l_qty")), "qty"}})
          .Build();
  EXPECT_TRUE(HasKey(Derive(plan), {"l.l_orderkey"}));
  InferOptions config;
  config.groupby_keys = false;  // "System Y"
  EXPECT_FALSE(HasKey(Derive(plan, config), {"l.l_orderkey"}));
}

TEST(PropertiesTest, GlobalAggregateIsSingleRow) {
  PlanRef plan = PlanBuilder::ScanSchema(Lineitem(), "l")
                     .Aggregate({}, {{CountStar(), "n"}})
                     .Build();
  InferredProps props = Derive(plan);
  EXPECT_TRUE(HasSet(props, {"n"}));
  EXPECT_TRUE(props.at_most_one_row);
}

TEST(PropertiesTest, KeysThroughSortAndLimitGated) {
  PlanRef plan = PlanBuilder::ScanSchema(Customer(), "c")
                     .Sort({{Col("c.c_name"), true}})
                     .Limit(100)
                     .Build();
  EXPECT_TRUE(HasKey(Derive(plan), {"c.c_custkey"}));
  InferOptions config;
  config.keys_through_order_limit = false;  // everyone but HANA (UAJ 1b)
  EXPECT_TRUE(Derive(plan, config).unique_sets.empty());
}

TEST(PropertiesTest, JoinPreservesAnchorKeysThroughAugmentation) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  PlanRef plan = orders
                     .Join(customer, JoinType::kLeftOuter,
                           Eq(Col("o.o_custkey"), Col("c.c_custkey")))
                     .Build();
  InferredProps with = Derive(plan);
  EXPECT_TRUE(HasKey(with, {"o.o_orderkey"}));
  // Right-side origins become null-extended under LOJ.
  ASSERT_NE(with.DirectSource("c.c_name"), nullptr);
  EXPECT_TRUE(with.DirectSource("c.c_name")->null_extended);
  ASSERT_NE(with.DirectSource("o.o_custkey"), nullptr);
  EXPECT_FALSE(with.DirectSource("o.o_custkey")->null_extended);

  InferOptions config;
  config.keys_through_joins = false;  // "Postgres" / "System Y"
  EXPECT_FALSE(HasKey(Derive(plan, config), {"o.o_orderkey"}));
}

TEST(PropertiesTest, JoinOnNonKeyGivesCombinedKeyOnly) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  PlanRef plan = orders
                     .Join(customer, JoinType::kLeftOuter,
                           Eq(Col("o.o_custkey"), Col("c.c_nation")))
                     .Build();
  InferredProps props = Derive(plan);
  // Matching may duplicate anchor rows: o_orderkey alone is not a key.
  EXPECT_FALSE(HasKey(props, {"o.o_orderkey"}));
  EXPECT_TRUE(HasKey(props, {"o.o_orderkey", "c.c_custkey"}));
}

TEST(JoinAnalysisTest, AtMostOneViaKeyCoverage) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  auto join = std::make_shared<JoinOp>(
      orders.Build(), customer.Build(), JoinType::kLeftOuter,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  JoinAnalysis analysis = Analyze(*join);
  EXPECT_TRUE(analysis.right_at_most_one);
  EXPECT_FALSE(analysis.right_exactly_one);  // no FK
  EXPECT_TRUE(analysis.purely_augmenting);   // LOJ + at-most-one
  ASSERT_EQ(analysis.equi_pairs.size(), 1u);
  EXPECT_EQ(analysis.equi_pairs[0].first, "o.o_custkey");
  EXPECT_EQ(analysis.equi_pairs[0].second, "c.c_custkey");
}

TEST(JoinAnalysisTest, InnerJoinWithoutFkIsNotAugmenting) {
  PlanBuilder orders = PlanBuilder::ScanSchema(Orders(), "o");
  PlanBuilder customer = PlanBuilder::ScanSchema(Customer(), "c");
  auto join = std::make_shared<JoinOp>(
      orders.Build(), customer.Build(), JoinType::kInner,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  JoinAnalysis analysis = Analyze(*join);
  EXPECT_TRUE(analysis.right_at_most_one);
  // An inner join may filter: not purely augmenting without exactly-one.
  EXPECT_FALSE(analysis.purely_augmenting);
}

TEST(JoinAnalysisTest, ForeignKeyGivesExactlyOne) {
  TableSchema orders = Orders();
  orders.AddForeignKey({"o_custkey"}, "customer", {"c_custkey"});
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(orders, "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c").Build(), JoinType::kInner,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  JoinAnalysis analysis = Analyze(*join);
  EXPECT_TRUE(analysis.right_exactly_one);
  EXPECT_TRUE(analysis.purely_augmenting);
}

TEST(JoinAnalysisTest, NullableFkColumnBlocksExactlyOne) {
  TableSchema orders("orders");
  orders.AddColumn("o_orderkey", DataType::Int64(), false)
      .AddColumn("o_custkey", DataType::Int64(), /*nullable=*/true);
  orders.SetPrimaryKey({"o_orderkey"});
  orders.AddForeignKey({"o_custkey"}, "customer", {"c_custkey"});
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(orders, "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c").Build(), JoinType::kInner,
      Eq(Col("o.o_custkey"), Col("c.c_custkey")));
  JoinAnalysis analysis = Analyze(*join);
  // A NULL o_custkey row would be filtered by the inner join.
  EXPECT_FALSE(analysis.right_exactly_one);
}

TEST(JoinAnalysisTest, DeclaredCardinalityRespected) {
  TableSchema plain("p");
  plain.AddColumn("x", DataType::Int64());
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(plain, "p").Build(), JoinType::kLeftOuter,
      Eq(Col("o.o_custkey"), Col("p.x")), DeclaredCardinality::kAtMostOne);
  EXPECT_TRUE(Analyze(*join).purely_augmenting);
  InferOptions config;
  config.trust_declared_cardinality = false;
  EXPECT_FALSE(Analyze(*join, config).purely_augmenting);
}

TEST(JoinAnalysisTest, EmptyAugmenterIsAtMostOne) {
  auto join = std::make_shared<JoinOp>(
      PlanBuilder::ScanSchema(Orders(), "o").Build(),
      PlanBuilder::ScanSchema(Customer(), "c")
          .Filter(LitBool(false))
          .Build(),
      JoinType::kLeftOuter, Eq(Col("o.o_custkey"), Col("c.c_nation")));
  EXPECT_TRUE(Derive(join->right()).empty_relation);
  EXPECT_TRUE(Analyze(*join).purely_augmenting);
}

// --- UNION ALL key derivation (Fig. 12) ------------------------------------

PlanRef BranchIdUnion() {
  TableSchema active("active");
  active.AddColumn("k", DataType::Int64(), false);
  active.SetPrimaryKey({"k"});
  TableSchema draft("draft");
  draft.AddColumn("k", DataType::Int64(), false);
  draft.SetPrimaryKey({"k"});
  PlanBuilder a = PlanBuilder::ScanSchema(active, "a").Project(
      {{Col("a.k"), "k"}, {LitInt(1), "bid"}});
  PlanBuilder d = PlanBuilder::ScanSchema(draft, "d").Project(
      {{Col("d.k"), "k"}, {LitInt(2), "bid"}});
  return PlanBuilder::UnionAll({a, d}, {"k", "bid"}).Build();
}

TEST(UnionPropertiesTest, BranchIdKeyDerived) {
  InferredProps props = Derive(BranchIdUnion());
  EXPECT_TRUE(HasSet(props, {"bid", "k"}));
  // Plain k alone is NOT unique across branches.
  EXPECT_FALSE(HasKey(props, {"k"}));
}

TEST(UnionPropertiesTest, UnionKeysGated) {
  InferOptions config;
  config.keys_through_union_all = false;
  EXPECT_TRUE(Derive(BranchIdUnion(), config).unique_sets.empty());
}

TEST(UnionPropertiesTest, DisjointSubsetsPreserveKey) {
  TableSchema t("t");
  t.AddColumn("k", DataType::Int64(), false)
      .AddColumn("status", DataType::Int64());
  t.SetPrimaryKey({"k"});
  PlanBuilder c1 = PlanBuilder::ScanSchema(t, "x")
                       .Filter(Eq(Col("x.status"), LitInt(1)))
                       .ProjectColumns({"x.k"}, {"k"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(t, "y")
                       .Filter(Eq(Col("y.status"), LitInt(2)))
                       .ProjectColumns({"y.k"}, {"k"});
  PlanRef plan = PlanBuilder::UnionAll({c1, c2}, {"k"}).Build();
  EXPECT_TRUE(HasSet(Derive(plan), {"k"}));
}

TEST(UnionPropertiesTest, OverlappingSubsetsDoNotPreserveKey) {
  TableSchema t("t");
  t.AddColumn("k", DataType::Int64(), false)
      .AddColumn("status", DataType::Int64());
  t.SetPrimaryKey({"k"});
  // Same constant on both branches: rows can appear twice.
  PlanBuilder c1 = PlanBuilder::ScanSchema(t, "x")
                       .Filter(Eq(Col("x.status"), LitInt(1)))
                       .ProjectColumns({"x.k"}, {"k"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(t, "y")
                       .Filter(Eq(Col("y.status"), LitInt(1)))
                       .ProjectColumns({"y.k"}, {"k"});
  PlanRef plan = PlanBuilder::UnionAll({c1, c2}, {"k"}).Build();
  EXPECT_FALSE(HasKey(Derive(plan), {"k"}));
}

TEST(UnionPropertiesTest, LogicalTableOriginAgreement) {
  TableSchema active("active");
  active.AddColumn("k", DataType::Int64(), false);
  active.SetPrimaryKey({"k"});
  TableSchema draft("draft");
  draft.AddColumn("k", DataType::Int64(), false);
  draft.SetPrimaryKey({"k"});
  PlanBuilder a = PlanBuilder::ScanSchema(active, "a").ProjectColumns(
      {"a.k"}, {"k"});
  PlanBuilder d = PlanBuilder::ScanSchema(draft, "d").ProjectColumns(
      {"d.k"}, {"k"});
  PlanRef plan =
      PlanBuilder::UnionAll({a, d}, {"k"}, -1, "document").Build();
  InferredProps props = Derive(plan);
  const ValueSource* origin = props.DirectSource("k");
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->table, "document");
  EXPECT_EQ(origin->column, "k");
  EXPECT_EQ(origin->source_id, plan->id());
}

}  // namespace
}  // namespace vdm

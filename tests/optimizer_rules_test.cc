// Unit tests for individual optimizer passes, exercised on hand-built
// plans: filter pushdown and predicate transfer, projection/UAJ pruning,
// project merging, limit sinking, distinct elimination, ASJ elimination
// (including the canonical Fig. 13 union-all shapes), and aggregate
// merging/eager aggregation.
#include <gtest/gtest.h>

#include <set>

#include "expr/fold.h"
#include "optimizer/optimizer.h"
#include "plan/plan_builder.h"
#include "plan/plan_printer.h"

namespace vdm {
namespace {

TableSchema Fact() {
  TableSchema schema("fact");
  schema.AddColumn("id", DataType::Int64(), false)
      .AddColumn("dim_key", DataType::Int64(), false)
      .AddColumn("amount", DataType::Decimal(2))
      .AddColumn("status", DataType::Int64());
  schema.SetPrimaryKey({"id"});
  return schema;
}

TableSchema Dim() {
  TableSchema schema("dim");
  schema.AddColumn("k", DataType::Int64(), false)
      .AddColumn("name", DataType::String())
      .AddColumn("attr", DataType::String());
  schema.SetPrimaryKey({"k"});
  return schema;
}

OptimizerConfig Full() { return ConfigForProfile(SystemProfile::kHana); }

using PassFn = PlanRef (*)(const PlanRef&, const OptimizerConfig&,
                           InferenceEngine&, bool*);

/// Runs one pass over a fresh inference engine, as a one-pass compile
/// would.
PlanRef RunPass(PassFn pass, const PlanRef& plan,
                const OptimizerConfig& config, bool* changed) {
  InferenceEngine engine(config.derivation);
  return pass(plan, config, engine, changed);
}

// --- filter pushdown --------------------------------------------------------

TEST(FilterPushdownTest, SplitsAcrossInnerJoin) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kInner,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Filter(And(Eq(Col("f.status"), LitInt(1)),
                      Eq(Col("d.name"), LitStr("x"))))
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  // Both conjuncts moved below the join; no filter remains on top.
  EXPECT_EQ(result->kind(), OpKind::kJoin);
  EXPECT_EQ(result->child(0)->kind(), OpKind::kFilter);
  EXPECT_EQ(result->child(1)->kind(), OpKind::kFilter);
}

TEST(FilterPushdownTest, RightConjunctStaysAboveLeftOuterJoin) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Filter(Eq(Col("d.name"), LitStr("x")))
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  // Pushing it into the right child would turn filtered matches into
  // null-extended rows — must not happen.
  EXPECT_EQ(result->kind(), OpKind::kFilter);
  EXPECT_EQ(result->child(0)->kind(), OpKind::kJoin);
  EXPECT_EQ(result->child(0)->child(1)->kind(), OpKind::kScan);
}

TEST(FilterPushdownTest, ThroughProjectSubstitutes) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Project({{Bin(BinaryOpKind::kAdd, Col("f.status"), LitInt(1)),
                     "s1"}})
          .Filter(Eq(Col("s1"), LitInt(2)))
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(result->kind(), OpKind::kProject);
  ASSERT_EQ(result->child(0)->kind(), OpKind::kFilter);
  const auto& filter = static_cast<const FilterOp&>(*result->child(0));
  // The predicate now references the base column.
  EXPECT_TRUE(ReferencesOnly(filter.predicate(), {"f.status"}));
}

TEST(FilterPushdownTest, ThroughUnionAllRenames) {
  PlanBuilder c1 = PlanBuilder::ScanSchema(Fact(), "a").ProjectColumns(
      {"a.id", "a.status"}, {"id", "st"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(Fact(), "b").ProjectColumns(
      {"b.id", "b.status"}, {"id", "st"});
  PlanRef plan = PlanBuilder::UnionAll({c1, c2}, {"id", "st"})
                     .Filter(Eq(Col("st"), LitInt(1)))
                     .Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  // The filter is renamed per branch and sinks on through each branch's
  // projection, so every branch filters on its own base column.
  ASSERT_EQ(result->kind(), OpKind::kUnionAll) << PrintPlan(result);
  const char* base[] = {"a.status", "b.status"};
  for (size_t i = 0; i < 2; ++i) {
    const PlanRef& branch = result->child(i);
    ASSERT_EQ(branch->kind(), OpKind::kProject) << PrintPlan(result);
    ASSERT_EQ(branch->child(0)->kind(), OpKind::kFilter) << PrintPlan(result);
    EXPECT_EQ(branch->child(0)->child(0)->kind(), OpKind::kScan);
    const auto& filter = static_cast<const FilterOp&>(*branch->child(0));
    std::vector<std::string> refs;
    CollectColumnRefs(filter.predicate(), &refs);
    EXPECT_EQ(refs, std::vector<std::string>{base[i]}) << PrintPlan(result);
  }
}

TEST(FilterPushdownTest, SinksThroughChainDeeperThanMaxPassesInOneCall) {
  // A filter on the anchor above a LEFT OUTER chain deeper than the
  // fixpoint budget, the shape of a company filter over a VDM view's
  // augmentation joins. One pushdown call lands it on the anchor scan.
  const int depth = Full().max_passes + 2;
  PlanBuilder chain = PlanBuilder::ScanSchema(Fact(), "f");
  for (int i = 0; i < depth; ++i) {
    const std::string alias = "d" + std::to_string(i);
    chain = chain.Join(PlanBuilder::ScanSchema(Dim(), alias),
                       JoinType::kLeftOuter,
                       Eq(Col("f.dim_key"), Col(alias + ".k")));
  }
  PlanRef plan = chain.Filter(Eq(Col("f.status"), LitInt(1))).Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  PlanRef node = result;
  for (int i = 0; i < depth; ++i) {
    ASSERT_EQ(node->kind(), OpKind::kJoin) << PrintPlan(result);
    EXPECT_EQ(node->child(1)->kind(), OpKind::kScan);
    node = node->child(0);
  }
  ASSERT_EQ(node->kind(), OpKind::kFilter) << PrintPlan(result);
  EXPECT_EQ(node->child(0)->kind(), OpKind::kScan);
  // Nothing is left to push: a second call is a no-op.
  changed = false;
  EXPECT_EQ(RunPass(PassFilterPushdown, result, Full(), &changed), result);
  EXPECT_FALSE(changed);
}

// --- constant folding / project merge ---------------------------------------

TEST(ConstantFoldingTest, RemovesAlwaysTrueFilter) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .Filter(Eq(LitInt(1), LitInt(1)))
                     .Build();
  bool changed = false;
  PlanRef result = RunPass(PassConstantFolding, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(result->kind(), OpKind::kScan);
}

TEST(ConstantFoldingTest, MergesProjectStacks) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .ProjectColumns({"f.id", "f.amount"}, {"a", "b"})
                     .ProjectColumns({"a", "b"}, {"x", "y"})
                     .ProjectColumns({"y"}, {"z"})
                     .Build();
  bool changed = false;
  PlanRef result = RunPass(PassConstantFolding, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(result->kind(), OpKind::kProject);
  EXPECT_EQ(result->child(0)->kind(), OpKind::kScan);
  EXPECT_EQ(result->OutputNames(), std::vector<std::string>{"z"});
}

TEST(ConstantFoldingTest, DoesNotDuplicateExpensiveExpressions) {
  // The inner computed item is referenced twice above: no merge.
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Project({{Bin(BinaryOpKind::kMul, Col("f.amount"), Col("f.amount")),
                     "sq"}})
          .Project({{Bin(BinaryOpKind::kAdd, Col("sq"), Col("sq")), "dbl"}})
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassConstantFolding, plan, Full(), &changed);
  ASSERT_EQ(result->kind(), OpKind::kProject);
  EXPECT_EQ(result->child(0)->kind(), OpKind::kProject);
}

// --- prune & UAJ ------------------------------------------------------------

TEST(PruneTest, ScansNarrowedToRequiredColumns) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .ProjectColumns({"f.id"}, {"id"})
                     .Build();
  bool changed = false;
  PlanRef result = RunPass(PassPruneAndEliminate, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  const auto& scan = static_cast<const ScanOp&>(*result->child(0));
  EXPECT_EQ(scan.column_indexes().size(), 1u);
}

TEST(PruneTest, RootOutputsPreserved) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f").Build();
  bool changed = false;
  PlanRef result = RunPass(PassPruneAndEliminate, plan, Full(), &changed);
  // Root arity is not flexible: nothing may be pruned.
  EXPECT_EQ(result->OutputNames().size(), 4u);
}

TEST(PruneTest, UajEliminationRequiresPurelyAugmenting) {
  // LOJ on the dim's PK and unused -> removed.
  PlanRef removable =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .ProjectColumns({"f.id"}, {"id"})
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassPruneAndEliminate, removable, Full(), &changed);
  EXPECT_EQ(ComputePlanStats(result).joins, 0u);
  // Same join as INNER (no FK): kept even though unused.
  PlanRef kept =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kInner,
                Eq(Col("f.dim_key"), Col("d.k")))
          .ProjectColumns({"f.id"}, {"id"})
          .Build();
  changed = false;
  result = RunPass(PassPruneAndEliminate, kept, Full(), &changed);
  EXPECT_EQ(ComputePlanStats(result).joins, 1u);
}

TEST(PruneTest, StackedUajsAllRemoved) {
  PlanBuilder plan = PlanBuilder::ScanSchema(Fact(), "f");
  for (int i = 0; i < 5; ++i) {
    plan = plan.Join(
        PlanBuilder::ScanSchema(Dim(), "d" + std::to_string(i)),
        JoinType::kLeftOuter,
        Eq(Col("f.dim_key"), Col("d" + std::to_string(i) + ".k")));
  }
  PlanRef built = plan.ProjectColumns({"f.id"}, {"id"}).Build();
  bool changed = false;
  PlanRef result = RunPass(PassPruneAndEliminate, built, Full(), &changed);
  EXPECT_EQ(ComputePlanStats(result).joins, 0u) << PrintPlan(result);
}

TEST(PruneTest, UnusedAggregateItemsDropped) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.status"), "st"}},
                     {{Agg(AggKind::kSum, Col("f.amount")), "total"},
                      {CountStar(), "n"}})
          .ProjectColumns({"st", "n"}, {"st", "n"})
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassPruneAndEliminate, plan, Full(), &changed);
  const auto& agg = static_cast<const AggregateOp&>(*result->child(0));
  ASSERT_EQ(agg.aggregates().size(), 1u);
  EXPECT_EQ(agg.aggregates()[0].name, "n");
}

// --- limit pushdown ----------------------------------------------------------

TEST(LimitPushdownTest, SinksThroughProjectAndAugmentingJoins) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .ProjectColumns({"f.id", "d.name"}, {"id", "name"})
          .Limit(10, 5)
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassLimitPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  // Limit lands directly above the fact scan.
  ASSERT_EQ(result->kind(), OpKind::kProject);
  ASSERT_EQ(result->child(0)->kind(), OpKind::kJoin);
  ASSERT_EQ(result->child(0)->child(0)->kind(), OpKind::kLimit);
  const auto& limit =
      static_cast<const LimitOp&>(*result->child(0)->child(0));
  EXPECT_EQ(limit.limit(), 10);
  EXPECT_EQ(limit.offset(), 5);
}

TEST(LimitPushdownTest, DoesNotSinkPastNonAugmentingJoin) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kInner,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Limit(10)
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassLimitPushdown, plan, Full(), &changed);
  EXPECT_EQ(result->kind(), OpKind::kLimit);
}

TEST(LimitPushdownTest, DistributesOverUnionAll) {
  PlanBuilder c1 = PlanBuilder::ScanSchema(Fact(), "a").ProjectColumns(
      {"a.id"}, {"id"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(Fact(), "b").ProjectColumns(
      {"b.id"}, {"id"});
  PlanRef plan =
      PlanBuilder::UnionAll({c1, c2}, {"id"}).Limit(10, 3).Build();
  bool changed = false;
  PlanRef result = RunPass(PassLimitPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(result->kind(), OpKind::kLimit);  // outer limit remains
  ASSERT_EQ(result->child(0)->kind(), OpKind::kUnionAll);
  // Each branch limited to limit+offset with no offset.
  for (const PlanRef& child : result->child(0)->children()) {
    bool found_limit = false;
    VisitPlan(child, [&](const PlanRef& node) {
      if (node->kind() == OpKind::kLimit) {
        found_limit = true;
        EXPECT_EQ(static_cast<const LimitOp&>(*node).limit(), 13);
        EXPECT_EQ(static_cast<const LimitOp&>(*node).offset(), 0);
      }
    });
    EXPECT_TRUE(found_limit);
  }
  // Idempotent: a second application changes nothing.
  bool changed_again = false;
  RunPass(PassLimitPushdown, result, Full(), &changed_again);
  EXPECT_FALSE(changed_again);
}

TEST(LimitPushdownTest, GatedByProfile) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Limit(10)
          .Build();
  bool changed = false;
  PlanRef result =
      RunPass(PassLimitPushdown, plan,
              ConfigForProfile(SystemProfile::kPostgres), &changed);
  EXPECT_FALSE(changed);
  EXPECT_EQ(result, plan);
}

// --- distinct elimination ----------------------------------------------------

TEST(DistinctEliminationTest, DropsWhenInputUnique) {
  PlanRef unique = PlanBuilder::ScanSchema(Fact(), "f")
                       .ProjectColumns({"f.id", "f.status"}, {"id", "st"})
                       .Distinct()
                       .Build();
  bool changed = false;
  PlanRef result = RunPass(PassDistinctElimination, unique, Full(), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(ComputePlanStats(result).distincts, 0u);

  PlanRef not_unique = PlanBuilder::ScanSchema(Fact(), "f")
                           .ProjectColumns({"f.status"}, {"st"})
                           .Distinct()
                           .Build();
  changed = false;
  result = RunPass(PassDistinctElimination, not_unique, Full(), &changed);
  EXPECT_FALSE(changed);
  EXPECT_EQ(ComputePlanStats(result).distincts, 1u);
}

// --- ASJ on hand-built plans (canonical Fig. 13 shapes) ----------------------

TEST(AsjTest, SelfJoinOnKeyRewired) {
  // V = projection of fact without amount; ASJ re-exposes it.
  PlanBuilder anchor = PlanBuilder::ScanSchema(Fact(), "v").ProjectColumns(
      {"v.id", "v.status"}, {"id", "st"});
  PlanBuilder augmenter = PlanBuilder::ScanSchema(Fact(), "e");
  PlanRef plan = anchor
                     .Join(augmenter, JoinType::kLeftOuter,
                           Eq(Col("id"), Col("e.id")))
                     .Build();
  bool changed = false;
  PlanRef result = RunPass(PassAsjElimination, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(ComputePlanStats(result).joins, 0u) << PrintPlan(result);
  EXPECT_EQ(ComputePlanStats(result).table_instances, 1u);
  // The output names are unchanged.
  EXPECT_EQ(result->OutputNames(), plan->OutputNames());
}

TEST(AsjTest, SubsumptionRequired) {
  // Anchor restricted to status=1, augmenter restricted to status=2:
  // NOT removable (Fig. 10(c) failing case).
  PlanBuilder anchor = PlanBuilder::ScanSchema(Fact(), "v")
                           .Filter(Eq(Col("v.status"), LitInt(1)))
                           .ProjectColumns({"v.id"}, {"id"});
  PlanBuilder augmenter = PlanBuilder::ScanSchema(Fact(), "e")
                              .Filter(Eq(Col("e.status"), LitInt(2)));
  PlanRef plan = anchor
                     .Join(augmenter, JoinType::kLeftOuter,
                           Eq(Col("id"), Col("e.id")))
                     .Build();
  bool changed = false;
  RunPass(PassAsjElimination, plan, Full(), &changed);
  EXPECT_FALSE(changed);

  // Matching restriction: removable.
  PlanBuilder anchor2 = PlanBuilder::ScanSchema(Fact(), "v")
                            .Filter(Eq(Col("v.status"), LitInt(1)))
                            .ProjectColumns({"v.id"}, {"id"});
  PlanBuilder augmenter2 = PlanBuilder::ScanSchema(Fact(), "e")
                               .Filter(Eq(Col("e.status"), LitInt(1)));
  PlanRef plan2 = anchor2
                      .Join(augmenter2, JoinType::kLeftOuter,
                            Eq(Col("id"), Col("e.id")))
                      .Build();
  changed = false;
  PlanRef result = RunPass(PassAsjElimination, plan2, Full(), &changed);
  EXPECT_TRUE(changed) << PrintPlan(plan2);
  EXPECT_EQ(ComputePlanStats(result).joins, 0u);
}

TEST(AsjTest, AggregateInAnchorBlocksExposure) {
  // The augmenter column cannot be wired through an aggregation.
  PlanBuilder anchor =
      PlanBuilder::ScanSchema(Fact(), "v")
          .Aggregate({{Col("v.dim_key"), "dk"}}, {{CountStar(), "n"}});
  PlanBuilder augmenter = PlanBuilder::ScanSchema(Dim(), "e");
  PlanRef plan = anchor
                     .Join(augmenter, JoinType::kLeftOuter,
                           Eq(Col("dk"), Col("e.k")))
                     .Build();
  bool changed = false;
  RunPass(PassAsjElimination, plan, Full(), &changed);
  // Not a self join at all (different tables) — must stay.
  EXPECT_FALSE(changed);
}

TEST(AsjTest, UnionAnchorFig13a) {
  TableSchema t = Fact();
  PlanBuilder c1 = PlanBuilder::ScanSchema(t, "x")
                       .Filter(Eq(Col("x.status"), LitInt(1)))
                       .ProjectColumns({"x.id"}, {"id"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(t, "y")
                       .Filter(Eq(Col("y.status"), LitInt(2)))
                       .ProjectColumns({"y.id"}, {"id"});
  PlanBuilder anchor = PlanBuilder::UnionAll({c1, c2}, {"id"});
  PlanBuilder augmenter = PlanBuilder::ScanSchema(t, "e");
  PlanRef plan = anchor
                     .Join(augmenter, JoinType::kLeftOuter,
                           Eq(Col("id"), Col("e.id")))
                     .Build();
  bool changed = false;
  PlanRef result = RunPass(PassAsjElimination, plan, Full(), &changed);
  EXPECT_TRUE(changed) << PrintPlan(plan);
  EXPECT_EQ(ComputePlanStats(result).joins, 0u) << PrintPlan(result);
  // Both branch scans remain; the augmenter scan is gone.
  EXPECT_EQ(ComputePlanStats(result).table_instances, 2u);
}

TEST(AsjTest, UnionAnchorGatedByConfig) {
  TableSchema t = Fact();
  PlanBuilder c1 = PlanBuilder::ScanSchema(t, "x")
                       .Filter(Eq(Col("x.status"), LitInt(1)))
                       .ProjectColumns({"x.id"}, {"id"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(t, "y")
                       .Filter(Eq(Col("y.status"), LitInt(2)))
                       .ProjectColumns({"y.id"}, {"id"});
  PlanRef plan = PlanBuilder::UnionAll({c1, c2}, {"id"})
                     .Join(PlanBuilder::ScanSchema(t, "e"),
                           JoinType::kLeftOuter, Eq(Col("id"), Col("e.id")))
                     .Build();
  OptimizerConfig config = Full();
  config.asj_union_all_anchor = false;
  bool changed = false;
  RunPass(PassAsjElimination, plan, config, &changed);
  EXPECT_FALSE(changed);
}

TEST(AsjTest, CaseJoinFig13bCanonical) {
  TableSchema active("doc_a");
  active.AddColumn("k", DataType::Int64(), false)
      .AddColumn("payload", DataType::String())
      .AddColumn("ext", DataType::String());
  active.SetPrimaryKey({"k"});
  TableSchema draft("doc_d");
  draft.AddColumn("k", DataType::Int64(), false)
      .AddColumn("payload", DataType::String())
      .AddColumn("ext", DataType::String());
  draft.SetPrimaryKey({"k"});

  auto make_anchor_child = [](const TableSchema& schema, const char* alias,
                              int bid) {
    return PlanBuilder::ScanSchema(schema, alias)
        .Project({{Col(std::string(alias) + ".k"), "k"},
                  {LitInt(bid), "bid"},
                  {Col(std::string(alias) + ".payload"), "payload"}});
  };
  auto make_aug_child = [](const TableSchema& schema, const char* alias,
                           int bid) {
    return PlanBuilder::ScanSchema(schema, alias)
        .Project({{Col(std::string(alias) + ".k"), "k"},
                  {LitInt(bid), "bid"},
                  {Col(std::string(alias) + ".ext"), "ext"}});
  };
  PlanBuilder anchor = PlanBuilder::UnionAll(
      {make_anchor_child(active, "a", 1), make_anchor_child(draft, "d", 2)},
      {"k", "bid", "payload"}, 1, "doc");
  PlanBuilder augmenter = PlanBuilder::UnionAll(
      {make_aug_child(active, "ea", 1), make_aug_child(draft, "ed", 2)},
      {"k", "bid", "ext"}, 1, "doc");
  // Anchor outputs are k/bid/payload; the augmenter's outputs would
  // collide, so wrap it in a rename.
  PlanBuilder wrapped_aug = augmenter.ProjectColumns(
      {"k", "bid", "ext"}, {"e_k", "e_bid", "e_ext"});
  PlanRef with_intent =
      anchor
          .Join(wrapped_aug, JoinType::kLeftOuter,
                And(Eq(Col("bid"), Col("e_bid")), Eq(Col("k"), Col("e_k"))),
                DeclaredCardinality::kNone, /*case_join=*/true)
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassAsjElimination, with_intent, Full(), &changed);
  EXPECT_TRUE(changed) << PrintPlan(with_intent);
  PlanStats stats = ComputePlanStats(result);
  EXPECT_EQ(stats.joins, 0u) << PrintPlan(result);
  EXPECT_EQ(stats.table_instances, 2u);
  EXPECT_EQ(result->OutputNames(), with_intent->OutputNames());

  // The same plan *without* the case-join intent: the fragile recognizer
  // rejects it (augmenter branches are not bare scans).
  PlanRef without_intent =
      anchor
          .Join(wrapped_aug, JoinType::kLeftOuter,
                And(Eq(Col("bid"), Col("e_bid")), Eq(Col("k"), Col("e_k"))),
                DeclaredCardinality::kNone, /*case_join=*/false)
          .Build();
  changed = false;
  RunPass(PassAsjElimination, without_intent, Full(), &changed);
  EXPECT_FALSE(changed);
}

// --- aggregate merging / eager aggregation -----------------------------------

TEST(AggMergeTest, SumOverSumMergesUnconditionally) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.id"), "id"}, {Col("f.status"), "st"}},
                     {{Agg(AggKind::kSum, Col("f.amount")), "subtotal"}})
          .Aggregate({{Col("st"), "st"}},
                     {{Agg(AggKind::kSum, Col("subtotal")), "total"}})
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassAggregatePushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(ComputePlanStats(result).aggregates, 1u) << PrintPlan(result);
}

TEST(AggMergeTest, RoundBetweenLevelsNeedsOptIn) {
  auto build = [&](bool allow) {
    ExprRef tax = Func(
        "round", {Agg(AggKind::kSum, Col("f.amount")), LitInt(0)});
    ExprRef outer_sum = std::make_shared<AggregateExpr>(
        AggKind::kSum, Col("tax"), false, allow);
    return PlanBuilder::ScanSchema(Fact(), "f")
        .Aggregate({{Col("f.id"), "id"}, {Col("f.status"), "st"}},
                   {{tax, "tax"}})
        .Aggregate({{Col("st"), "st"}}, {{outer_sum, "total"}})
        .Build();
  };
  bool changed = false;
  PlanRef strict =
      RunPass(PassAggregatePushdown, build(false), Full(), &changed);
  EXPECT_EQ(ComputePlanStats(strict).aggregates, 2u);
  changed = false;
  PlanRef relaxed =
      RunPass(PassAggregatePushdown, build(true), Full(), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(ComputePlanStats(relaxed).aggregates, 1u) << PrintPlan(relaxed);
}

TEST(EagerAggregationTest, SplitsBelowAugmentingJoin) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Aggregate({{Col("d.name"), "name"}},
                     {{Agg(AggKind::kSum, Col("f.amount")), "total"}})
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassAggregatePushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  // Two aggregates now: a partial below the join, the final above.
  PlanStats stats = ComputePlanStats(result);
  EXPECT_EQ(stats.aggregates, 2u) << PrintPlan(result);
  // Reapplication is guarded.
  bool changed_again = false;
  RunPass(PassAggregatePushdown, result, Full(), &changed_again);
  EXPECT_FALSE(changed_again);
}

TEST(EagerAggregationTest, NotAppliedWhenArgsUseAugmenter) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Aggregate({{Col("d.name"), "name"}},
                     {{Agg(AggKind::kCount, Col("d.attr")), "n"}})
          .Build();
  bool changed = false;
  RunPass(PassAggregatePushdown, plan, Full(), &changed);
  EXPECT_FALSE(changed);
}


// --- filter through aggregate -------------------------------------------------

TEST(FilterPushdownTest, GroupKeyConjunctsSinkBelowAggregate) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.status"), "st"}},
                     {{Agg(AggKind::kSum, Col("f.amount")), "total"}})
          .Filter(And(Eq(Col("st"), LitInt(1)),
                      Bin(BinaryOpKind::kGreater, Col("total"), LitInt(5))))
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  // Shape: Filter(total>5) over Aggregate over Filter(status=1) over scan.
  ASSERT_EQ(result->kind(), OpKind::kFilter);
  ASSERT_EQ(result->child(0)->kind(), OpKind::kAggregate);
  ASSERT_EQ(result->child(0)->child(0)->kind(), OpKind::kFilter);
  const auto& pushed =
      static_cast<const FilterOp&>(*result->child(0)->child(0));
  EXPECT_TRUE(ReferencesOnly(pushed.predicate(), {"f.status"}));
}

TEST(FilterPushdownTest, AggregateOnlyConjunctsStayAbove) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.status"), "st"}}, {{CountStar(), "n"}})
          .Filter(Bin(BinaryOpKind::kGreater, Col("n"), LitInt(1)))
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  EXPECT_FALSE(changed);
  EXPECT_EQ(result->kind(), OpKind::kFilter);
}


// --- predicate transfer across joins ------------------------------------------

// Predicates of the filters sitting directly on the scan aliased `alias`.
std::vector<std::string> FiltersOnScan(const PlanRef& plan,
                                       const std::string& alias) {
  std::vector<std::string> out;
  VisitPlan(plan, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kFilter ||
        node->child(0)->kind() != OpKind::kScan ||
        static_cast<const ScanOp&>(*node->child(0)).alias() != alias) {
      return;
    }
    out.push_back(
        static_cast<const FilterOp&>(*node).predicate()->ToString());
  });
  return out;
}

PlanRef PushedFilter(JoinType join_type, const ExprRef& condition,
                     const ExprRef& predicate) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .Join(PlanBuilder::ScanSchema(Dim(), "d"), join_type,
                           condition)
                     .Filter(predicate)
                     .Build();
  bool changed = false;
  return RunPass(PassFilterPushdown, plan, Full(), &changed);
}

TEST(PredicateTransferTest, InnerJoinTransfersBothWays) {
  const ExprRef on = Eq(Col("f.dim_key"), Col("d.k"));
  PlanRef from_left =
      PushedFilter(JoinType::kInner, on, Eq(Col("f.dim_key"), LitInt(3)));
  EXPECT_EQ(FiltersOnScan(from_left, "d"),
            std::vector<std::string>{"(d.k = 3)"})
      << PrintPlan(from_left);
  PlanRef from_right =
      PushedFilter(JoinType::kInner, on, Eq(LitInt(3), Col("d.k")));
  EXPECT_EQ(FiltersOnScan(from_right, "f"),
            std::vector<std::string>{"(f.dim_key = 3)"})
      << PrintPlan(from_right);
  // A side that already pins the column gets no second copy.
  PlanRef both = PushedFilter(
      JoinType::kInner, on,
      And(Eq(Col("f.dim_key"), LitInt(3)), Eq(LitInt(3), Col("d.k"))));
  EXPECT_EQ(FiltersOnScan(both, "f"),
            std::vector<std::string>{"(f.dim_key = 3)"})
      << PrintPlan(both);
  EXPECT_EQ(FiltersOnScan(both, "d"), std::vector<std::string>{"(3 = d.k)"})
      << PrintPlan(both);
}

TEST(PredicateTransferTest, LeftOuterTransfersOnlyLeftToRight) {
  const ExprRef on = Eq(Col("d.k"), Col("f.dim_key"));
  PlanRef from_left = PushedFilter(JoinType::kLeftOuter, on,
                                   Eq(Col("f.dim_key"), LitInt(3)));
  EXPECT_EQ(FiltersOnScan(from_left, "d"),
            std::vector<std::string>{"(d.k = 3)"})
      << PrintPlan(from_left);
  // A conjunct on the null-supplying side stays above the join and
  // transfers nowhere: the preserved side keeps all of its rows.
  PlanRef from_right = PushedFilter(JoinType::kLeftOuter, on,
                                    Eq(Col("d.k"), LitInt(3)));
  EXPECT_EQ(from_right->kind(), OpKind::kFilter) << PrintPlan(from_right);
  EXPECT_TRUE(FiltersOnScan(from_right, "f").empty())
      << PrintPlan(from_right);
  EXPECT_TRUE(FiltersOnScan(from_right, "d").empty())
      << PrintPlan(from_right);
}

TEST(PredicateTransferTest, OnlyLiteralEqualitiesOverTopLevelSameTypedKeys) {
  const ExprRef on = Eq(Col("f.dim_key"), Col("d.k"));
  struct Case {
    const char* what;
    ExprRef condition;
    ExprRef predicate;
  };
  const Case cases[] = {
      {"non-equality", on,
       Bin(BinaryOpKind::kGreater, Col("f.dim_key"), LitInt(3))},
      {"OR", on,
       Bin(BinaryOpKind::kOr, Eq(Col("f.dim_key"), LitInt(3)),
           Eq(Col("f.status"), LitInt(1)))},
      {"residual conjunct over both sides", on,
       Eq(Col("f.dim_key"), Bin(BinaryOpKind::kAdd, Col("d.k"), LitInt(3)))},
      {"equality nested under OR in the join condition",
       Bin(BinaryOpKind::kOr, on, Eq(Col("f.id"), Col("d.k"))),
       Eq(Col("f.dim_key"), LitInt(3))},
      {"decimal = int key", Eq(Col("f.amount"), Col("d.k")),
       Eq(Col("f.amount"), LitInt(3))},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    PlanRef result = PushedFilter(JoinType::kInner, c.condition, c.predicate);
    EXPECT_TRUE(FiltersOnScan(result, "d").empty()) << PrintPlan(result);
  }
}

TEST(PredicateTransferTest, AggregateOutputRepeatingGroupKeySinks) {
  // The binder's grouped-view shape: the group key re-emitted as an output
  // item under the view's column name.
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.status"), "f.status"}},
                     {{Col("f.status"), "st"},
                      {Agg(AggKind::kSum, Col("f.amount")), "total"}})
          .Filter(Eq(Col("st"), LitInt(1)))
          .Build();
  bool changed = false;
  PlanRef result = RunPass(PassFilterPushdown, plan, Full(), &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(result->kind(), OpKind::kAggregate) << PrintPlan(result);
  EXPECT_EQ(FiltersOnScan(result, "f"),
            std::vector<std::string>{"(f.status = 1)"});
}

TEST(PredicateTransferTest, GroupedAugmenterGetsFilterAndEliminationsFire) {
  // f LEFT OUTER JOIN (grouped view over fact) on the group key, with a
  // filter on the preserved side: the filter crosses the join and the
  // aggregate onto the view's scan.
  PlanBuilder totals =
      PlanBuilder::ScanSchema(Fact(), "g")
          .Aggregate({{Col("g.dim_key"), "g.dim_key"}},
                     {{Col("g.dim_key"), "dk"},
                      {Agg(AggKind::kSum, Col("g.amount")), "total"}})
          .ProjectColumns({"dk", "total"}, {"t.dk", "t.total"});
  PlanRef used = PlanBuilder::ScanSchema(Fact(), "f")
                     .Join(totals, JoinType::kLeftOuter,
                           Eq(Col("f.dim_key"), Col("t.dk")))
                     .Filter(Eq(Col("f.dim_key"), LitInt(7)))
                     .ProjectColumns({"f.id", "t.total"}, {"id", "total"})
                     .Build();
  PlanRef optimized = Optimizer(Full()).Optimize(used);
  EXPECT_EQ(FiltersOnScan(optimized, "g"),
            std::vector<std::string>{"(g.dim_key = 7)"})
      << PrintPlan(optimized);

  // Unused, the same augmenter is still eliminated (UAJ), transferred
  // filter and all.
  PlanRef unused = PlanBuilder::ScanSchema(Fact(), "f")
                       .Join(totals, JoinType::kLeftOuter,
                             Eq(Col("f.dim_key"), Col("t.dk")))
                       .Filter(Eq(Col("f.dim_key"), LitInt(7)))
                       .ProjectColumns({"f.id"}, {"id"})
                       .Build();
  optimized = Optimizer(Full()).Optimize(unused);
  EXPECT_EQ(ComputePlanStats(optimized).joins, 0u) << PrintPlan(optimized);
}

TEST(PredicateTransferTest, ForeignKeyJoinStillEliminatedUnderFilter) {
  TableSchema fact = Fact();
  fact.AddForeignKey({"dim_key"}, "dim", {"k"});
  PlanRef plan = PlanBuilder::ScanSchema(fact, "f")
                     .Join(PlanBuilder::ScanSchema(Dim(), "d"),
                           JoinType::kInner, Eq(Col("f.dim_key"), Col("d.k")))
                     .Filter(Eq(Col("f.dim_key"), LitInt(3)))
                     .ProjectColumns({"f.id"}, {"id"})
                     .Build();
  PlanRef optimized = Optimizer(Full()).Optimize(plan);
  EXPECT_EQ(ComputePlanStats(optimized).joins, 0u) << PrintPlan(optimized);
}

// --- join ordering -----------------------------------------------------------

/// Statistics carrying only a row count. Every member is named: GCC 12
/// warns about designated initializers that leave one out.
TableStats Rows(uint64_t n) {
  return TableStats{.row_count = n, .columns = {}, .physical_rows = 0};
}

TEST(JoinOrderTest, ReordersByEstimatedSize) {
  // Catalog stats: big has 100k rows, small has 10.
  Catalog catalog;
  TableSchema big("big");
  big.AddColumn("k", DataType::Int64(), false)
      .AddColumn("payload", DataType::String());
  TableSchema small("small");
  small.AddColumn("k", DataType::Int64(), false)
      .AddColumn("tag", DataType::String());
  ASSERT_TRUE(catalog.RegisterTable(big).ok());
  ASSERT_TRUE(catalog.RegisterTable(small).ok());
  catalog.SetTableStats("big", Rows(100000));
  catalog.SetTableStats("small", Rows(10));

  // small ⋈ big builds the hash table on `big` (the executor builds the
  // right input) — the costed pass must flip the sides.
  PlanRef plan = PlanBuilder::ScanSchema(small, "s")
                     .Join(PlanBuilder::ScanSchema(big, "b"),
                           JoinType::kInner, Eq(Col("s.k"), Col("b.k")))
                     .Build();
  OptimizerConfig config = Full();
  config.stats_catalog = &catalog;
  bool changed = false;
  PlanRef result = RunPass(PassJoinOrder, plan, config, &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(result->kind(), OpKind::kProject);
  const auto& join = static_cast<const JoinOp&>(*result->child(0));
  EXPECT_EQ(static_cast<const ScanOp&>(*join.left()).table_name(), "big");
  EXPECT_EQ(static_cast<const ScanOp&>(*join.right()).table_name(), "small");
  // Output names and order are preserved by the restoring projection.
  EXPECT_EQ(result->OutputNames(), plan->OutputNames());
  // Idempotent.
  bool changed_again = false;
  RunPass(PassJoinOrder, result, config, &changed_again);
  EXPECT_FALSE(changed_again);
}

TEST(JoinOrderTest, LeftOuterAndDeclaredJoinsUntouched) {
  Catalog catalog;
  catalog.SetTableStats("fact", Rows(100000));
  catalog.SetTableStats("dim", Rows(10));
  PlanRef loj = PlanBuilder::ScanSchema(Fact(), "f")
                    .Join(PlanBuilder::ScanSchema(Dim(), "d"),
                          JoinType::kLeftOuter,
                          Eq(Col("f.dim_key"), Col("d.k")))
                    .Build();
  OptimizerConfig config = Full();
  config.stats_catalog = &catalog;
  bool changed = false;
  RunPass(PassJoinOrder, loj, config, &changed);
  EXPECT_FALSE(changed);
  PlanRef declared = PlanBuilder::ScanSchema(Fact(), "f")
                         .Join(PlanBuilder::ScanSchema(Dim(), "d"),
                               JoinType::kInner,
                               Eq(Col("f.dim_key"), Col("d.k")),
                               DeclaredCardinality::kExactOne)
                         .Build();
  changed = false;
  RunPass(PassJoinOrder, declared, config, &changed);
  EXPECT_FALSE(changed);
}

TEST(JoinOrderTest, ChainPrefersConnectedRelations) {
  Catalog catalog;
  TableSchema a("ta"), b("tb"), c("tc");
  a.AddColumn("x", DataType::Int64(), false);
  b.AddColumn("x", DataType::Int64(), false)
      .AddColumn("y", DataType::Int64(), false);
  c.AddColumn("y", DataType::Int64(), false);
  catalog.SetTableStats("ta", Rows(1000));
  catalog.SetTableStats("tb", Rows(100000));
  catalog.SetTableStats("tc", Rows(10));
  PlanRef plan =
      PlanBuilder::ScanSchema(a, "a")
          .Join(PlanBuilder::ScanSchema(b, "b"), JoinType::kInner,
                Eq(Col("a.x"), Col("b.x")))
          .Join(PlanBuilder::ScanSchema(c, "c"), JoinType::kInner,
                Eq(Col("b.y"), Col("c.y")))
          .Build();
  OptimizerConfig config = Full();
  config.stats_catalog = &catalog;
  bool changed = false;
  PlanRef result = RunPass(PassJoinOrder, plan, config, &changed);
  EXPECT_TRUE(changed);
  // Greedy starts from tc (smallest); the only connected relation is tb;
  // ta joins last: ((c ⋈ b) ⋈ a). No cross joins appear.
  bool has_true_condition = false;
  VisitPlan(result, [&](const PlanRef& node) {
    if (node->kind() == OpKind::kJoin) {
      const auto& join = static_cast<const JoinOp&>(*node);
      if (IsAlwaysTrue(join.condition())) has_true_condition = true;
    }
  });
  EXPECT_FALSE(has_true_condition) << PrintPlan(result);
}

// --- fixpoint convergence ---------------------------------------------------

TEST(ConvergenceTest, TruncatedRunIsReportedAsNotConverged) {
  // A plan with work for several passes: a pushable filter, prunable
  // columns, and a removable UAJ. One pass changes the plan, so the run
  // cannot witness a no-change iteration within max_passes = 1.
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Filter(Eq(Col("f.status"), LitInt(1)))
          .Project({{Col("f.id"), "id"}})
          .Build();
  OptimizerConfig truncated = Full();
  truncated.max_passes = 1;
  Result<OptimizeResult> partial = Optimizer(truncated).OptimizeChecked(plan);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->converged) << PrintPlan(partial->plan);
  EXPECT_EQ(partial->passes, 1);

  // With the default budget the same plan reaches a fixpoint.
  Result<OptimizeResult> done = Optimizer(Full()).OptimizeChecked(plan);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->converged) << PrintPlan(done->plan);
  EXPECT_LE(done->passes, Full().max_passes);
  // And the fixpoint is at least as reduced as the truncated plan.
  EXPECT_EQ(ComputePlanStats(done->plan).joins, 0u) << PrintPlan(done->plan);
}

TEST(ConvergenceTest, FlagBelongsToEachCall) {
  OptimizerConfig config = Full();
  config.max_passes = 1;
  const Optimizer optimizer(config);
  PlanRef trivial = PlanBuilder::ScanSchema(Fact(), "f").Build();
  PlanRef busy = PlanBuilder::ScanSchema(Fact(), "f")
                     .Join(PlanBuilder::ScanSchema(Dim(), "d"),
                           JoinType::kLeftOuter,
                           Eq(Col("f.dim_key"), Col("d.k")))
                     .Project({{Col("f.id"), "id"}})
                     .Build();
  Result<OptimizeResult> busy_run = optimizer.OptimizeChecked(busy);
  Result<OptimizeResult> trivial_run = optimizer.OptimizeChecked(trivial);
  ASSERT_TRUE(busy_run.ok() && trivial_run.ok());
  EXPECT_FALSE(busy_run->converged);
  EXPECT_TRUE(trivial_run->converged);
  EXPECT_EQ(trivial_run->passes, 1);
}

// --- the run's inference engine ----------------------------------------------

/// InferredProps::ToString leaves out provenance and base constants;
/// compare all.
std::string FullProps(const InferredProps& props) {
  std::string out = props.ToString();
  for (const auto& [name, sources] : props.sources) {
    for (const ValueSource& src : sources) {
      out += " " + name + "<-" + std::to_string(src.source_id) + ":" +
             src.table + "." + src.column + (src.null_extended ? "?" : "") +
             (src.via_equality ? "=" : "");
    }
  }
  for (const auto& [key, value] : props.base_constants) {
    out += " " + key + "=" + value.ToString();
  }
  for (const auto& [id, pins] : props.source_pins) {
    for (const auto& [column, value] : pins) {
      out += " #" + std::to_string(id) + "." + column + "=" + value.ToString();
    }
  }
  return out;
}

/// The properties a fresh engine derives for `plan`.
std::string FreshProps(const PlanRef& plan, const InferOptions& options) {
  InferenceEngine engine(options);
  return FullProps(engine.Infer(plan));
}

void CollectNodes(const PlanRef& plan, std::set<const LogicalOp*>* out) {
  out->insert(plan.get());
  for (const PlanRef& child : plan->children()) CollectNodes(child, out);
}

TEST(RunEngineTest, MemoKeysNodesNotIds) {
  // WithChildren keeps the filter's id while doubling its input: f.id is
  // unique over the scan, not over a UNION ALL of the scan with itself.
  PlanRef scan = PlanBuilder::ScanSchema(Fact(), "f").Build();
  PlanRef filter =
      std::make_shared<FilterOp>(scan, Eq(Col("f.status"), LitInt(1)));
  PlanRef doubled = filter->WithChildren({std::make_shared<UnionAllOp>(
      std::vector<PlanRef>{scan, scan}, scan->OutputNames())});
  ASSERT_EQ(doubled->id(), filter->id());

  InferenceEngine engine(Full().derivation);
  EXPECT_TRUE(engine.Infer(filter).UniqueOn({"f.id"}));
  EXPECT_FALSE(engine.Infer(doubled).UniqueOn({"f.id"}));
  EXPECT_EQ(FullProps(engine.Infer(doubled)),
            FreshProps(doubled, Full().derivation));
}

TEST(RunEngineTest, SharedAcrossRewritesMatchesFreshDerivation) {
  // One engine through a sequence of passes, as OptimizeChecked runs them:
  // every node of every intermediate plan gets the properties a fresh
  // derivation gives, and no node is derived twice.
  const OptimizerConfig config = Full();
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Join(PlanBuilder::ScanSchema(Fact(), "g"), JoinType::kLeftOuter,
                Eq(Col("f.id"), Col("g.id")))
          .Filter(Eq(Col("f.status"), LitInt(1)))
          .Project({{Col("f.id"), "id"}, {Col("g.amount"), "amount"}})
          .Limit(5)
          .Build();
  InferenceEngine engine(config.derivation);
  std::set<const LogicalOp*> seen;
  CollectNodes(plan, &seen);
  engine.Infer(plan);
  EXPECT_EQ(engine.computed(), seen.size());
  EXPECT_EQ(engine.reused(), 0u);
  engine.Infer(plan);
  EXPECT_EQ(engine.computed(), seen.size());
  EXPECT_EQ(engine.reused(), 1u);

  const PassFn passes[] = {&PassFilterPushdown, &PassAsjElimination,
                           &PassSelfJoinGeneral, &PassPruneAndEliminate,
                           &PassLimitPushdown, &PassJoinOrder};
  // Keeps every version's nodes alive, so the addresses in `seen` stay
  // distinct nodes.
  std::vector<PlanRef> versions = {plan};
  for (PassFn pass : passes) {
    bool changed = false;
    plan = pass(plan, config, engine, &changed);
    versions.push_back(plan);
    std::set<const LogicalOp*> nodes;
    CollectNodes(plan, &nodes);
    seen.insert(nodes.begin(), nodes.end());
    VisitPlan(plan, [&](const PlanRef& node) {
      EXPECT_EQ(FullProps(engine.Infer(node)),
                FreshProps(node, config.derivation))
          << node->Describe();
    });
  }
  // The self-join on g and the unused dim augmentation are gone.
  EXPECT_EQ(ComputePlanStats(plan).joins, 0u) << PrintPlan(plan);
  EXPECT_LE(engine.computed(), seen.size());
  EXPECT_GT(engine.reused(), 0u);
}

}  // namespace
}  // namespace vdm

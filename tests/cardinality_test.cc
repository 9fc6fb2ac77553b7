// Unit tests for the statistics subsystem (DESIGN.md §14): ANALYZE-time
// collection, the cardinality estimator's source priority (declared
// cardinalities > inference unique keys > distinct counts), per-node plan
// annotation, estimate-vs-actual q-error on micro-queries, and the
// stats-version / plan-cache invalidation contract.
#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/stats/cardinality.h"
#include "analysis/stats/table_stats.h"
#include "engine/database.h"
#include "expr/fold.h"
#include "plan/plan_builder.h"
#include "plan/plan_printer.h"

namespace vdm {
namespace {

TableSchema Fact() {
  TableSchema schema("fact");
  schema.AddColumn("id", DataType::Int64(), false)
      .AddColumn("dim_key", DataType::Int64(), false)
      .AddColumn("amount", DataType::Int64());
  schema.SetPrimaryKey({"id"});
  return schema;
}

TableSchema Dim() {
  TableSchema schema("dim");
  schema.AddColumn("k", DataType::Int64(), false)
      .AddColumn("name", DataType::String());
  schema.SetPrimaryKey({"k"});
  return schema;
}

TableStats StatsWith(uint64_t rows,
                     std::vector<ColumnStatsEntry> columns = {}) {
  TableStats stats;
  stats.row_count = rows;
  stats.columns = std::move(columns);
  return stats;
}

ColumnStatsEntry Entry(uint64_t distinct, double null_fraction = 0.0) {
  ColumnStatsEntry e;
  e.distinct_count = distinct;
  e.null_fraction = null_fraction;
  return e;
}

// --- EstimateEquiJoinRows (the shared core rule) ---------------------------

TEST(EquiJoinRuleTest, DeclaredToOneIsExactPrior) {
  // §7.3: a declared to-one join emits one row per left row regardless of
  // what the distinct counts would say.
  JoinKeyEstimate key;
  key.left = ColumnEstimate{5.0, 0.0, false, 0, 0};
  key.right = ColumnEstimate{7.0, 0.0, false, 0, 0};
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(1000.0, 50.0, JoinType::kInner, {key}, 0, false,
                           false, DeclaredCardinality::kExactOne,
                           /*trust_declared=*/true),
      1000.0);
  // With trust off, the classic rule applies instead.
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(1000.0, 50.0, JoinType::kInner, {key}, 0, false,
                           false, DeclaredCardinality::kExactOne,
                           /*trust_declared=*/false),
      1000.0 * 50.0 / 7.0);
}

TEST(EquiJoinRuleTest, DistinctCountFormulaAndFallback) {
  JoinKeyEstimate key;
  key.left = ColumnEstimate{100.0, 0.0, false, 0, 0};
  key.right = ColumnEstimate{50.0, 0.0, false, 0, 0};
  // |L|·|R| / max(ndv_l, ndv_r).
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(1000.0, 100.0, JoinType::kInner, {key}, 0, false,
                           false, DeclaredCardinality::kNone, true),
      1000.0 * 100.0 / 100.0);
  // No distinct counts: key/foreign-key fallback yields max(|L|, |R|).
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(1000.0, 100.0, JoinType::kInner,
                           {JoinKeyEstimate{}}, 0, false, false,
                           DeclaredCardinality::kNone, true),
      1000.0);
  // No equi keys at all: cross product.
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(20.0, 30.0, JoinType::kInner, {}, 0, false, false,
                           DeclaredCardinality::kNone, true),
      600.0);
}

TEST(EquiJoinRuleTest, UniqueCapsResidualsAndOuterFloor) {
  JoinKeyEstimate key;
  key.left = ColumnEstimate{2.0, 0.0, false, 0, 0};
  key.right = ColumnEstimate{2.0, 0.0, false, 0, 0};
  // 1000·100/2 = 50000, capped at |L| by the right-unique inference.
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(1000.0, 100.0, JoinType::kInner, {key}, 0, false,
                           /*right_unique=*/true, DeclaredCardinality::kNone,
                           true),
      1000.0);
  // Each residual (non-equi) conjunct multiplies by the default 0.25.
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(1000.0, 100.0, JoinType::kInner,
                           {JoinKeyEstimate{}}, /*residual_conjuncts=*/1,
                           false, false, DeclaredCardinality::kNone, true),
      250.0);
  // LEFT OUTER never drops below the left input.
  EXPECT_DOUBLE_EQ(
      EstimateEquiJoinRows(1000.0, 0.0, JoinType::kLeftOuter, {key}, 0,
                           false, false, DeclaredCardinality::kNone, true),
      1000.0);
}

// --- plan-walking estimator ------------------------------------------------

TEST(CardinalityEstimatorTest, ScanUsesStatsOrDefault) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(Fact()).ok());
  ASSERT_TRUE(catalog.RegisterTable(Dim()).ok());
  catalog.SetTableStats("fact", StatsWith(12345));
  InferenceEngine engine;
  CardinalityEstimator est(&catalog, &engine);
  EXPECT_DOUBLE_EQ(
      est.EstimateRows(PlanBuilder::ScanSchema(Fact(), "f").Build()), 12345.0);
  // Never analyzed: the configured default.
  EXPECT_DOUBLE_EQ(
      est.EstimateRows(PlanBuilder::ScanSchema(Dim(), "d").Build()),
      est.options().default_table_rows);
}

TEST(CardinalityEstimatorTest, FilterEqualityUsesDistinctCount) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(Fact()).ok());
  // Schema-parallel entries: id, dim_key, amount.
  catalog.SetTableStats(
      "fact", StatsWith(1000, {Entry(1000), Entry(10), Entry(100)}));
  InferenceEngine engine;
  CardinalityEstimator est(&catalog, &engine);
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .Filter(Eq(Col("f.dim_key"), LitInt(3)))
                     .Build();
  // Equality on a column with 10 distinct values: 1000 / 10.
  EXPECT_NEAR(est.EstimateRows(plan), 100.0, 1.0);
}

TEST(CardinalityEstimatorTest, LiteralPinnedJoinKeyIsNotChargedTwice) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(Fact()).ok());
  catalog.SetTableStats(
      "fact", StatsWith(1000, {Entry(1000), Entry(10), Entry(100)}));
  // Both sides pinned to dim_key = 3 (the shape predicate transfer leaves
  // behind): 100 rows each, and every pair joins.
  PlanRef pinned = PlanBuilder::ScanSchema(Fact(), "a")
                       .Filter(Eq(Col("a.dim_key"), LitInt(3)))
                       .Join(PlanBuilder::ScanSchema(Fact(), "b")
                                 .Filter(Eq(LitInt(3), Col("b.dim_key"))),
                             JoinType::kInner,
                             Eq(Col("a.dim_key"), Col("b.dim_key")))
                       .Build();
  InferenceEngine engine;
  CardinalityEstimator est(&catalog, &engine);
  ASSERT_TRUE(est.ResolveColumn(pinned->child(0), "a.dim_key").has_value());
  EXPECT_DOUBLE_EQ(
      est.ResolveColumn(pinned->child(0), "a.dim_key")->distinct, 1.0);
  // A range filter leaves the distinct count to the row-count clamp.
  PlanRef ranged = PlanBuilder::ScanSchema(Fact(), "a")
                       .Filter(Bin(BinaryOpKind::kGreater, Col("a.dim_key"),
                                   LitInt(3)))
                       .Build();
  EXPECT_GT(est.ResolveColumn(ranged, "a.dim_key")->distinct, 1.0);
  // 100 · 100 / 1, not 100 · 100 / 10.
  EXPECT_NEAR(est.EstimateRows(pinned), 10000.0, 1.0);
}

TEST(CardinalityEstimatorTest, JoinPriorityDeclaredThenUniqueThenDistinct) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(Fact()).ok());
  ASSERT_TRUE(catalog.RegisterTable(Dim()).ok());
  catalog.SetTableStats(
      "fact", StatsWith(1000, {Entry(1000), Entry(10), Entry(100)}));
  catalog.SetTableStats("dim", StatsWith(50, {Entry(50), Entry(50)}));

  // Declared to-one: exactly the left rows.
  PlanRef declared = PlanBuilder::ScanSchema(Fact(), "f")
                         .Join(PlanBuilder::ScanSchema(Dim(), "d"),
                               JoinType::kInner,
                               Eq(Col("f.dim_key"), Col("d.k")),
                               DeclaredCardinality::kExactOne)
                         .Build();
  {
    InferenceEngine engine;
    CardinalityEstimator est(&catalog, &engine);
    EXPECT_DOUBLE_EQ(est.EstimateRows(declared), 1000.0);
  }

  // Undeclared join on dim's primary key: the inference lattice caps the
  // output at the fact side even though dim's distinct count (50) alone
  // would give 1000·50/50 = 1000 too; shrink dim stats to prove the cap
  // is what binds.
  catalog.SetTableStats("dim", StatsWith(50, {Entry(2), Entry(2)}));
  PlanRef undeclared = PlanBuilder::ScanSchema(Fact(), "f")
                           .Join(PlanBuilder::ScanSchema(Dim(), "d"),
                                 JoinType::kInner,
                                 Eq(Col("f.dim_key"), Col("d.k")))
                           .Build();
  {
    InferenceEngine engine;
    CardinalityEstimator est(&catalog, &engine);
    // Distinct rule alone: 1000·50/max(10,2) = 5000; unique cap: 1000.
    EXPECT_DOUBLE_EQ(est.EstimateRows(undeclared), 1000.0);
  }
  {
    CardinalityEstimator est(&catalog, /*engine=*/nullptr);
    EXPECT_DOUBLE_EQ(est.EstimateRows(undeclared), 5000.0);
  }
}

TEST(CardinalityEstimatorTest, AnnotateCoversEveryNodeAndPrints) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(Fact()).ok());
  ASSERT_TRUE(catalog.RegisterTable(Dim()).ok());
  catalog.SetTableStats("fact", StatsWith(1000));
  catalog.SetTableStats("dim", StatsWith(50));
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .Join(PlanBuilder::ScanSchema(Dim(), "d"),
                           JoinType::kInner, Eq(Col("f.dim_key"), Col("d.k")))
                     .Filter(Eq(Col("f.amount"), LitInt(7)))
                     .Build();
  InferenceEngine engine;
  CardinalityEstimator est(&catalog, &engine);
  PlanEstimates estimates;
  PlanEstimate root = est.Annotate(plan, &estimates);
  EXPECT_GT(root.rows, 0.0);
  EXPECT_GT(root.cost, 0.0);
  // Every node in the tree got an entry.
  std::vector<const LogicalOp*> todo = {plan.get()};
  while (!todo.empty()) {
    const LogicalOp* node = todo.back();
    todo.pop_back();
    EXPECT_NE(estimates.find(node->id()), estimates.end())
        << "missing estimate for " << node->Describe();
    for (const PlanRef& child : node->children()) todo.push_back(child.get());
  }
  // Cost accumulates: the root cost is at least any child's cost.
  for (const auto& [id, e] : estimates) {
    EXPECT_LE(e.cost, root.cost * (1.0 + 1e-9));
  }
  std::string printed = PrintPlan(plan, &estimates);
  EXPECT_NE(printed.find("[est rows="), std::string::npos);
}

TEST(CardinalityEstimatorTest, MemoKeysNodesNotIds) {
  // WithChildren keeps the filter's id while doubling its input; one
  // estimator (and its shared engine) must estimate both versions.
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(Fact()).ok());
  catalog.SetTableStats("fact", StatsWith(1000));
  PlanRef scan = PlanBuilder::ScanSchema(Fact(), "f").Build();
  PlanRef filter = std::make_shared<FilterOp>(
      scan, Eq(Col("f.amount"), LitInt(7)));
  PlanRef doubled = filter->WithChildren({std::make_shared<UnionAllOp>(
      std::vector<PlanRef>{scan, scan}, scan->OutputNames())});
  ASSERT_EQ(doubled->id(), filter->id());

  InferenceEngine engine;
  CardinalityEstimator est(&catalog, &engine);
  const double single = est.EstimateRows(filter);
  const double twice = est.EstimateRows(doubled);
  EXPECT_DOUBLE_EQ(twice, 2.0 * single);
  InferenceEngine fresh_engine;
  CardinalityEstimator fresh(&catalog, &fresh_engine);
  EXPECT_DOUBLE_EQ(fresh.EstimateRows(doubled), twice);
  // The scan's key holds on the filter, not on the doubled input.
  EXPECT_TRUE(est.UniqueOn(filter, {"f.id"}));
  EXPECT_FALSE(est.UniqueOn(doubled, {"f.id"}));
}

// --- collection + end-to-end q-error ---------------------------------------

class StatsDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("create table f (id int primary key, dk int, "
                            "amt int)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("create table d (k int primary key, name varchar)").ok());
    std::vector<std::vector<Value>> frows;
    for (int64_t i = 0; i < 200; ++i) {
      frows.push_back(
          {Value::Int64(i), Value::Int64(i % 10), Value::Int64(i % 100)});
    }
    ASSERT_TRUE(db_.Insert("f", frows).ok());
    std::vector<std::vector<Value>> drows;
    for (int64_t k = 0; k < 10; ++k) {
      drows.push_back({Value::Int64(k), Value::String("n" + std::to_string(k))});
    }
    ASSERT_TRUE(db_.Insert("d", drows).ok());
    db_.MergeAllDeltas();
    db_.AnalyzeTables();
  }

  double QError(const std::string& sql) {
    Result<PlanRef> plan = db_.PlanQuery(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    InferenceEngine engine;
    CardinalityEstimator est(&db_.catalog(), &engine);
    const double predicted = est.EstimateRows(*plan);
    Result<Chunk> result = db_.Query(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    const double actual =
        std::max(1.0, static_cast<double>(result->NumRows()));
    const double p = std::max(1.0, predicted);
    return std::max(p / actual, actual / p);
  }

  Database db_;
};

TEST_F(StatsDatabaseTest, AnalyzeCollectsExactCounts) {
  const std::shared_ptr<const TableStats> fs = db_.catalog().FindTableStats("f");
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->row_count, 200u);
  ASSERT_EQ(fs->columns.size(), 3u);
  EXPECT_EQ(fs->columns[0].distinct_count, 200u);  // id
  EXPECT_EQ(fs->columns[1].distinct_count, 10u);   // dk
  EXPECT_EQ(fs->columns[2].distinct_count, 100u);  // amt
  ASSERT_TRUE(fs->columns[2].has_minmax);
  EXPECT_EQ(fs->columns[2].min_i64, 0);
  EXPECT_EQ(fs->columns[2].max_i64, 99);
  const std::shared_ptr<const TableStats> ds = db_.catalog().FindTableStats("d");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->row_count, 10u);
  ASSERT_EQ(ds->columns.size(), 2u);
  // String distinct count comes from the sorted main dictionary.
  EXPECT_EQ(ds->columns[1].distinct_count, 10u);
}

TEST_F(StatsDatabaseTest, MicroQueryQErrorStaysTight) {
  // Equi join on the declared-size key: estimate within 2x of actual.
  EXPECT_LE(QError("select f.id, d.name from f join d on f.dk = d.k"), 2.0);
  // Equality filter on a 10-distinct column.
  EXPECT_LE(QError("select id from f where dk = 3"), 2.0);
  // Range filter with min/max stats.
  EXPECT_LE(QError("select id from f where amt < 50"), 3.0);
}

TEST_F(StatsDatabaseTest, StatsRefreshInvalidatesPlanCache) {
  db_.EnablePlanCache();
  const std::string sql = "select id from f where dk = 3";
  QueryTiming timing;
  ASSERT_TRUE(db_.Query(sql, nullptr, &timing).ok());
  ASSERT_TRUE(db_.Query(sql, nullptr, &timing).ok());
  EXPECT_TRUE(timing.cache_hit);
  // A stats refresh bumps the table's stats version, so the cached plan
  // (which recorded it) must not be served again.
  db_.AnalyzeTables();
  ASSERT_TRUE(db_.Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);
  ASSERT_TRUE(db_.Query(sql, nullptr, &timing).ok());
  EXPECT_TRUE(timing.cache_hit);
}

TEST(StatsKnobTest, VdmStatsZeroDegradesToRowCounts) {
  ::setenv("VDM_STATS", "0", 1);
  {
    Database db;
    ASSERT_TRUE(db.Execute("create table t (a int, s varchar)").ok());
    ASSERT_TRUE(db.Insert("t", {{Value::Int64(1), Value::String("x")},
                                {Value::Int64(2), Value::String("y")}})
                    .ok());
    db.MergeAllDeltas();
    db.AnalyzeTables();
    const std::shared_ptr<const TableStats> stats = db.catalog().FindTableStats("t");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->row_count, 2u);
    EXPECT_TRUE(stats->columns.empty());  // degraded: no per-column stats
  }
  ::unsetenv("VDM_STATS");
}

TEST(StatsKnobTest, VdmJoinReorderEnvOverridesProfile) {
  ::setenv("VDM_JOIN_REORDER", "0", 1);
  {
    Database db;
    EXPECT_FALSE(db.optimizer_config().join_reordering);
    // The override re-applies on profile switches...
    db.SetProfile(SystemProfile::kHana);
    EXPECT_FALSE(db.optimizer_config().join_reordering);
    // ...but an explicit config is taken verbatim.
    OptimizerConfig config = ConfigForProfile(SystemProfile::kHana);
    config.join_reordering = true;
    db.SetOptimizerConfig(config);
    EXPECT_TRUE(db.optimizer_config().join_reordering);
  }
  ::unsetenv("VDM_JOIN_REORDER");
}

}  // namespace
}  // namespace vdm

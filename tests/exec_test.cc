// Unit tests for the executor operators: joins (hash, nested loop,
// residuals, null keys), aggregation (including DISTINCT and expressions
// over aggregates), sort stability, union coercion, limit/offset, metrics.
#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "plan/plan_builder.h"

namespace vdm {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema left("l");
    left.AddColumn("k", DataType::Int64())
        .AddColumn("v", DataType::String());
    ASSERT_TRUE(storage_.CreateTable(left).ok());
    Table* lt = storage_.FindTable("l");
    ASSERT_TRUE(
        lt->AppendRow({Value::Int64(1), Value::String("a")}).ok());
    ASSERT_TRUE(
        lt->AppendRow({Value::Int64(2), Value::String("b")}).ok());
    ASSERT_TRUE(
        lt->AppendRow({Value::Int64(2), Value::String("c")}).ok());
    ASSERT_TRUE(lt->AppendRow({Value::Null(), Value::String("d")}).ok());

    TableSchema right("r");
    right.AddColumn("k", DataType::Int64())
        .AddColumn("w", DataType::Int64());
    ASSERT_TRUE(storage_.CreateTable(right).ok());
    Table* rt = storage_.FindTable("r");
    ASSERT_TRUE(rt->AppendRow({Value::Int64(2), Value::Int64(20)}).ok());
    ASSERT_TRUE(rt->AppendRow({Value::Int64(2), Value::Int64(21)}).ok());
    ASSERT_TRUE(rt->AppendRow({Value::Int64(3), Value::Int64(30)}).ok());
    ASSERT_TRUE(rt->AppendRow({Value::Null(), Value::Int64(40)}).ok());

    left_schema_ = left;
    right_schema_ = right;
  }

  /// One worker pool for the whole suite: the Executor never creates
  /// threads, and the cases should still run their morsels in parallel
  /// (tools/ci.sh runs this suite under TSan).
  static ThreadPool* Pool() {
    static ThreadPool pool(4);
    return &pool;
  }

  Chunk Run(const PlanRef& plan, ExecMetrics* metrics = nullptr) {
    Executor executor(&storage_, ExecOptions{}, Pool());
    Result<Chunk> result = executor.Execute(plan, metrics);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  StorageManager storage_;
  TableSchema left_schema_, right_schema_;
};

TEST_F(ExecTest, InnerHashJoin) {
  PlanRef plan = PlanBuilder::ScanSchema(left_schema_, "l")
                     .Join(PlanBuilder::ScanSchema(right_schema_, "r"),
                           JoinType::kInner, Eq(Col("l.k"), Col("r.k")))
                     .Build();
  Chunk result = Run(plan);
  // l has two k=2 rows, r has two k=2 rows -> 4 matches. NULLs never join.
  EXPECT_EQ(result.NumRows(), 4u);
}

TEST_F(ExecTest, LeftOuterHashJoinNullExtension) {
  PlanRef plan = PlanBuilder::ScanSchema(left_schema_, "l")
                     .Join(PlanBuilder::ScanSchema(right_schema_, "r"),
                           JoinType::kLeftOuter, Eq(Col("l.k"), Col("r.k")))
                     .Build();
  Chunk result = Run(plan);
  // 4 matched rows + k=1 and k=NULL unmatched = 6.
  EXPECT_EQ(result.NumRows(), 6u);
  int idx = result.FindColumn("r.w");
  ASSERT_GE(idx, 0);
  int nulls = 0;
  for (size_t r = 0; r < result.NumRows(); ++r) {
    if (result.columns[static_cast<size_t>(idx)].IsNull(r)) ++nulls;
  }
  EXPECT_EQ(nulls, 2);
}

TEST_F(ExecTest, LeftOuterJoinPreservesAnchorOrder) {
  PlanRef plan = PlanBuilder::ScanSchema(left_schema_, "l")
                     .Join(PlanBuilder::ScanSchema(right_schema_, "r"),
                           JoinType::kLeftOuter, Eq(Col("l.k"), Col("r.k")))
                     .Build();
  Chunk result = Run(plan);
  int v_idx = result.FindColumn("l.v");
  ASSERT_GE(v_idx, 0);
  // Probe order: a, b, b, c, c, d.
  std::vector<std::string> expected{"a", "b", "b", "c", "c", "d"};
  for (size_t r = 0; r < result.NumRows(); ++r) {
    EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[r],
              expected[r]);
  }
}

TEST_F(ExecTest, JoinWithResidualPredicate) {
  // Equi on k plus residual w > 20.
  PlanRef inner =
      PlanBuilder::ScanSchema(left_schema_, "l")
          .Join(PlanBuilder::ScanSchema(right_schema_, "r"),
                JoinType::kInner,
                And(Eq(Col("l.k"), Col("r.k")),
                    Bin(BinaryOpKind::kGreater, Col("r.w"), LitInt(20))))
          .Build();
  EXPECT_EQ(Run(inner).NumRows(), 2u);  // only w=21 survives, for both b,c
  // LOJ: rows with no surviving match revert to null extension.
  PlanRef louter =
      PlanBuilder::ScanSchema(left_schema_, "l")
          .Join(PlanBuilder::ScanSchema(right_schema_, "r"),
                JoinType::kLeftOuter,
                And(Eq(Col("l.k"), Col("r.k")),
                    Bin(BinaryOpKind::kGreater, Col("r.w"), LitInt(100))))
          .Build();
  Chunk result = Run(louter);
  EXPECT_EQ(result.NumRows(), 4u);  // every anchor row, all null-extended
  int w_idx = result.FindColumn("r.w");
  for (size_t r = 0; r < result.NumRows(); ++r) {
    EXPECT_TRUE(result.columns[static_cast<size_t>(w_idx)].IsNull(r));
  }
}

TEST_F(ExecTest, NestedLoopJoinWithoutEquiKeys) {
  PlanRef plan =
      PlanBuilder::ScanSchema(left_schema_, "l")
          .Join(PlanBuilder::ScanSchema(right_schema_, "r"),
                JoinType::kInner,
                Bin(BinaryOpKind::kLess, Col("l.k"), Col("r.w")))
          .Build();
  Chunk result = Run(plan);
  // Every non-null l.k (1,2,2) < every w (20,21,30,40) = 12 rows.
  EXPECT_EQ(result.NumRows(), 12u);
}

TEST_F(ExecTest, AggregateDistinctAndExpressionOverAggregates) {
  PlanRef plan =
      PlanBuilder::ScanSchema(right_schema_, "r")
          .Aggregate({},
                     {{Agg(AggKind::kCount, Col("r.k")), "cnt"},
                      {std::make_shared<AggregateExpr>(
                           AggKind::kCount, Col("r.k"), /*distinct=*/true),
                       "dcnt"},
                      {Bin(BinaryOpKind::kAdd,
                           Agg(AggKind::kSum, Col("r.w")),
                           Agg(AggKind::kMin, Col("r.w"))),
                       "sum_plus_min"}})
          .Build();
  Chunk result = Run(plan);
  ASSERT_EQ(result.NumRows(), 1u);
  EXPECT_EQ(result.columns[0].ints()[0], 3);  // count skips NULL
  EXPECT_EQ(result.columns[1].ints()[0], 2);  // distinct {2, 3}
  EXPECT_EQ(result.columns[2].ints()[0], 111 + 20);
}

TEST_F(ExecTest, AggregateEmptyInput) {
  PlanRef global = PlanBuilder::ScanSchema(left_schema_, "l")
                       .Filter(LitBool(false))
                       .Aggregate({}, {{CountStar(), "n"},
                                       {Agg(AggKind::kSum, Col("l.k")), "s"}})
                       .Build();
  Chunk result = Run(global);
  ASSERT_EQ(result.NumRows(), 1u);  // global aggregate: one row
  EXPECT_EQ(result.columns[0].ints()[0], 0);
  EXPECT_TRUE(result.columns[1].IsNull(0));  // sum of nothing is NULL
  // Grouped aggregate over empty input yields no rows.
  PlanRef grouped = PlanBuilder::ScanSchema(left_schema_, "l")
                        .Filter(LitBool(false))
                        .Aggregate({{Col("l.k"), "k"}},
                                   {{CountStar(), "n"}})
                        .Build();
  EXPECT_EQ(Run(grouped).NumRows(), 0u);
}

TEST_F(ExecTest, GroupByNullsFormOneGroup) {
  PlanRef plan = PlanBuilder::ScanSchema(right_schema_, "r")
                     .Aggregate({{Col("r.k"), "k"}}, {{CountStar(), "n"}})
                     .Build();
  Chunk result = Run(plan);
  EXPECT_EQ(result.NumRows(), 3u);  // {2}, {3}, {NULL}
}

TEST_F(ExecTest, SortIsStableAndNullsFirst) {
  PlanRef plan = PlanBuilder::ScanSchema(left_schema_, "l")
                     .Sort({{Col("l.k"), true}})
                     .Build();
  Chunk result = Run(plan);
  int v_idx = result.FindColumn("l.v");
  // NULL first, then 1, then the two k=2 rows in input order (stable).
  EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[0], "d");
  EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[1], "a");
  EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[2], "b");
  EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[3], "c");
}

TEST_F(ExecTest, SortDescending) {
  PlanRef plan = PlanBuilder::ScanSchema(right_schema_, "r")
                     .Sort({{Col("r.w"), false}})
                     .Build();
  Chunk result = Run(plan);
  EXPECT_EQ(result.columns[1].ints()[0], 40);
  EXPECT_EQ(result.columns[1].ints()[3], 20);
}

TEST_F(ExecTest, LimitAndOffset) {
  PlanRef plan = PlanBuilder::ScanSchema(right_schema_, "r")
                     .Limit(2, 1)
                     .Build();
  Chunk result = Run(plan);
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.columns[1].ints()[0], 21);
  // Offset past the end yields nothing.
  EXPECT_EQ(Run(PlanBuilder::ScanSchema(right_schema_, "r")
                    .Limit(5, 100)
                    .Build())
                .NumRows(),
            0u);
}

TEST_F(ExecTest, DistinctKeepsFirstOccurrence) {
  PlanRef plan = PlanBuilder::ScanSchema(left_schema_, "l")
                     .ProjectColumns({"l.k"}, {"k"})
                     .Distinct()
                     .Build();
  Chunk result = Run(plan);
  EXPECT_EQ(result.NumRows(), 3u);  // 1, 2, NULL
}

TEST_F(ExecTest, UnionAllTypeCoercion) {
  // int64 column unioned under a decimal-typed first child.
  PlanBuilder as_decimal =
      PlanBuilder::ScanSchema(right_schema_, "r")
          .Project({{Bin(BinaryOpKind::kMul, Col("r.w"),
                         Lit(Value::Decimal(100, 2))),
                     "x"}});
  PlanBuilder as_int = PlanBuilder::ScanSchema(right_schema_, "r")
                           .ProjectColumns({"r.w"}, {"x"});
  PlanRef plan = PlanBuilder::UnionAll({as_decimal, as_int}, {"x"}).Build();
  Chunk result = Run(plan);
  EXPECT_EQ(result.NumRows(), 8u);
  EXPECT_EQ(result.columns[0].type().id, TypeId::kDecimal);
  // The coerced int 20 equals decimal 20.00.
  EXPECT_TRUE(result.columns[0].GetValue(4).Equals(Value::Int64(20)));
}

TEST_F(ExecTest, MetricsAreCollected) {
  ExecMetrics metrics;
  PlanRef plan = PlanBuilder::ScanSchema(left_schema_, "l")
                     .Join(PlanBuilder::ScanSchema(right_schema_, "r"),
                           JoinType::kInner, Eq(Col("l.k"), Col("r.k")))
                     .Build();
  Run(plan, &metrics);
  EXPECT_EQ(metrics.rows_scanned, 8u);
  EXPECT_EQ(metrics.rows_probe_input, 4u);
  EXPECT_EQ(metrics.rows_build_input, 4u);
  EXPECT_EQ(metrics.operators_executed, 3u);
}

TEST_F(ExecTest, MissingTableFailsCleanly) {
  TableSchema ghost("ghost");
  ghost.AddColumn("x", DataType::Int64());
  PlanRef plan = PlanBuilder::ScanSchema(ghost, "g").Build();
  Executor executor(&storage_);
  Result<Chunk> result = executor.Execute(plan);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}


TEST_F(ExecTest, TopKFusionMatchesFullSort) {
  PlanRef full = PlanBuilder::ScanSchema(right_schema_, "r")
                     .Sort({{Col("r.w"), false}})
                     .Build();
  PlanRef topk = PlanBuilder::ScanSchema(right_schema_, "r")
                     .Sort({{Col("r.w"), false}})
                     .Limit(2, 1)
                     .Build();
  Chunk full_result = Run(full);
  Chunk topk_result = Run(topk);
  ASSERT_EQ(topk_result.NumRows(), 2u);
  EXPECT_EQ(topk_result.columns[1].ints()[0],
            full_result.columns[1].ints()[1]);
  EXPECT_EQ(topk_result.columns[1].ints()[1],
            full_result.columns[1].ints()[2]);
}

TEST_F(ExecTest, TopKWithTiesIsDeterministic) {
  // l has two k=2 rows; top-2 ascending with NULL first must pick the
  // NULL row then k=1, in input order on ties.
  PlanRef plan = PlanBuilder::ScanSchema(left_schema_, "l")
                     .Sort({{Col("l.k"), true}})
                     .Limit(3)
                     .Build();
  Chunk result = Run(plan);
  int v_idx = result.FindColumn("l.v");
  EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[0], "d");
  EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[1], "a");
  EXPECT_EQ(result.columns[static_cast<size_t>(v_idx)].strings()[2], "b");
}

}  // namespace
}  // namespace vdm

// Unit tests for the executor operators: joins (hash, nested loop,
// residuals, null keys), aggregation (including DISTINCT and expressions
// over aggregates), sort stability, union coercion, limit/offset, metrics,
// and compressed scan filters against the generic path.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

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

// ---------------------------------------------------------------------------
// Compressed scan filters (DESIGN.md §13): every predicate shape the
// interval-set lowering takes, and its neighbours that must stay residual,
// return byte-identical results with enable_compressed_exec on and off.

class CompressedFilterShapeTest : public ::testing::Test {
 protected:
  static constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  static constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

  void SetUp() override {
    schema_.AddColumn("id", DataType::Int64())
        .AddColumn("i", DataType::Int64())
        .AddColumn("s", DataType::String())
        .AddColumn("e", DataType::String())
        .AddColumn("d", DataType::Decimal(2))
        .AddColumn("t", DataType::Date())
        .AddColumn("b", DataType::Bool());
    ASSERT_TRUE(storage_.CreateTable(schema_).ok());
    Table* table = storage_.FindTable("p");
    // 70 rows in the main fragment, then 21 in an unmerged delta: 16-row
    // morsels cover main-only ranges (compressed) and the delta (generic).
    const int64_t ints[] = {kMin, -3, 0, 7, kMax, 42, -3, kMin + 1, kMax - 1};
    const char* strs[] = {"a", "b", "ba", "bz", "c", "zz", "b"};
    for (int64_t r = 0; r < 91; ++r) {
      if (r == 70) table->MergeDelta();
      const bool null_i = r % 5 == 4;
      const bool null_s = r % 6 == 5;
      // The delta brings a string absent from the main dictionary.
      const std::string str = r >= 70 && r % 3 == 0 ? "bb" : strs[r % 7];
      ASSERT_TRUE(
          table
              ->AppendRow(
                  {Value::Int64(r),
                   null_i ? Value::Null() : Value::Int64(ints[r % 9]),
                   null_s ? Value::Null() : Value::String(str), Value::Null(),
                   r % 4 == 3 ? Value::Null() : Value::Decimal(r * 25 - 700, 2),
                   r % 7 == 6 ? Value::Null() : Value::Date(9000 + r % 11),
                   r % 8 == 7 ? Value::Null() : Value::Bool(r % 2 == 0)})
              .ok());
    }
    ASSERT_EQ(table->PinSnapshot().main_rows(), 70u);
  }

  Result<Chunk> Run(const PlanRef& plan, bool compressed, ThreadPool* pool) {
    ExecOptions options;
    options.morsel_size = 16;
    options.enable_compressed_exec = compressed;
    Executor executor(&storage_, options, pool);
    return executor.Execute(plan);
  }

  /// Runs `Filter(pred)` (or two stacked filters) over p with the
  /// compressed path on and off, inline and on a pool, and asserts the
  /// results (or errors) are byte-identical.
  void ExpectSameResults(const std::vector<ExprRef>& filters) {
    PlanBuilder builder = PlanBuilder::ScanSchema(schema_, "p");
    std::string label;
    for (const ExprRef& f : filters) {
      builder = builder.Filter(f);
      label += f->ToString() + " ; ";
    }
    SCOPED_TRACE(label);
    PlanRef plan = builder.Build();
    static ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Result<Chunk> on = Run(plan, true, p);
      Result<Chunk> off = Run(plan, false, p);
      ASSERT_EQ(on.ok(), off.ok());
      if (!on.ok()) {
        EXPECT_EQ(on.status().ToString(), off.status().ToString());
        continue;
      }
      ASSERT_EQ(on->names, off->names);
      ASSERT_EQ(on->NumRows(), off->NumRows());
      for (size_t c = 0; c < on->NumColumns(); ++c) {
        const ColumnData& a = on->columns[c];
        const ColumnData& b = off->columns[c];
        ASSERT_EQ(a.type().id, b.type().id);
        ASSERT_EQ(a.type().scale, b.type().scale);
        for (size_t r = 0; r < on->NumRows(); ++r) {
          ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << on->names[c] << " " << r;
          if (a.IsNull(r)) continue;
          if (a.type().id == TypeId::kString) {
            ASSERT_EQ(a.strings()[r], b.strings()[r]);
          } else {
            ASSERT_EQ(a.ints()[r], b.ints()[r]) << on->names[c] << " " << r;
          }
        }
      }
    }
  }

  StorageManager storage_;
  TableSchema schema_{"p"};
};

ExprRef IsNull(const std::string& col, bool negated = false) {
  return std::make_shared<IsNullExpr>(Col(col), negated);
}
ExprRef Like(const std::string& col, const std::string& pattern) {
  return Func("like", {Col(col), LitStr(pattern)});
}
ExprRef Or(ExprRef l, ExprRef r) {
  return Bin(BinaryOpKind::kOr, std::move(l), std::move(r));
}

TEST_F(CompressedFilterShapeTest, EveryComparisonAgainstEveryLiteral) {
  const BinaryOpKind ops[] = {BinaryOpKind::kEq,     BinaryOpKind::kNotEq,
                              BinaryOpKind::kLess,   BinaryOpKind::kLessEq,
                              BinaryOpKind::kGreater, BinaryOpKind::kGreaterEq};
  // Present and absent strings, below and above every dictionary entry;
  // the all-NULL column has an empty dictionary.
  std::vector<std::pair<std::string, ExprRef>> cases;
  for (const char* lit : {"b", "bb", "", "a", "zz", "zzz", "bc"}) {
    cases.emplace_back("p.s", LitStr(lit));
    cases.emplace_back("p.e", LitStr(lit));
  }
  for (int64_t lit : {kMin, kMin + 1, int64_t{-3}, int64_t{1}, int64_t{7},
                      kMax - 1, kMax}) {
    cases.emplace_back("p.i", LitInt(lit));
    cases.emplace_back("p.id", LitInt(lit));
  }
  // Same-scale decimals lower; another scale or an integer stays residual.
  cases.emplace_back("p.d", Lit(Value::Decimal(-200, 2)));
  cases.emplace_back("p.d", Lit(Value::Decimal(5, 1)));
  cases.emplace_back("p.d", LitInt(3));
  cases.emplace_back("p.t", Lit(Value::Date(9005)));
  cases.emplace_back("p.b", LitBool(true));
  // A NULL literal and a string against an integer column stay residual.
  cases.emplace_back("p.i", Lit(Value::Null()));
  cases.emplace_back("p.i", LitStr("7"));
  for (const auto& [col, lit] : cases) {
    for (BinaryOpKind op : ops) {
      ExpectSameResults({Bin(op, Col(col), lit)});
      ExpectSameResults({Bin(op, lit, Col(col))});  // literal on the left
    }
  }
}

TEST_F(CompressedFilterShapeTest, NullTestsLikeAndTrees) {
  const ExprRef kmin = LitInt(kMin);
  const ExprRef kmax = LitInt(kMax);
  const std::vector<ExprRef> preds = {
      IsNull("p.i"), IsNull("p.i", true), IsNull("p.s"), IsNull("p.s", true),
      IsNull("p.e"), IsNull("p.e", true), IsNull("p.id"),
      IsNull("p.id", true), IsNull("p.d"), IsNull("p.b", true),
      Like("p.s", "b%"), Not(Like("p.s", "b%")), Like("p.s", "%"),
      Like("p.s", "x%"), Like("p.s", "b"), Like("p.e", "%"),
      Not(Like("p.e", "a%")), Like("p.s", "%a"),
      Or(Bin(BinaryOpKind::kLess, Col("p.i"), LitInt(0)), IsNull("p.i")),
      Not(Eq(Col("p.i"), LitInt(7))),
      And(Bin(BinaryOpKind::kGreater, Col("p.i"), kmin),
          Bin(BinaryOpKind::kLess, Col("p.i"), kmax)),
      Or(Eq(Col("p.i"), kmin), Eq(Col("p.i"), kmax)),
      Not(Or(Like("p.s", "b%"), Eq(Col("p.s"), LitStr("zz")))),
      Or(Or(Bin(BinaryOpKind::kLess, Col("p.s"), LitStr("b")),
            Bin(BinaryOpKind::kGreater, Col("p.s"), LitStr("c"))),
         IsNull("p.s")),
      Not(And(Bin(BinaryOpKind::kGreaterEq, Col("p.d"),
                  Lit(Value::Decimal(-300, 2))),
              IsNull("p.d", true))),
      // Tautologies over the whole domain, with and without NULL.
      Or(Bin(BinaryOpKind::kLessEq, Col("p.i"), kmax), IsNull("p.i")),
      Bin(BinaryOpKind::kGreaterEq, Col("p.i"), kmin),
      Or(IsNull("p.s"), IsNull("p.s", true)),
      Or(IsNull("p.e"), IsNull("p.e", true)),
      Bin(BinaryOpKind::kGreaterEq, Col("p.id"), kmin),
      // Contradictions.
      And(Eq(Col("p.i"), LitInt(7)), Eq(Col("p.i"), LitInt(0))),
      And(IsNull("p.s"), Eq(Col("p.s"), LitStr("b"))),
      // Trees over two columns, or mixing lowerable and residual leaves,
      // stay residual.
      Or(Eq(Col("p.i"), LitInt(7)), Eq(Col("p.s"), LitStr("b"))),
      Or(Eq(Col("p.d"), Lit(Value::Decimal(5, 1))), IsNull("p.d")),
  };
  for (const ExprRef& pred : preds) ExpectSameResults({pred});
  // Several lowered conjuncts (dense filter, then refine), beside residual
  // ones, in one filter and in stacked filters.
  for (size_t a = 0; a < preds.size(); a += 3) {
    for (size_t b = 1; b < preds.size(); b += 4) {
      ExpectSameResults({And(preds[a], preds[b])});
      ExpectSameResults({preds[a], preds[b]});
    }
  }
}

}  // namespace
}  // namespace vdm

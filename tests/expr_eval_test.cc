// Unit tests for expression evaluation, type inference, constant folding,
// and the predicate utilities the optimizer builds on.
#include <gtest/gtest.h>

#include "expr/eval.h"
#include "expr/expr.h"
#include "expr/fold.h"

namespace vdm {
namespace {

Chunk TestChunk() {
  Chunk chunk;
  chunk.names = {"i", "d", "s", "dec", "b"};
  ColumnData i(DataType::Int64());
  i.AppendInt(1);
  i.AppendInt(2);
  i.AppendNull();
  ColumnData d(DataType::Double());
  d.AppendDouble(0.5);
  d.AppendDouble(-1.5);
  d.AppendDouble(2.0);
  ColumnData s(DataType::String());
  s.AppendString("apple");
  s.AppendString("banana");
  s.AppendNull();
  ColumnData dec(DataType::Decimal(2));
  dec.AppendInt(150);   // 1.50
  dec.AppendInt(-250);  // -2.50
  dec.AppendInt(0);
  ColumnData b(DataType::Bool());
  b.AppendInt(1);
  b.AppendInt(0);
  b.AppendNull();
  chunk.columns = {std::move(i), std::move(d), std::move(s), std::move(dec),
                   std::move(b)};
  return chunk;
}

ColumnData Eval(const ExprRef& expr) {
  Chunk chunk = TestChunk();
  Result<ColumnData> result = EvalExpr(expr, chunk);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(EvalTest, IntegerArithmetic) {
  ColumnData result = Eval(Bin(BinaryOpKind::kAdd, Col("i"), LitInt(10)));
  EXPECT_EQ(result.type(), DataType::Int64());
  EXPECT_EQ(result.GetValue(0), Value::Int64(11));
  EXPECT_EQ(result.GetValue(1), Value::Int64(12));
  EXPECT_TRUE(result.IsNull(2));  // null propagates
}

TEST(EvalTest, DivisionIsDouble) {
  ColumnData result = Eval(Bin(BinaryOpKind::kDiv, Col("i"), LitInt(2)));
  EXPECT_EQ(result.type(), DataType::Double());
  EXPECT_DOUBLE_EQ(result.GetValue(0).AsDouble(), 0.5);
}

TEST(EvalTest, DivisionByZeroYieldsNull) {
  ColumnData result = Eval(Bin(BinaryOpKind::kDiv, Col("i"), LitInt(0)));
  EXPECT_TRUE(result.IsNull(0));
  EXPECT_TRUE(result.IsNull(1));
}

TEST(EvalTest, DecimalAddRescales) {
  // dec (scale 2) + 1 (int) -> decimal scale 2.
  ColumnData result = Eval(Bin(BinaryOpKind::kAdd, Col("dec"), LitInt(1)));
  EXPECT_EQ(result.type(), DataType::Decimal(2));
  EXPECT_EQ(result.GetValue(0), Value::Decimal(250, 2));   // 1.50+1=2.50
  EXPECT_EQ(result.GetValue(1), Value::Decimal(-150, 2));  // -2.50+1
}

TEST(EvalTest, DecimalMultiplyAddsScales) {
  ColumnData result =
      Eval(Bin(BinaryOpKind::kMul, Col("dec"), Lit(Value::Decimal(111, 2))));
  EXPECT_EQ(result.type(), DataType::Decimal(4));
  // 1.50 * 1.11 = 1.6650
  EXPECT_EQ(result.GetValue(0), Value::Decimal(16650, 4));
}

TEST(EvalTest, MixedDecimalDoubleIsDouble) {
  ColumnData result = Eval(Bin(BinaryOpKind::kMul, Col("dec"), Col("d")));
  EXPECT_EQ(result.type(), DataType::Double());
  EXPECT_DOUBLE_EQ(result.GetValue(0).AsDouble(), 0.75);
}

TEST(EvalTest, ComparisonNullAware) {
  ColumnData result = Eval(Bin(BinaryOpKind::kGreater, Col("i"), LitInt(1)));
  EXPECT_EQ(result.GetValue(0), Value::Bool(false));
  EXPECT_EQ(result.GetValue(1), Value::Bool(true));
  EXPECT_TRUE(result.IsNull(2));
}

TEST(EvalTest, StringComparison) {
  ColumnData result =
      Eval(Bin(BinaryOpKind::kLess, Col("s"), LitStr("azz")));
  EXPECT_EQ(result.GetValue(0), Value::Bool(true));   // apple < azz
  EXPECT_EQ(result.GetValue(1), Value::Bool(false));  // banana > azz
  EXPECT_TRUE(result.IsNull(2));
}

TEST(EvalTest, StringVsNumberIsTypeError) {
  Chunk chunk = TestChunk();
  Result<ColumnData> result =
      EvalExpr(Bin(BinaryOpKind::kEq, Col("s"), LitInt(1)), chunk);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

TEST(EvalTest, ThreeValuedAnd) {
  // b AND true: {true, false, null} -> {true, false, null}
  ColumnData and_true = Eval(And(Col("b"), LitBool(true)));
  EXPECT_EQ(and_true.GetValue(0), Value::Bool(true));
  EXPECT_EQ(and_true.GetValue(1), Value::Bool(false));
  EXPECT_TRUE(and_true.IsNull(2));
  // b AND false is false even for NULL (Kleene).
  ColumnData and_false = Eval(And(Col("b"), LitBool(false)));
  EXPECT_EQ(and_false.GetValue(2), Value::Bool(false));
}

TEST(EvalTest, ThreeValuedOr) {
  ColumnData or_true = Eval(Bin(BinaryOpKind::kOr, Col("b"), LitBool(true)));
  EXPECT_EQ(or_true.GetValue(2), Value::Bool(true));  // NULL OR true = true
  ColumnData or_false =
      Eval(Bin(BinaryOpKind::kOr, Col("b"), LitBool(false)));
  EXPECT_TRUE(or_false.IsNull(2));  // NULL OR false = NULL
}

TEST(EvalTest, NotAndNegate) {
  ColumnData not_b = Eval(Not(Col("b")));
  EXPECT_EQ(not_b.GetValue(0), Value::Bool(false));
  EXPECT_EQ(not_b.GetValue(1), Value::Bool(true));
  EXPECT_TRUE(not_b.IsNull(2));
  ColumnData neg = Eval(std::make_shared<UnaryExpr>(UnaryOpKind::kNegate,
                                                    Col("dec")));
  EXPECT_EQ(neg.GetValue(0), Value::Decimal(-150, 2));
}

TEST(EvalTest, IsNull) {
  ColumnData is_null =
      Eval(std::make_shared<IsNullExpr>(Col("i"), /*negated=*/false));
  EXPECT_EQ(is_null.GetValue(0), Value::Bool(false));
  EXPECT_EQ(is_null.GetValue(2), Value::Bool(true));
  ColumnData not_null =
      Eval(std::make_shared<IsNullExpr>(Col("i"), /*negated=*/true));
  EXPECT_EQ(not_null.GetValue(2), Value::Bool(false));
}

TEST(EvalTest, RoundDecimalExact) {
  ColumnData result = Eval(Func("round", {Col("dec"), LitInt(1)}));
  EXPECT_EQ(result.type(), DataType::Decimal(1));
  EXPECT_EQ(result.GetValue(0), Value::Decimal(15, 1));   // 1.50 -> 1.5
  EXPECT_EQ(result.GetValue(1), Value::Decimal(-25, 1));  // -2.50 -> -2.5
}

TEST(EvalTest, RoundDouble) {
  ColumnData result = Eval(Func("round", {Col("d"), LitInt(0)}));
  EXPECT_EQ(result.type(), DataType::Double());
  EXPECT_DOUBLE_EQ(result.GetValue(0).AsDouble(), 1.0);   // 0.5 -> 1
  EXPECT_DOUBLE_EQ(result.GetValue(1).AsDouble(), -2.0);  // -1.5 -> -2
}

TEST(EvalTest, CoalesceAndCase) {
  ColumnData coalesced = Eval(Func("coalesce", {Col("i"), LitInt(-1)}));
  EXPECT_EQ(coalesced.GetValue(2), Value::Int64(-1));
  ExprRef case_expr = std::make_shared<CaseExpr>(std::vector<ExprRef>{
      Bin(BinaryOpKind::kGreater, Col("d"), Lit(Value::Double(0))),
      LitStr("pos"), LitStr("neg")});
  ColumnData cased = Eval(case_expr);
  EXPECT_EQ(cased.GetValue(0), Value::String("pos"));
  EXPECT_EQ(cased.GetValue(1), Value::String("neg"));
}

TEST(EvalTest, ComparisonAgainstLiteralOperands) {
  // The literal is evaluated once and read for every row, on either side.
  ColumnData lit_left = Eval(Bin(BinaryOpKind::kLess, LitInt(1), Col("i")));
  EXPECT_EQ(lit_left.GetValue(0), Value::Bool(false));
  EXPECT_EQ(lit_left.GetValue(1), Value::Bool(true));
  EXPECT_TRUE(lit_left.IsNull(2));
  // Mixed int/double compares by value, both ways round.
  ColumnData int_vs_double =
      Eval(Bin(BinaryOpKind::kGreaterEq, Col("i"), Lit(Value::Double(1.5))));
  EXPECT_EQ(int_vs_double.GetValue(0), Value::Bool(false));
  EXPECT_EQ(int_vs_double.GetValue(1), Value::Bool(true));
  EXPECT_TRUE(int_vs_double.IsNull(2));
  ColumnData double_vs_int =
      Eval(Bin(BinaryOpKind::kEq, Col("d"), LitInt(2)));
  EXPECT_EQ(double_vs_int.GetValue(0), Value::Bool(false));
  EXPECT_EQ(double_vs_int.GetValue(2), Value::Bool(true));
  ColumnData dec_vs_int = Eval(Bin(BinaryOpKind::kLess, Col("dec"), LitInt(0)));
  EXPECT_EQ(dec_vs_int.GetValue(0), Value::Bool(false));
  EXPECT_EQ(dec_vs_int.GetValue(1), Value::Bool(true));
  ColumnData str = Eval(Bin(BinaryOpKind::kNotEq, LitStr("apple"), Col("s")));
  EXPECT_EQ(str.GetValue(0), Value::Bool(false));
  EXPECT_EQ(str.GetValue(1), Value::Bool(true));
  EXPECT_TRUE(str.IsNull(2));
  // A NULL literal makes every row NULL; two literals still give n rows.
  ColumnData null_lit = Eval(Bin(BinaryOpKind::kEq, Col("i"), Lit(Value::Null())));
  ASSERT_EQ(null_lit.size(), 3u);
  for (size_t r = 0; r < 3; ++r) EXPECT_TRUE(null_lit.IsNull(r));
  ColumnData both = Eval(Bin(BinaryOpKind::kLess, LitInt(1), LitInt(2)));
  ASSERT_EQ(both.size(), 3u);
  EXPECT_EQ(both.GetValue(2), Value::Bool(true));
  // Column against column (no literal) keeps the row-wise path.
  ColumnData cols = Eval(Bin(BinaryOpKind::kGreater, Col("d"), Col("i")));
  EXPECT_EQ(cols.GetValue(0), Value::Bool(false));
  EXPECT_EQ(cols.GetValue(1), Value::Bool(false));
  EXPECT_TRUE(cols.IsNull(2));
  // String against a number literal stays a TypeError, either side.
  Chunk chunk = TestChunk();
  EXPECT_EQ(EvalExpr(Bin(BinaryOpKind::kEq, LitInt(1), Col("s")), chunk)
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST(EvalTest, CoalesceTypedPaths) {
  // Integer column, integer literal: NULL rows take the literal.
  ColumnData ints = Eval(Func("coalesce", {Col("i"), LitInt(7)}));
  EXPECT_EQ(ints.type(), DataType::Int64());
  EXPECT_EQ(ints.GetValue(0), Value::Int64(1));
  EXPECT_EQ(ints.GetValue(2), Value::Int64(7));
  EXPECT_FALSE(ints.HasNulls());
  // Two columns: the first non-NULL per row; all NULL stays NULL.
  ColumnData two = Eval(Func("coalesce", {Col("i"), Col("b")}));
  EXPECT_EQ(two.GetValue(1), Value::Int64(2));
  EXPECT_TRUE(two.IsNull(2));
  // Mixed int/double converts to the first argument's type by value.
  ColumnData int_first =
      Eval(Func("coalesce", {Col("i"), Lit(Value::Double(2.5))}));
  EXPECT_EQ(int_first.type(), DataType::Int64());
  EXPECT_EQ(int_first.GetValue(2), Value::Int64(3));  // rounds half away
  ColumnData double_first =
      Eval(Func("coalesce", {Lit(Value::Null()), Col("d")}));
  EXPECT_EQ(double_first.type(), DataType::Int64());
  EXPECT_EQ(double_first.GetValue(1), Value::Int64(-2));
  ColumnData to_double =
      Eval(Func("coalesce", {Col("d"), Col("i")}));
  EXPECT_EQ(to_double.type(), DataType::Double());
  EXPECT_DOUBLE_EQ(to_double.GetValue(0).AsDouble(), 0.5);
  // Decimals rescale integer arguments.
  ColumnData dec = Eval(Func("coalesce", {Col("dec"), LitInt(5)}));
  EXPECT_EQ(dec.type(), DataType::Decimal(2));
  EXPECT_EQ(dec.GetValue(0), Value::Decimal(150, 2));
  // Strings, with a NULL row falling through to the literal.
  ColumnData strs = Eval(Func("coalesce", {Col("s"), LitStr("none")}));
  EXPECT_EQ(strs.GetValue(1), Value::String("banana"));
  EXPECT_EQ(strs.GetValue(2), Value::String("none"));
  // String mixed with a number is a TypeError.
  Chunk chunk = TestChunk();
  EXPECT_EQ(EvalExpr(Func("coalesce", {Col("s"), LitInt(0)}), chunk)
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST(EvalTest, StringFunctions) {
  ColumnData upper = Eval(Func("upper", {Col("s")}));
  EXPECT_EQ(upper.GetValue(0), Value::String("APPLE"));
  EXPECT_TRUE(upper.IsNull(2));
  ColumnData concat = Eval(Func("concat", {Col("s"), LitStr("!")}));
  EXPECT_EQ(concat.GetValue(1), Value::String("banana!"));
}

TEST(EvalTest, UnknownColumnAndFunctionErrors) {
  Chunk chunk = TestChunk();
  EXPECT_EQ(EvalExpr(Col("nope"), chunk).status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(EvalExpr(Func("nope", {Col("i")}), chunk).status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(EvalExpr(Agg(AggKind::kSum, Col("i")), chunk).status().code(),
            StatusCode::kExecutionError);
}

// --- type inference ---------------------------------------------------------

TEST(InferTypeTest, Basics) {
  TypeEnv env{{"i", DataType::Int64()},
              {"dec", DataType::Decimal(2)},
              {"d", DataType::Double()}};
  EXPECT_EQ(*InferType(Bin(BinaryOpKind::kAdd, Col("i"), Col("i")), env),
            DataType::Int64());
  EXPECT_EQ(*InferType(Bin(BinaryOpKind::kMul, Col("dec"), Col("dec")), env),
            DataType::Decimal(4));
  EXPECT_EQ(*InferType(Bin(BinaryOpKind::kDiv, Col("i"), Col("i")), env),
            DataType::Double());
  EXPECT_EQ(*InferType(Bin(BinaryOpKind::kEq, Col("i"), Col("d")), env),
            DataType::Bool());
  EXPECT_EQ(*InferType(Agg(AggKind::kSum, Col("dec")), env),
            DataType::Decimal(2));
  EXPECT_EQ(*InferType(Agg(AggKind::kAvg, Col("i")), env),
            DataType::Double());
  EXPECT_EQ(*InferType(CountStar(), env), DataType::Int64());
  EXPECT_FALSE(InferType(Col("missing"), env).ok());
}

// --- fold / predicate utilities ---------------------------------------------

TEST(FoldTest, SplitConjuncts) {
  ExprRef pred = And(And(Eq(Col("a"), LitInt(1)), Eq(Col("b"), LitInt(2))),
                     Eq(Col("c"), LitInt(3)));
  std::vector<ExprRef> conjuncts = SplitConjuncts(pred);
  ASSERT_EQ(conjuncts.size(), 3u);
}

TEST(FoldTest, ConstantFolding) {
  EXPECT_TRUE(IsAlwaysTrue(Eq(LitInt(1), LitInt(1))));
  EXPECT_TRUE(IsAlwaysFalse(Eq(LitInt(1), LitInt(0))));
  EXPECT_TRUE(IsAlwaysFalse(And(Eq(Col("x"), LitInt(1)), LitBool(false))));
  EXPECT_TRUE(IsAlwaysTrue(
      Bin(BinaryOpKind::kOr, LitBool(true), Eq(Col("x"), LitInt(1)))));
  EXPECT_FALSE(IsAlwaysFalse(Eq(Col("x"), LitInt(1))));
  // AND with TRUE simplifies away.
  ExprRef folded = FoldConstants(And(LitBool(true), Eq(Col("x"), LitInt(1))));
  EXPECT_TRUE(folded->Equals(*Eq(Col("x"), LitInt(1))));
}

TEST(FoldTest, MatchColumnEqConstant) {
  auto match = MatchColumnEqConstant(Eq(Col("x"), LitInt(5)));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->column, "x");
  EXPECT_EQ(match->value, Value::Int64(5));
  // Reversed order.
  match = MatchColumnEqConstant(Eq(LitStr("v"), Col("y")));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->column, "y");
  EXPECT_FALSE(MatchColumnEqConstant(Eq(Col("x"), Col("y"))).has_value());
  EXPECT_FALSE(
      MatchColumnEqConstant(Bin(BinaryOpKind::kLess, Col("x"), LitInt(1)))
          .has_value());
}

TEST(FoldTest, MatchColumnEqColumn) {
  auto match = MatchColumnEqColumn(Eq(Col("a"), Col("b")));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->left, "a");
  EXPECT_EQ(match->right, "b");
  EXPECT_FALSE(MatchColumnEqColumn(Eq(Col("a"), LitInt(1))).has_value());
}

TEST(FoldTest, ConjunctsSubsume) {
  std::vector<ExprRef> strong{Eq(Col("a"), LitInt(1)),
                              Eq(Col("b"), LitInt(2))};
  std::vector<ExprRef> weak{Eq(Col("a"), LitInt(1))};
  EXPECT_TRUE(ConjunctsSubsume(strong, weak));
  EXPECT_FALSE(ConjunctsSubsume(weak, strong));
  EXPECT_TRUE(ConjunctsSubsume({}, {}));  // empty subsumes empty
  EXPECT_TRUE(ConjunctsSubsume(weak, {LitBool(true)}));  // trivial conjunct
}

TEST(ExprUtilTest, CollectAndReferences) {
  ExprRef expr = And(Eq(Col("a"), Col("b")), Eq(Col("a"), LitInt(1)));
  std::vector<std::string> refs;
  CollectColumnRefs(expr, &refs);
  EXPECT_EQ(refs.size(), 2u);  // deduplicated
  EXPECT_TRUE(ReferencesAny(expr, {"a"}));
  EXPECT_FALSE(ReferencesAny(expr, {"c"}));
  EXPECT_TRUE(ReferencesOnly(expr, {"a", "b", "c"}));
  EXPECT_FALSE(ReferencesOnly(expr, {"a"}));
}

TEST(ExprUtilTest, RemapColumns) {
  ExprRef expr = Eq(Col("a"), Col("b"));
  ExprRef remapped = RemapColumns(expr, [](const std::string& name) {
    return name == "a" ? Col("x") : nullptr;
  });
  EXPECT_TRUE(remapped->Equals(*Eq(Col("x"), Col("b"))));
}

TEST(ExprUtilTest, StructuralEquality) {
  EXPECT_TRUE(Eq(Col("a"), LitInt(1))->Equals(*Eq(Col("a"), LitInt(1))));
  EXPECT_FALSE(Eq(Col("a"), LitInt(1))->Equals(*Eq(Col("a"), LitInt(2))));
  EXPECT_FALSE(Eq(Col("a"), LitInt(1))
                   ->Equals(*Bin(BinaryOpKind::kLess, Col("a"), LitInt(1))));
  EXPECT_TRUE(Agg(AggKind::kSum, Col("x"))
                  ->Equals(*Agg(AggKind::kSum, Col("x"))));
  EXPECT_FALSE(Agg(AggKind::kSum, Col("x"))
                   ->Equals(*Agg(AggKind::kMin, Col("x"))));
}

TEST(ExprUtilTest, ContainsAggregate) {
  EXPECT_TRUE(ContainsAggregate(
      Bin(BinaryOpKind::kAdd, Agg(AggKind::kSum, Col("x")), LitInt(1))));
  EXPECT_FALSE(ContainsAggregate(Eq(Col("a"), Col("b"))));
}

}  // namespace
}  // namespace vdm

#include "expr/eval.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "types/date_util.h"

namespace vdm {

namespace {

bool IsArithmetic(BinaryOpKind op) {
  switch (op) {
    case BinaryOpKind::kAdd:
    case BinaryOpKind::kSub:
    case BinaryOpKind::kMul:
    case BinaryOpKind::kDiv:
      return true;
    default:
      return false;
  }
}

bool IsComparison(BinaryOpKind op) {
  switch (op) {
    case BinaryOpKind::kEq:
    case BinaryOpKind::kNotEq:
    case BinaryOpKind::kLess:
    case BinaryOpKind::kLessEq:
    case BinaryOpKind::kGreater:
    case BinaryOpKind::kGreaterEq:
      return true;
    default:
      return false;
  }
}

/// Result type of an arithmetic operation on two numeric types.
Result<DataType> CombineNumeric(BinaryOpKind op, const DataType& l,
                                const DataType& r) {
  if (!l.IsNumeric() || !r.IsNumeric()) {
    return Status::TypeError("arithmetic on non-numeric types " +
                             l.ToString() + ", " + r.ToString());
  }
  if (op == BinaryOpKind::kDiv) return DataType::Double();
  if (l.id == TypeId::kDouble || r.id == TypeId::kDouble) {
    return DataType::Double();
  }
  if (l.id == TypeId::kDecimal || r.id == TypeId::kDecimal) {
    uint8_t ls = l.id == TypeId::kDecimal ? l.scale : 0;
    uint8_t rs = r.id == TypeId::kDecimal ? r.scale : 0;
    if (op == BinaryOpKind::kMul) {
      return DataType::Decimal(static_cast<uint8_t>(ls + rs));
    }
    return DataType::Decimal(std::max(ls, rs));
  }
  return DataType::Int64();
}

/// Converts a column element to double (decimal scaled down).
inline double AsDoubleAt(const ColumnData& col, size_t i) {
  switch (col.type().id) {
    case TypeId::kDouble:
      return col.doubles()[i];
    case TypeId::kDecimal:
      return static_cast<double>(col.ints()[i]) /
             static_cast<double>(DecimalPow10(col.type().scale));
    default:
      return static_cast<double>(col.ints()[i]);
  }
}

/// Converts a column element to an unscaled int64 at the target scale.
inline int64_t AsUnscaledAt(const ColumnData& col, size_t i,
                            uint8_t target_scale) {
  uint8_t from = col.type().id == TypeId::kDecimal ? col.type().scale : 0;
  int64_t v = col.ints()[i];
  if (from == target_scale) return v;
  VDM_DCHECK(from < target_scale);
  return v * DecimalPow10(static_cast<uint8_t>(target_scale - from));
}

}  // namespace

int64_t RoundUnscaled(int64_t unscaled, uint8_t from_scale,
                      uint8_t to_scale) {
  if (to_scale >= from_scale) {
    return unscaled * DecimalPow10(static_cast<uint8_t>(to_scale - from_scale));
  }
  int64_t p = DecimalPow10(static_cast<uint8_t>(from_scale - to_scale));
  int64_t q = unscaled / p;
  int64_t rem = unscaled % p;
  if (rem * 2 >= p) q += 1;
  if (-rem * 2 >= p) q -= 1;
  return q;
}

int64_t YearFromDays(int64_t days) { return CivilFromDays(days).year; }

int64_t MonthFromDays(int64_t days) { return CivilFromDays(days).month; }

Result<DataType> InferType(const ExprRef& expr, const TypeEnv& env) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      const std::string& name =
          static_cast<const ColumnRefExpr&>(*expr).name();
      auto it = env.find(name);
      if (it == env.end()) {
        return Status::BindError("unknown column: " + name);
      }
      return it->second;
    }
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*expr).value();
      return v.is_null() ? DataType::Int64() : v.type();
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*expr);
      VDM_ASSIGN_OR_RETURN(DataType lt, InferType(bin.left(), env));
      VDM_ASSIGN_OR_RETURN(DataType rt, InferType(bin.right(), env));
      if (IsArithmetic(bin.op())) return CombineNumeric(bin.op(), lt, rt);
      return DataType::Bool();
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(*expr);
      if (un.op() == UnaryOpKind::kNot) return DataType::Bool();
      return InferType(un.operand(), env);
    }
    case ExprKind::kFunction: {
      const auto& fn = static_cast<const FunctionExpr&>(*expr);
      if (fn.name() == "round") {
        VDM_ASSIGN_OR_RETURN(DataType at, InferType(fn.children()[0], env));
        if (at.id == TypeId::kDecimal) {
          int64_t digits = 0;
          if (fn.children().size() > 1 &&
              fn.children()[1]->kind() == ExprKind::kLiteral) {
            digits = static_cast<const LiteralExpr&>(*fn.children()[1])
                         .value()
                         .AsInt64();
          }
          return DataType::Decimal(static_cast<uint8_t>(
              std::clamp<int64_t>(digits, 0, at.scale)));
        }
        return DataType::Double();
      }
      if (fn.name() == "coalesce" || fn.name() == "abs") {
        return InferType(fn.children()[0], env);
      }
      if (fn.name() == "concat" || fn.name() == "upper" ||
          fn.name() == "lower") {
        return DataType::String();
      }
      if (fn.name() == "year" || fn.name() == "month") {
        return DataType::Int64();
      }
      if (fn.name() == "like") {
        return DataType::Bool();
      }
      return Status::BindError("unknown function: " + fn.name());
    }
    case ExprKind::kAggregate: {
      const auto& agg = static_cast<const AggregateExpr&>(*expr);
      switch (agg.agg()) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          return DataType::Int64();
        case AggKind::kAvg:
          return DataType::Double();
        case AggKind::kSum: {
          VDM_ASSIGN_OR_RETURN(DataType at, InferType(agg.arg(), env));
          if (at.id == TypeId::kDecimal || at.id == TypeId::kInt64) return at;
          return DataType::Double();
        }
        case AggKind::kMin:
        case AggKind::kMax:
          return InferType(agg.arg(), env);
      }
      return Status::Internal("unreachable");
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(*expr);
      return InferType(c.Then(0), env);
    }
    case ExprKind::kIsNull:
      return DataType::Bool();
    case ExprKind::kMacroRef:
      return Status::BindError(
          "expression macro not expanded: " + expr->ToString());
    case ExprKind::kParam:
      return static_cast<const ParamExpr&>(*expr).type();
  }
  return Status::Internal("unreachable");
}

namespace {

Result<ColumnData> Eval(const ExprRef& expr, const Chunk& input);

/// An evaluated operand of a binary operator or function. A literal is
/// evaluated once, to a one-row column read at row 0 for every input row,
/// instead of being broadcast to n rows; a bare column reference borrows
/// the input's column instead of copying it.
struct Operand {
  const ColumnData* borrowed = nullptr;
  ColumnData owned;
  size_t stride = 1;  // 0 for a literal

  const ColumnData& col() const { return borrowed ? *borrowed : owned; }
  /// The operand's row for input row i.
  size_t At(size_t i) const { return i * stride; }
  bool IsNull(size_t i) const { return col().IsNull(At(i)); }
};

Result<Operand> EvalOperand(const ExprRef& expr, const Chunk& input) {
  Operand op;
  if (expr->kind() == ExprKind::kColumnRef) {
    const std::string& name =
        static_cast<const ColumnRefExpr&>(*expr).name();
    int idx = input.FindColumn(name);
    if (idx < 0) return Status::BindError("unknown column: " + name);
    op.borrowed = &input.columns[static_cast<size_t>(idx)];
  } else if (expr->kind() == ExprKind::kLiteral) {
    const Value& v = static_cast<const LiteralExpr&>(*expr).value();
    op.owned = ColumnData(v.is_null() ? DataType::Int64() : v.type());
    op.owned.AppendValue(v);
    op.stride = 0;
  } else {
    VDM_ASSIGN_OR_RETURN(op.owned, Eval(expr, input));
  }
  return op;
}

bool CompareResult(BinaryOpKind op, int cmp) {
  switch (op) {
    case BinaryOpKind::kEq:
      return cmp == 0;
    case BinaryOpKind::kNotEq:
      return cmp != 0;
    case BinaryOpKind::kLess:
      return cmp < 0;
    case BinaryOpKind::kLessEq:
      return cmp <= 0;
    case BinaryOpKind::kGreater:
      return cmp > 0;
    default:
      return cmp >= 0;
  }
}

Result<ColumnData> EvalBinary(const BinaryExpr& bin, const Chunk& input) {
  VDM_ASSIGN_OR_RETURN(Operand lop, EvalOperand(bin.left(), input));
  VDM_ASSIGN_OR_RETURN(Operand rop, EvalOperand(bin.right(), input));
  const ColumnData& lc = lop.col();
  const ColumnData& rc = rop.col();
  const size_t n = input.NumRows();
  BinaryOpKind op = bin.op();

  if (op == BinaryOpKind::kAnd || op == BinaryOpKind::kOr) {
    // Kleene three-valued logic.
    ColumnData out(DataType::Bool());
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t li = lop.At(i), ri = rop.At(i);
      bool ln = lc.IsNull(li), rn = rc.IsNull(ri);
      bool lv = !ln && lc.ints()[li] != 0;
      bool rv = !rn && rc.ints()[ri] != 0;
      if (op == BinaryOpKind::kAnd) {
        if (!ln && !lv) {
          out.AppendInt(0);
        } else if (!rn && !rv) {
          out.AppendInt(0);
        } else if (ln || rn) {
          out.AppendNull();
        } else {
          out.AppendInt(1);
        }
      } else {
        if (!ln && lv) {
          out.AppendInt(1);
        } else if (!rn && rv) {
          out.AppendInt(1);
        } else if (ln || rn) {
          out.AppendNull();
        } else {
          out.AppendInt(0);
        }
      }
    }
    return out;
  }

  if (IsComparison(op)) {
    bool string_cmp = lc.type().id == TypeId::kString ||
                      rc.type().id == TypeId::kString;
    if (string_cmp && lc.type().id != rc.type().id) {
      return Status::TypeError("comparing string with non-string");
    }
    bool same_int = lc.type().IsIntegerBacked() &&
                    rc.type().IsIntegerBacked() &&
                    lc.type().scale == rc.type().scale;
    std::vector<int64_t> vals(n);
    std::vector<uint8_t> validity;
    for (size_t i = 0; i < n; ++i) {
      const size_t li = lop.At(i), ri = rop.At(i);
      if (lc.IsNull(li) || rc.IsNull(ri)) {
        if (validity.empty()) validity.assign(n, 1);
        validity[i] = 0;
        continue;
      }
      int cmp;
      if (string_cmp) {
        cmp = lc.StringAt(li).compare(rc.StringAt(ri));
        cmp = cmp < 0 ? -1 : (cmp == 0 ? 0 : 1);
      } else if (same_int) {
        int64_t a = lc.ints()[li], b = rc.ints()[ri];
        cmp = a < b ? -1 : (a == b ? 0 : 1);
      } else {
        double a = AsDoubleAt(lc, li), b = AsDoubleAt(rc, ri);
        cmp = a < b ? -1 : (a == b ? 0 : 1);
      }
      vals[i] = CompareResult(op, cmp) ? 1 : 0;
    }
    return ColumnData::TakeInts(DataType::Bool(), std::move(vals),
                                std::move(validity));
  }

  // Arithmetic.
  VDM_ASSIGN_OR_RETURN(DataType rt,
                       CombineNumeric(op, lc.type(), rc.type()));
  ColumnData out(rt);
  out.Reserve(n);
  if (rt.id == TypeId::kDouble) {
    for (size_t i = 0; i < n; ++i) {
      const size_t li = lop.At(i), ri = rop.At(i);
      if (lc.IsNull(li) || rc.IsNull(ri)) {
        out.AppendNull();
        continue;
      }
      double a = AsDoubleAt(lc, li), b = AsDoubleAt(rc, ri);
      switch (op) {
        case BinaryOpKind::kAdd:
          out.AppendDouble(a + b);
          break;
        case BinaryOpKind::kSub:
          out.AppendDouble(a - b);
          break;
        case BinaryOpKind::kMul:
          out.AppendDouble(a * b);
          break;
        default:
          // SQL semantics: division by zero yields NULL here (no exceptions
          // in the execution path).
          if (b == 0.0) {
            out.AppendNull();
          } else {
            out.AppendDouble(a / b);
          }
          break;
      }
    }
    return out;
  }
  if (rt.id == TypeId::kDecimal) {
    if (op == BinaryOpKind::kMul) {
      for (size_t i = 0; i < n; ++i) {
        const size_t li = lop.At(i), ri = rop.At(i);
        if (lc.IsNull(li) || rc.IsNull(ri)) {
          out.AppendNull();
          continue;
        }
        out.AppendInt(lc.ints()[li] * rc.ints()[ri]);
      }
      return out;
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t li = lop.At(i), ri = rop.At(i);
      if (lc.IsNull(li) || rc.IsNull(ri)) {
        out.AppendNull();
        continue;
      }
      int64_t a = AsUnscaledAt(lc, li, rt.scale);
      int64_t b = AsUnscaledAt(rc, ri, rt.scale);
      out.AppendInt(op == BinaryOpKind::kAdd ? a + b : a - b);
    }
    return out;
  }
  // int64
  for (size_t i = 0; i < n; ++i) {
    const size_t li = lop.At(i), ri = rop.At(i);
    if (lc.IsNull(li) || rc.IsNull(ri)) {
      out.AppendNull();
      continue;
    }
    int64_t a = lc.ints()[li], b = rc.ints()[ri];
    switch (op) {
      case BinaryOpKind::kAdd:
        out.AppendInt(a + b);
        break;
      case BinaryOpKind::kSub:
        out.AppendInt(a - b);
        break;
      default:
        out.AppendInt(a * b);
        break;
    }
  }
  return out;
}

/// coalesce: per row, the first non-NULL argument, converted to the first
/// argument's type (numeric arguments convert by value: integers and
/// decimals rescale, doubles round half away from zero into integer-backed
/// types). Mixing string and non-string arguments is a TypeError.
Result<ColumnData> EvalCoalesce(const FunctionExpr& fn, const Chunk& input) {
  std::vector<Operand> args;
  for (const ExprRef& child : fn.children()) {
    VDM_ASSIGN_OR_RETURN(Operand a, EvalOperand(child, input));
    args.push_back(std::move(a));
  }
  const DataType rt = args[0].col().type();
  const bool strings = rt.id == TypeId::kString;
  for (const Operand& a : args) {
    if ((a.col().type().id == TypeId::kString) != strings) {
      return Status::TypeError("coalesce of string and non-string");
    }
  }
  const size_t n = input.NumRows();
  auto first_valid = [&](size_t i) -> const Operand* {
    for (const Operand& a : args) {
      if (!a.IsNull(i)) return &a;
    }
    return nullptr;
  };
  if (strings) {
    ColumnData out(rt);
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Operand* a = first_valid(i);
      if (a == nullptr) {
        out.AppendNull();
      } else {
        out.AppendString(a->col().StringAt(a->At(i)));
      }
    }
    return out;
  }
  std::vector<uint8_t> validity;
  auto mark_null = [&](size_t i) {
    if (validity.empty()) validity.assign(n, 1);
    validity[i] = 0;
  };
  if (rt.id == TypeId::kDouble) {
    std::vector<double> vals(n);
    for (size_t i = 0; i < n; ++i) {
      const Operand* a = first_valid(i);
      if (a == nullptr) {
        mark_null(i);
      } else {
        vals[i] = AsDoubleAt(a->col(), a->At(i));
      }
    }
    return ColumnData::TakeDoubles(rt, std::move(vals), std::move(validity));
  }
  const uint8_t to_scale = rt.id == TypeId::kDecimal ? rt.scale : 0;
  std::vector<int64_t> vals(n);
  for (size_t i = 0; i < n; ++i) {
    const Operand* a = first_valid(i);
    if (a == nullptr) {
      mark_null(i);
      continue;
    }
    const ColumnData& col = a->col();
    const size_t r = a->At(i);
    if (col.type().id == TypeId::kDouble) {
      vals[i] = std::llround(col.doubles()[r] *
                             static_cast<double>(DecimalPow10(to_scale)));
    } else {
      const uint8_t from_scale =
          col.type().id == TypeId::kDecimal ? col.type().scale : 0;
      vals[i] = RoundUnscaled(col.ints()[r], from_scale, to_scale);
    }
  }
  return ColumnData::TakeInts(rt, std::move(vals), std::move(validity));
}

// SQL LIKE matcher: '%' matches any sequence, '_' any single character;
// case-sensitive, no escape syntax. Iterative greedy match with
// backtracking to the last '%'.
bool LikeMatch(const std::string& s, const std::string& p) {
  size_t si = 0;
  size_t pi = 0;
  size_t star_si = std::string::npos;
  size_t star_pi = 0;
  const size_t ns = s.size();
  const size_t np = p.size();
  while (si < ns) {
    if (pi < np && (p[pi] == '_' || p[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < np && p[pi] == '%') {
      star_pi = ++pi;
      star_si = si;
    } else if (star_si != std::string::npos) {
      pi = star_pi;
      si = ++star_si;
    } else {
      return false;
    }
  }
  while (pi < np && p[pi] == '%') ++pi;
  return pi == np;
}

Result<ColumnData> EvalFunction(const FunctionExpr& fn, const Chunk& input) {
  size_t n = input.NumRows();
  if (fn.name() == "round") {
    VDM_ASSIGN_OR_RETURN(ColumnData arg, Eval(fn.children()[0], input));
    int64_t digits = 0;
    if (fn.children().size() > 1) {
      VDM_ASSIGN_OR_RETURN(Operand dc, EvalOperand(fn.children()[1], input));
      if (dc.col().size() > 0 && !dc.col().IsNull(0)) {
        digits = dc.col().ints()[0];
      }
    }
    if (arg.type().id == TypeId::kDecimal) {
      uint8_t to_scale = static_cast<uint8_t>(
          std::clamp<int64_t>(digits, 0, arg.type().scale));
      ColumnData out(DataType::Decimal(to_scale));
      out.Reserve(n);
      for (size_t i = 0; i < arg.size(); ++i) {
        if (arg.IsNull(i)) {
          out.AppendNull();
        } else {
          out.AppendInt(
              RoundUnscaled(arg.ints()[i], arg.type().scale, to_scale));
        }
      }
      return out;
    }
    ColumnData out(DataType::Double());
    out.Reserve(n);
    double p = std::pow(10.0, static_cast<double>(digits));
    for (size_t i = 0; i < arg.size(); ++i) {
      if (arg.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendDouble(std::round(AsDoubleAt(arg, i) * p) / p);
      }
    }
    return out;
  }
  if (fn.name() == "coalesce") return EvalCoalesce(fn, input);
  if (fn.name() == "abs") {
    VDM_ASSIGN_OR_RETURN(ColumnData arg, Eval(fn.children()[0], input));
    ColumnData out(arg.type());
    out.Reserve(n);
    for (size_t i = 0; i < arg.size(); ++i) {
      if (arg.IsNull(i)) {
        out.AppendNull();
      } else if (arg.type().id == TypeId::kDouble) {
        out.AppendDouble(std::fabs(arg.doubles()[i]));
      } else {
        out.AppendInt(std::llabs(arg.ints()[i]));
      }
    }
    return out;
  }
  if (fn.name() == "concat") {
    std::vector<ColumnData> args;
    for (const ExprRef& child : fn.children()) {
      VDM_ASSIGN_OR_RETURN(ColumnData c, Eval(child, input));
      args.push_back(std::move(c));
    }
    ColumnData out(DataType::String());
    out.Reserve(n);
    for (size_t i = 0; i < args[0].size(); ++i) {
      std::string s;
      for (const ColumnData& a : args) {
        if (!a.IsNull(i)) s += a.GetValue(i).ToString();
      }
      out.AppendString(std::move(s));
    }
    return out;
  }
  if (fn.name() == "upper" || fn.name() == "lower") {
    VDM_ASSIGN_OR_RETURN(ColumnData arg, Eval(fn.children()[0], input));
    ColumnData out(DataType::String());
    out.Reserve(n);
    for (size_t i = 0; i < arg.size(); ++i) {
      if (arg.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendString(fn.name() == "upper" ? ToUpper(arg.StringAt(i))
                                              : ToLower(arg.StringAt(i)));
      }
    }
    return out;
  }
  if (fn.name() == "like") {
    VDM_ASSIGN_OR_RETURN(ColumnData val, Eval(fn.children()[0], input));
    VDM_ASSIGN_OR_RETURN(ColumnData pat, Eval(fn.children()[1], input));
    if (val.type().id != TypeId::kString ||
        pat.type().id != TypeId::kString) {
      return Status::TypeError("LIKE requires string operands");
    }
    ColumnData out(DataType::Bool());
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (val.IsNull(i) || pat.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt(LikeMatch(val.StringAt(i), pat.StringAt(i)) ? 1 : 0);
      }
    }
    return out;
  }
  if (fn.name() == "year" || fn.name() == "month") {
    VDM_ASSIGN_OR_RETURN(ColumnData arg, Eval(fn.children()[0], input));
    ColumnData out(DataType::Int64());
    out.Reserve(n);
    for (size_t i = 0; i < arg.size(); ++i) {
      if (arg.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt(fn.name() == "year" ? YearFromDays(arg.ints()[i])
                                          : MonthFromDays(arg.ints()[i]));
      }
    }
    return out;
  }
  return Status::BindError("unknown function: " + fn.name());
}

Result<ColumnData> Eval(const ExprRef& expr, const Chunk& input) {
  size_t n = input.NumRows();
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      const std::string& name =
          static_cast<const ColumnRefExpr&>(*expr).name();
      int idx = input.FindColumn(name);
      if (idx < 0) return Status::BindError("unknown column: " + name);
      return input.columns[static_cast<size_t>(idx)];
    }
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(*expr).value();
      ColumnData out(v.is_null() ? DataType::Int64() : v.type());
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) out.AppendValue(v);
      return out;
    }
    case ExprKind::kBinary:
      return EvalBinary(static_cast<const BinaryExpr&>(*expr), input);
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(*expr);
      VDM_ASSIGN_OR_RETURN(ColumnData arg, Eval(un.operand(), input));
      ColumnData out(un.op() == UnaryOpKind::kNot ? DataType::Bool()
                                                  : arg.type());
      out.Reserve(n);
      for (size_t i = 0; i < arg.size(); ++i) {
        if (arg.IsNull(i)) {
          out.AppendNull();
        } else if (un.op() == UnaryOpKind::kNot) {
          out.AppendInt(arg.ints()[i] != 0 ? 0 : 1);
        } else if (arg.type().id == TypeId::kDouble) {
          out.AppendDouble(-arg.doubles()[i]);
        } else {
          out.AppendInt(-arg.ints()[i]);
        }
      }
      return out;
    }
    case ExprKind::kFunction:
      return EvalFunction(static_cast<const FunctionExpr&>(*expr), input);
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(*expr);
      std::vector<ColumnData> whens, thens;
      for (size_t b = 0; b < c.NumBranches(); ++b) {
        VDM_ASSIGN_OR_RETURN(ColumnData w, Eval(c.When(b), input));
        VDM_ASSIGN_OR_RETURN(ColumnData t, Eval(c.Then(b), input));
        whens.push_back(std::move(w));
        thens.push_back(std::move(t));
      }
      VDM_ASSIGN_OR_RETURN(ColumnData els, Eval(c.Else(), input));
      ColumnData out(thens.empty() ? els.type() : thens[0].type());
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        bool matched = false;
        for (size_t b = 0; b < whens.size(); ++b) {
          if (!whens[b].IsNull(i) && whens[b].ints()[i] != 0) {
            out.AppendFrom(thens[b], i);
            matched = true;
            break;
          }
        }
        if (!matched) out.AppendFrom(els, i);
      }
      return out;
    }
    case ExprKind::kIsNull: {
      const auto& in = static_cast<const IsNullExpr&>(*expr);
      VDM_ASSIGN_OR_RETURN(ColumnData arg, Eval(in.operand(), input));
      ColumnData out(DataType::Bool());
      out.Reserve(n);
      for (size_t i = 0; i < arg.size(); ++i) {
        bool is_null = arg.IsNull(i);
        out.AppendInt((in.negated() ? !is_null : is_null) ? 1 : 0);
      }
      return out;
    }
    case ExprKind::kAggregate:
      return Status::ExecutionError(
          "aggregate function outside aggregation: " + expr->ToString());
    case ExprKind::kMacroRef:
      return Status::ExecutionError(
          "unexpanded expression macro: " + expr->ToString());
    case ExprKind::kParam:
      return Status::ExecutionError(
          "unbound plan-cache parameter: " + expr->ToString());
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<ColumnData> EvalExpr(const ExprRef& expr, const Chunk& input) {
  return Eval(expr, input);
}

Result<Value> EvalExprOnRow(const ExprRef& expr, const Chunk& input,
                            size_t row) {
  // Build a one-row chunk and evaluate.
  Chunk one;
  one.names = input.names;
  one.columns.reserve(input.columns.size());
  for (const ColumnData& col : input.columns) {
    ColumnData c(col.type());
    c.AppendFrom(col, row);
    one.columns.push_back(std::move(c));
  }
  VDM_ASSIGN_OR_RETURN(ColumnData result, Eval(expr, one));
  if (result.size() == 0) return Value::Null();
  return result.GetValue(0);
}

}  // namespace vdm

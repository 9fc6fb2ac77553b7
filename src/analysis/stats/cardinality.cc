#include "analysis/stats/cardinality.h"

#include <algorithm>
#include <cmath>

#include "expr/expr.h"
#include "expr/fold.h"

namespace vdm {

namespace {

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

bool IsStringWildcardFree(const std::string& pattern) {
  return pattern.find('%') == std::string::npos &&
         pattern.find('_') == std::string::npos;
}

}  // namespace

double EstimateEquiJoinRows(double left_rows, double right_rows,
                            JoinType join_type,
                            const std::vector<JoinKeyEstimate>& keys,
                            size_t residual_conjuncts, bool left_unique,
                            bool right_unique, DeclaredCardinality declared,
                            bool trust_declared) {
  left_rows = std::max(left_rows, 0.0);
  right_rows = std::max(right_rows, 0.0);
  double rows;
  if (trust_declared && declared != DeclaredCardinality::kNone) {
    // §7.3 prior: to-one joins emit one right match per left row.
    // Exact for kExactOne; the tight upper bound for kAtMostOne.
    rows = left_rows;
  } else if (keys.empty()) {
    rows = left_rows * right_rows;
  } else {
    double selectivity = 1.0;
    for (const JoinKeyEstimate& key : keys) {
      const double dl =
          key.left && key.left->distinct > 0 ? key.left->distinct : 0.0;
      const double dr =
          key.right && key.right->distinct > 0 ? key.right->distinct : 0.0;
      double d = std::max(dl, dr);
      if (d <= 0.0) {
        // No distinct counts: assume a key/foreign-key join where the
        // smaller side is the key side (the classic fallback — yields
        // max(|L|, |R|) for a single-key join).
        d = std::max(1.0, std::min(left_rows, right_rows));
      }
      selectivity /= d;
    }
    rows = left_rows * right_rows * selectivity;
  }
  // Unique-key caps (inference lattice): covering a unique key of one
  // side bounds the output by the other side.
  if (right_unique) rows = std::min(rows, left_rows);
  if (left_unique) rows = std::min(rows, right_rows);
  if (residual_conjuncts > 0) {
    rows *= std::pow(0.25, static_cast<double>(residual_conjuncts));
  }
  if (join_type == JoinType::kLeftOuter) rows = std::max(rows, left_rows);
  return std::max(rows, 0.0);
}

CardinalityEstimator::CardinalityEstimator(const Catalog* catalog,
                                           InferenceEngine* engine,
                                           CardinalityOptions options)
    : catalog_(catalog), engine_(engine), options_(options) {}

double CardinalityEstimator::EstimateRows(const PlanRef& plan) {
  return Info(plan).rows;
}

std::optional<ColumnEstimate> CardinalityEstimator::ResolveColumn(
    const PlanRef& plan, const std::string& name) {
  const NodeInfo& info = Info(plan);
  auto it = info.cols.find(name);
  if (it == info.cols.end()) return std::nullopt;
  return it->second;
}

bool CardinalityEstimator::UniqueOn(const PlanRef& plan,
                                    const std::set<std::string>& columns) {
  if (engine_ == nullptr || columns.empty()) return false;
  return engine_->Infer(plan).UniqueOn(columns);
}

double CardinalityEstimator::EstimateSelectivity(const ExprRef& predicate,
                                                 const PlanRef& input) {
  return SelectivityOf(predicate, Info(input));
}

const CardinalityEstimator::NodeInfo& CardinalityEstimator::Info(
    const PlanRef& plan) {
  auto it = cache_.find(plan.get());
  if (it != cache_.end()) return it->second.info;
  NodeInfo info = Compute(plan);
  // Lattice facts that beat any local rule: statically empty relations
  // and single-row guarantees (constant-pinned full keys, global
  // aggregates, ...).
  if (engine_ != nullptr) {
    const InferredProps& props = engine_->Infer(plan);
    if (props.empty_relation) {
      info.rows = 0.0;
    } else if (props.at_most_one_row) {
      info.rows = std::min(info.rows, 1.0);
    }
  }
  return cache_.emplace(plan.get(), Entry{plan, std::move(info)})
      .first->second.info;
}

CardinalityEstimator::NodeInfo CardinalityEstimator::Compute(
    const PlanRef& plan) {
  NodeInfo out;
  switch (plan->kind()) {
    case OpKind::kScan: {
      const auto* scan = static_cast<const ScanOp*>(plan.get());
      const std::shared_ptr<const TableStats> stats =
          catalog_ ? catalog_->FindTableStats(scan->table_name()) : nullptr;
      out.rows = stats ? static_cast<double>(stats->row_count)
                       : options_.default_table_rows;
      if (stats != nullptr && !stats->columns.empty()) {
        const std::vector<std::string> names = plan->OutputNames();
        for (size_t o = 0; o < names.size(); ++o) {
          const ColumnStatsEntry* entry =
              stats->Column(scan->SchemaIndexOfOutput(o));
          if (entry == nullptr) continue;
          ColumnEstimate est;
          est.distinct = static_cast<double>(entry->distinct_count);
          est.null_fraction = entry->null_fraction;
          est.has_minmax = entry->has_minmax;
          est.min_i64 = entry->min_i64;
          est.max_i64 = entry->max_i64;
          out.cols[names[o]] = est;
        }
      }
      return out;
    }
    case OpKind::kFilter: {
      const auto* filter = static_cast<const FilterOp*>(plan.get());
      const NodeInfo& in = Info(plan->children()[0]);
      const double sel = SelectivityOf(filter->predicate(), in);
      out.rows = in.rows * sel;
      out.cols = in.cols;
      for (auto& [name, est] : out.cols) {
        if (est.distinct > 0) est.distinct = std::min(est.distinct, out.rows);
      }
      // A column pinned to a literal has one distinct value left, so a
      // join on it is not charged for that selectivity a second time.
      for (const ExprRef& conjunct : SplitConjuncts(filter->predicate())) {
        std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
        if (!cc.has_value() || cc->value.is_null()) continue;
        auto it = out.cols.find(cc->column);
        if (it != out.cols.end() && it->second.distinct > 0) {
          it->second.distinct = std::min(it->second.distinct, 1.0);
        }
      }
      return out;
    }
    case OpKind::kProject: {
      const auto* project = static_cast<const ProjectOp*>(plan.get());
      const NodeInfo& in = Info(plan->children()[0]);
      out.rows = in.rows;
      for (const ProjectOp::Item& item : project->items()) {
        if (item.expr->kind() != ExprKind::kColumnRef) continue;
        const auto* ref = static_cast<const ColumnRefExpr*>(item.expr.get());
        auto it = in.cols.find(ref->name());
        if (it != in.cols.end()) out.cols[item.name] = it->second;
      }
      return out;
    }
    case OpKind::kJoin: {
      const auto* join = static_cast<const JoinOp*>(plan.get());
      const NodeInfo& l = Info(join->left());
      const NodeInfo& r = Info(join->right());
      const std::vector<std::string> lnames = join->left()->OutputNames();
      const std::vector<std::string> rnames = join->right()->OutputNames();
      const std::set<std::string> lset(lnames.begin(), lnames.end());
      const std::set<std::string> rset(rnames.begin(), rnames.end());
      std::vector<JoinKeyEstimate> keys;
      std::set<std::string> lkey_names, rkey_names;
      size_t residual = 0;
      for (const ExprRef& conjunct : SplitConjuncts(join->condition())) {
        if (IsAlwaysTrue(conjunct)) continue;
        std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
        bool is_key = false;
        if (pair) {
          std::string lcol = pair->left, rcol = pair->right;
          if (rset.count(lcol) != 0 && lset.count(rcol) != 0) {
            std::swap(lcol, rcol);
          }
          if (lset.count(lcol) != 0 && rset.count(rcol) != 0) {
            JoinKeyEstimate key;
            auto lit = l.cols.find(lcol);
            if (lit != l.cols.end()) key.left = lit->second;
            auto rit = r.cols.find(rcol);
            if (rit != r.cols.end()) key.right = rit->second;
            keys.push_back(key);
            lkey_names.insert(lcol);
            rkey_names.insert(rcol);
            is_key = true;
          }
        }
        if (!is_key) ++residual;
      }
      const bool right_unique = UniqueOn(join->right(), rkey_names);
      const bool left_unique =
          join->join_type() == JoinType::kInner && UniqueOn(join->left(), lkey_names);
      out.rows = EstimateEquiJoinRows(
          l.rows, r.rows, join->join_type(), keys, residual, left_unique,
          right_unique, join->declared_cardinality(),
          options_.trust_declared_cardinality);
      if (join->limit_hint() >= 0) {
        out.rows = std::min(out.rows, static_cast<double>(join->limit_hint()));
      }
      out.cols = l.cols;
      for (const auto& [name, est] : r.cols) out.cols.emplace(name, est);
      return out;
    }
    case OpKind::kAggregate: {
      const auto* agg = static_cast<const AggregateOp*>(plan.get());
      const NodeInfo& in = Info(plan->children()[0]);
      if (agg->group_by().empty()) {
        out.rows = std::min(in.rows, 1.0);
        return out;
      }
      double groups = 1.0;
      for (const AggregateOp::GroupItem& item : agg->group_by()) {
        double d = std::max(1.0, in.rows * 0.1);
        std::optional<ColumnEstimate> est;
        if (item.expr->kind() == ExprKind::kColumnRef) {
          const auto* ref = static_cast<const ColumnRefExpr*>(item.expr.get());
          auto it = in.cols.find(ref->name());
          if (it != in.cols.end()) est = it->second;
        }
        if (est && est->distinct > 0) d = est->distinct;
        groups *= d;
        if (est) {
          ColumnEstimate ge = *est;
          out.cols[item.name] = ge;
        }
      }
      out.rows = std::min(groups, in.rows);
      for (auto& [name, est] : out.cols) {
        if (est.distinct > 0) est.distinct = std::min(est.distinct, out.rows);
      }
      return out;
    }
    case OpKind::kUnionAll: {
      double total = 0.0;
      for (const PlanRef& child : plan->children()) total += Info(child).rows;
      out.rows = total;
      return out;
    }
    case OpKind::kSort: {
      const NodeInfo& in = Info(plan->children()[0]);
      out = in;
      return out;
    }
    case OpKind::kLimit: {
      const auto* limit = static_cast<const LimitOp*>(plan.get());
      const NodeInfo& in = Info(plan->children()[0]);
      out.cols = in.cols;
      const double cap =
          static_cast<double>(std::max<int64_t>(limit->limit(), 0) +
                              std::max<int64_t>(limit->offset(), 0));
      out.rows = std::min(in.rows, cap);
      return out;
    }
    case OpKind::kDistinct: {
      const PlanRef& child = plan->children()[0];
      const NodeInfo& in = Info(child);
      double groups = 1.0;
      bool all_known = true;
      for (const std::string& name : plan->OutputNames()) {
        auto it = in.cols.find(name);
        if (it == in.cols.end() || it->second.distinct <= 0) {
          all_known = false;
          break;
        }
        groups *= it->second.distinct;
      }
      out.cols = in.cols;
      out.rows = all_known ? std::min(groups, in.rows) : in.rows;
      return out;
    }
  }
  out.rows = options_.default_table_rows;
  return out;
}

double CardinalityEstimator::SelectivityOf(const ExprRef& expr,
                                           const NodeInfo& input) const {
  switch (expr->kind()) {
    case ExprKind::kLiteral: {
      const auto* lit = static_cast<const LiteralExpr*>(expr.get());
      if (lit->value().is_null()) return 0.0;
      if (lit->value().type().id == TypeId::kBool) {
        return lit->value().AsBool() ? 1.0 : 0.0;
      }
      return options_.default_selectivity;
    }
    case ExprKind::kBinary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr.get());
      switch (bin->op()) {
        case BinaryOpKind::kAnd:
          return Clamp01(SelectivityOf(bin->left(), input) *
                         SelectivityOf(bin->right(), input));
        case BinaryOpKind::kOr: {
          const double sl = SelectivityOf(bin->left(), input);
          const double sr = SelectivityOf(bin->right(), input);
          return Clamp01(1.0 - (1.0 - sl) * (1.0 - sr));
        }
        case BinaryOpKind::kEq:
        case BinaryOpKind::kNotEq: {
          double eq_sel = options_.default_selectivity;
          if (std::optional<ColumnConstant> cc = MatchColumnEqConstant(expr)) {
            auto it = input.cols.find(cc->column);
            if (it != input.cols.end()) {
              const ColumnEstimate& est = it->second;
              if (est.has_minmax && !cc->value.is_null() &&
                  cc->value.type().IsIntegerBacked()) {
                const int64_t v = cc->value.AsInt64();
                if (v < est.min_i64 || v > est.max_i64) {
                  eq_sel = 0.0;
                } else if (est.distinct > 0) {
                  eq_sel = 1.0 / est.distinct;
                } else {
                  const double width = static_cast<double>(est.max_i64) -
                                       static_cast<double>(est.min_i64) + 1.0;
                  eq_sel = 1.0 / std::max(width, 1.0);
                }
              } else if (est.distinct > 0) {
                eq_sel = 1.0 / est.distinct;
              }
            }
          } else if (std::optional<ColumnPair> pair =
                         MatchColumnEqColumn(expr)) {
            double d = 0.0;
            auto lit = input.cols.find(pair->left);
            if (lit != input.cols.end()) d = std::max(d, lit->second.distinct);
            auto rit = input.cols.find(pair->right);
            if (rit != input.cols.end()) d = std::max(d, rit->second.distinct);
            if (d > 0) eq_sel = 1.0 / d;
          }
          return Clamp01(bin->op() == BinaryOpKind::kEq ? eq_sel
                                                        : 1.0 - eq_sel);
        }
        case BinaryOpKind::kLess:
        case BinaryOpKind::kLessEq:
        case BinaryOpKind::kGreater:
        case BinaryOpKind::kGreaterEq: {
          // Range interpolation over the column's collected [min, max].
          const Expr* l = bin->left().get();
          const Expr* r = bin->right().get();
          BinaryOpKind op = bin->op();
          if (l->kind() == ExprKind::kLiteral &&
              r->kind() == ExprKind::kColumnRef) {
            // Mirror `lit op col` to `col op' lit`.
            std::swap(l, r);
            op = op == BinaryOpKind::kLess      ? BinaryOpKind::kGreater
                 : op == BinaryOpKind::kLessEq  ? BinaryOpKind::kGreaterEq
                 : op == BinaryOpKind::kGreater ? BinaryOpKind::kLess
                                                : BinaryOpKind::kLessEq;
          }
          if (l->kind() == ExprKind::kColumnRef &&
              r->kind() == ExprKind::kLiteral) {
            const auto* ref = static_cast<const ColumnRefExpr*>(l);
            const Value& v = static_cast<const LiteralExpr*>(r)->value();
            auto it = input.cols.find(ref->name());
            if (it != input.cols.end() && it->second.has_minmax &&
                !v.is_null() && v.type().IsIntegerBacked()) {
              const ColumnEstimate& est = it->second;
              const double lo = static_cast<double>(est.min_i64);
              const double hi = static_cast<double>(est.max_i64);
              const double width = std::max(hi - lo + 1.0, 1.0);
              const double x = static_cast<double>(v.AsInt64());
              switch (op) {
                case BinaryOpKind::kLess:
                  return Clamp01((x - lo) / width);
                case BinaryOpKind::kLessEq:
                  return Clamp01((x - lo + 1.0) / width);
                case BinaryOpKind::kGreater:
                  return Clamp01((hi - x) / width);
                default:
                  return Clamp01((hi - x + 1.0) / width);
              }
            }
          }
          return options_.default_selectivity;
        }
        default:
          return options_.default_selectivity;
      }
    }
    case ExprKind::kUnary: {
      const auto* unary = static_cast<const UnaryExpr*>(expr.get());
      if (unary->op() == UnaryOpKind::kNot) {
        return Clamp01(1.0 - SelectivityOf(unary->operand(), input));
      }
      return options_.default_selectivity;
    }
    case ExprKind::kIsNull: {
      const auto* isnull = static_cast<const IsNullExpr*>(expr.get());
      double nf = 0.1;
      if (isnull->operand()->kind() == ExprKind::kColumnRef) {
        const auto* ref =
            static_cast<const ColumnRefExpr*>(isnull->operand().get());
        auto it = input.cols.find(ref->name());
        if (it != input.cols.end()) nf = it->second.null_fraction;
      }
      return Clamp01(isnull->negated() ? 1.0 - nf : nf);
    }
    case ExprKind::kFunction: {
      const auto* fn = static_cast<const FunctionExpr*>(expr.get());
      if (fn->name() == "like" && fn->children().size() == 2 &&
          fn->children()[1]->kind() == ExprKind::kLiteral) {
        const Value& v =
            static_cast<const LiteralExpr*>(fn->children()[1].get())->value();
        if (!v.is_null() && v.type().id == TypeId::kString) {
          if (IsStringWildcardFree(v.AsString())) {
            // Equivalent to equality.
            return SelectivityOf(
                Eq(fn->children()[0], Lit(v)),
                input);
          }
          return 0.1;  // prefix / substring match
        }
      }
      return options_.default_selectivity;
    }
    default:
      return options_.default_selectivity;
  }
}

double CardinalityEstimator::AnnotateNode(const PlanRef& plan,
                                          PlanEstimates* out) {
  double child_cost = 0.0;
  for (const PlanRef& child : plan->children()) {
    child_cost += AnnotateNode(child, out);
  }
  const double rows = Info(plan).rows;
  double op_cost = 0.0;
  switch (plan->kind()) {
    case OpKind::kScan:
      op_cost = rows;
      break;
    case OpKind::kJoin: {
      const auto* join = static_cast<const JoinOp*>(plan.get());
      const double probe = Info(join->left()).rows;
      const double build = Info(join->right()).rows;
      op_cost = 2.0 * build + probe + rows;
      break;
    }
    case OpKind::kSort: {
      const double n = std::max(Info(plan->children()[0]).rows, 2.0);
      op_cost = n * std::log2(n);
      break;
    }
    case OpKind::kAggregate:
    case OpKind::kDistinct:
      op_cost = 2.0 * Info(plan->children()[0]).rows;
      break;
    case OpKind::kLimit:
    case OpKind::kUnionAll:
      op_cost = 0.0;
      break;
    default:
      // Filter / Project: touch every input row once.
      op_cost = Info(plan->children()[0]).rows;
      break;
  }
  const double total = child_cost + op_cost;
  (*out)[plan->id()] = PlanEstimate{rows, total};
  return total;
}

PlanEstimate CardinalityEstimator::Annotate(const PlanRef& plan,
                                            PlanEstimates* out) {
  const double cost = AnnotateNode(plan, out);
  return PlanEstimate{Info(plan).rows, cost};
}

}  // namespace vdm

// Aggregation pushdown across augmentation joins, with the
// allow_precision_loss SQL extension (paper §7.1).
//
// Two rewrites:
//  1. Precision-loss normalization: within an aggregate marked
//     allow_precision_loss, sum(round(e, d)) becomes round(sum(e), d) and
//     sum(e * c) becomes sum(e) * c for a literal c. This lifts rounding
//     and constant factors out of the summation, which is what unblocks
//     the pushdown.
//  2. Eager aggregation: Aggregate over a purely augmenting join, where
//     every aggregate argument references only the anchor, is split into a
//     partial aggregate on the anchor (grouped by the anchor's group
//     columns plus the join keys) and a final aggregate above the join.
#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "optimizer/optimizer.h"

namespace vdm {

namespace {

/// Rewrite rule 1: precision-loss normalization inside one expression.
ExprRef NormalizePrecisionLoss(const ExprRef& expr, bool* changed) {
  return TransformExpr(expr, [&](const ExprRef& node) -> ExprRef {
    if (node->kind() != ExprKind::kAggregate) return nullptr;
    const auto& agg = static_cast<const AggregateExpr&>(*node);
    if (!agg.allow_precision_loss() || agg.agg() != AggKind::kSum ||
        agg.distinct() || !agg.has_arg()) {
      return nullptr;
    }
    const ExprRef& arg = agg.arg();
    // sum(round(e, d)) -> round(sum(e), d)
    if (arg->kind() == ExprKind::kFunction) {
      const auto& fn = static_cast<const FunctionExpr&>(*arg);
      if (fn.name() == "round" && !fn.children().empty()) {
        ExprRef inner_sum = std::make_shared<AggregateExpr>(
            AggKind::kSum, fn.children()[0], false,
            /*allow_precision_loss=*/true);
        std::vector<ExprRef> args{NormalizePrecisionLoss(inner_sum, changed)};
        for (size_t i = 1; i < fn.children().size(); ++i) {
          args.push_back(fn.children()[i]);
        }
        *changed = true;
        return Func("round", std::move(args));
      }
    }
    // sum(e * c) -> sum(e) * c  /  sum(c * e) -> c * sum(e)
    if (arg->kind() == ExprKind::kBinary) {
      const auto& bin = static_cast<const BinaryExpr&>(*arg);
      if (bin.op() == BinaryOpKind::kMul) {
        const ExprRef* factor = nullptr;
        const ExprRef* term = nullptr;
        if (bin.right()->kind() == ExprKind::kLiteral) {
          factor = &bin.right();
          term = &bin.left();
        } else if (bin.left()->kind() == ExprKind::kLiteral) {
          factor = &bin.left();
          term = &bin.right();
        }
        if (factor != nullptr) {
          ExprRef inner_sum = std::make_shared<AggregateExpr>(
              AggKind::kSum, *term, false, /*allow_precision_loss=*/true);
          *changed = true;
          return Bin(BinaryOpKind::kMul,
                     NormalizePrecisionLoss(inner_sum, changed), *factor);
        }
      }
    }
    return nullptr;
  });
}

/// Collects the distinct AggregateExpr nodes inside an expression.
void CollectAggNodes(const ExprRef& expr, std::vector<ExprRef>* out) {
  if (expr->kind() == ExprKind::kAggregate) {
    for (const ExprRef& existing : *out) {
      if (existing->Equals(*expr)) return;
    }
    out->push_back(expr);
    return;
  }
  for (const ExprRef& child : expr->children()) CollectAggNodes(child, out);
}

/// Partial/final function pair for eager aggregation; nullopt when the
/// aggregate cannot be decomposed.
std::optional<std::pair<AggKind, AggKind>> DecomposeAgg(AggKind kind,
                                                        bool distinct) {
  if (distinct) return std::nullopt;
  switch (kind) {
    case AggKind::kSum:
      return std::make_pair(AggKind::kSum, AggKind::kSum);
    case AggKind::kCount:
      return std::make_pair(AggKind::kCount, AggKind::kSum);
    case AggKind::kCountStar:
      return std::make_pair(AggKind::kCountStar, AggKind::kSum);
    case AggKind::kMin:
      return std::make_pair(AggKind::kMin, AggKind::kMin);
    case AggKind::kMax:
      return std::make_pair(AggKind::kMax, AggKind::kMax);
    case AggKind::kAvg:
      return std::nullopt;  // would need sum/count decomposition
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Aggregate merging across rounding (§7.1's two-level case).
//
// VDM views often pre-aggregate with a rounded calculation, e.g. an
// order-level view computing round(sum(price)*0.11, 2); a consumption
// query then sums that field per month. The two aggregation levels can be
// merged into one — eliminating the high-cardinality inner grouping —
// exactly when addition and rounding may be interchanged, i.e. when the
// outer sum is marked allow_precision_loss. (Without rounding in between,
// sum-over-sum merging is exact and performed unconditionally.)

/// Peels pass-through projections, returning the node below and a name
/// mapping (top name -> bottom output name).
PlanRef PeelPassthroughProjects(const PlanRef& plan,
                                std::map<std::string, std::string>* mapping) {
  PlanRef current = plan;
  // Identity mapping for the starting names.
  for (const std::string& name : plan->OutputNames()) {
    (*mapping)[name] = name;
  }
  while (current->kind() == OpKind::kProject) {
    const auto& project = static_cast<const ProjectOp&>(*current);
    std::map<std::string, std::string> item_map;
    for (const ProjectOp::Item& item : project.items()) {
      if (item.expr->kind() != ExprKind::kColumnRef) return current;
      item_map[item.name] =
          static_cast<const ColumnRefExpr&>(*item.expr).name();
    }
    std::map<std::string, std::string> composed;
    for (auto& [top, bottom] : *mapping) {
      auto it = item_map.find(bottom);
      if (it == item_map.end()) return current;
      composed[top] = it->second;
    }
    *mapping = std::move(composed);
    current = current->child(0);
  }
  return current;
}

PlanRef TryAggregateMerge(const std::shared_ptr<const AggregateOp>& outer,
                          const OptimizerConfig& config, bool* changed) {
  std::map<std::string, std::string> names;  // outer-input -> inner output
  PlanRef below = PeelPassthroughProjects(outer->child(0), &names);
  if (below->kind() != OpKind::kAggregate) return nullptr;
  const auto& inner = static_cast<const AggregateOp&>(*below);
  if (outer->group_by().empty() || inner.group_by().empty()) return nullptr;

  // Inner output name -> defining expression.
  std::map<std::string, ExprRef> inner_defs;
  for (const AggregateOp::GroupItem& g : inner.group_by()) {
    inner_defs[g.name] = g.expr;
  }
  for (const AggregateOp::AggItem& a : inner.aggregates()) {
    inner_defs[a.name] = a.expr;
  }
  // Inner aggregate items may reference inner group outputs by name (the
  // binder rewrites grouped select items that way); substitute those back
  // to the group expressions so merged expressions bind against the
  // inner aggregate's input.
  std::map<std::string, ExprRef> inner_group_exprs;
  for (const AggregateOp::GroupItem& g : inner.group_by()) {
    inner_group_exprs[g.name] = g.expr;
  }
  auto resolve = [&](const std::string& outer_name) -> ExprRef {
    auto nit = names.find(outer_name);
    if (nit == names.end()) return nullptr;
    auto dit = inner_defs.find(nit->second);
    if (dit == inner_defs.end()) return nullptr;
    return RemapColumns(dit->second,
                        [&](const std::string& name) -> ExprRef {
                          auto git = inner_group_exprs.find(name);
                          return git == inner_group_exprs.end()
                                     ? nullptr
                                     : git->second;
                        });
  };

  // Outer groups must resolve to inner *group* expressions.
  std::vector<AggregateOp::GroupItem> merged_groups;
  for (const AggregateOp::GroupItem& g : outer->group_by()) {
    if (g.expr->kind() != ExprKind::kColumnRef) return nullptr;
    ExprRef def =
        resolve(static_cast<const ColumnRefExpr&>(*g.expr).name());
    if (!def || ContainsAggregate(def)) return nullptr;
    merged_groups.push_back({std::move(def), g.name});
  }

  // Outer aggregate items must be sums (or counts) over an inner item of
  // the shape sum(e) — possibly wrapped in round(..., d), which requires
  // the allow_precision_loss opt-in.
  std::vector<AggregateOp::AggItem> merged_items;
  for (const AggregateOp::AggItem& item : outer->aggregates()) {
    // Group-passthrough items (references to an outer group output) stay
    // as they are: the merged aggregate keeps the same group names.
    if (item.expr->kind() == ExprKind::kColumnRef) {
      const std::string& ref =
          static_cast<const ColumnRefExpr&>(*item.expr).name();
      bool is_group = false;
      for (const AggregateOp::GroupItem& g : outer->group_by()) {
        if (g.name == ref) {
          is_group = true;
          break;
        }
      }
      if (!is_group) return nullptr;
      merged_items.push_back(item);
      continue;
    }
    if (item.expr->kind() != ExprKind::kAggregate) return nullptr;
    const auto& agg = static_cast<const AggregateExpr&>(*item.expr);
    if (agg.agg() != AggKind::kSum || agg.distinct() || !agg.has_arg() ||
        agg.arg()->kind() != ExprKind::kColumnRef) {
      return nullptr;
    }
    ExprRef def =
        resolve(static_cast<const ColumnRefExpr&>(*agg.arg()).name());
    if (!def) return nullptr;

    const Expr* inner_expr = def.get();
    ExprRef round_digits;  // non-null when a rounding wrapper was peeled
    if (inner_expr->kind() == ExprKind::kFunction) {
      const auto& fn = static_cast<const FunctionExpr&>(*inner_expr);
      if (fn.name() != "round" || fn.children().empty()) return nullptr;
      if (!agg.allow_precision_loss() ||
          !config.allow_precision_loss_rewrites) {
        return nullptr;  // rounding between the levels blocks the merge
      }
      round_digits = fn.children().size() > 1 ? fn.children()[1] : LitInt(0);
      inner_expr = fn.children()[0].get();
      // The rounded operand may itself be sum(e) or sum(e)*c.
      if (inner_expr->kind() == ExprKind::kBinary) {
        const auto& bin = static_cast<const BinaryExpr&>(*inner_expr);
        if (bin.op() == BinaryOpKind::kMul &&
            bin.right()->kind() == ExprKind::kLiteral &&
            bin.left()->kind() == ExprKind::kAggregate) {
          const auto& inner_sum =
              static_cast<const AggregateExpr&>(*bin.left());
          if (inner_sum.agg() != AggKind::kSum || inner_sum.distinct()) {
            return nullptr;
          }
          ExprRef merged_sum = std::make_shared<AggregateExpr>(
              AggKind::kSum, inner_sum.arg(), false, true);
          merged_items.push_back(
              {Func("round",
                    {Bin(BinaryOpKind::kMul, std::move(merged_sum),
                         bin.right()),
                     round_digits}),
               item.name});
          continue;
        }
      }
    }
    if (inner_expr->kind() != ExprKind::kAggregate) return nullptr;
    const auto& inner_sum = static_cast<const AggregateExpr&>(*inner_expr);
    if (inner_sum.agg() != AggKind::kSum || inner_sum.distinct()) {
      return nullptr;
    }
    ExprRef merged_sum = std::make_shared<AggregateExpr>(
        AggKind::kSum, inner_sum.arg(), false, agg.allow_precision_loss());
    if (round_digits) {
      merged_items.push_back(
          {Func("round", {std::move(merged_sum), round_digits}), item.name});
    } else {
      merged_items.push_back({std::move(merged_sum), item.name});
    }
  }

  *changed = true;
  return std::make_shared<AggregateOp>(inner.child(0),
                                       std::move(merged_groups),
                                       std::move(merged_items));
}

PlanRef TryEagerAggregation(const std::shared_ptr<const AggregateOp>& agg,
                            InferenceEngine& engine, bool* changed) {
  if (agg->child(0)->kind() != OpKind::kJoin) return nullptr;
  auto join = std::static_pointer_cast<const JoinOp>(agg->child(0));

  // Guard against reapplication: the inner partial aggregate is marked by
  // its __partial_ output names.
  for (const std::string& name : join->left()->OutputNames()) {
    if (name.rfind("__partial_", 0) == 0) return nullptr;
  }

  if (!engine.Analyze(*join).purely_augmenting) return nullptr;

  std::vector<std::string> left_names = join->left()->OutputNames();
  std::vector<std::string> right_names = join->right()->OutputNames();

  // All aggregate arguments must reference only anchor columns.
  std::vector<ExprRef> agg_nodes;
  for (const AggregateOp::AggItem& item : agg->aggregates()) {
    CollectAggNodes(item.expr, &agg_nodes);
  }
  if (agg_nodes.empty()) return nullptr;
  // (partial, final) function pair per aggregate node.
  std::vector<std::pair<AggKind, AggKind>> decomposed;
  for (const ExprRef& node : agg_nodes) {
    const auto& a = static_cast<const AggregateExpr&>(*node);
    std::optional<std::pair<AggKind, AggKind>> pair =
        DecomposeAgg(a.agg(), a.distinct());
    if (!pair) return nullptr;
    if (a.has_arg() && !ReferencesOnly(a.arg(), left_names)) return nullptr;
    decomposed.push_back(*pair);
  }

  // Some group column must come from the augmenter — otherwise the join is
  // simply unused and UAJ elimination already handles it.
  bool group_uses_right = false;
  for (const AggregateOp::GroupItem& g : agg->group_by()) {
    if (ReferencesAny(g.expr, right_names)) group_uses_right = true;
  }
  if (!group_uses_right) return nullptr;

  // Inner grouping: anchor columns used by group expressions + join keys.
  std::set<std::string> inner_group_set;
  for (const AggregateOp::GroupItem& g : agg->group_by()) {
    std::vector<std::string> refs;
    CollectColumnRefs(g.expr, &refs);
    for (const std::string& ref : refs) {
      if (std::find(left_names.begin(), left_names.end(), ref) !=
          left_names.end()) {
        inner_group_set.insert(ref);
      }
    }
  }
  {
    std::vector<std::string> refs;
    CollectColumnRefs(join->condition(), &refs);
    for (const std::string& ref : refs) {
      if (std::find(left_names.begin(), left_names.end(), ref) !=
          left_names.end()) {
        inner_group_set.insert(ref);
      }
    }
  }

  std::vector<AggregateOp::GroupItem> inner_groups;
  for (const std::string& name : inner_group_set) {
    inner_groups.push_back({Col(name), name});
  }
  std::vector<AggregateOp::AggItem> inner_aggs;
  std::vector<std::string> partial_names;
  for (size_t k = 0; k < agg_nodes.size(); ++k) {
    const auto& a = static_cast<const AggregateExpr&>(*agg_nodes[k]);
    std::string pname = StrFormat("__partial_%zu", k);
    ExprRef partial_expr = std::make_shared<AggregateExpr>(
        decomposed[k].first, a.has_arg() ? a.arg() : nullptr, false,
        a.allow_precision_loss());
    inner_aggs.push_back({std::move(partial_expr), pname});
    partial_names.push_back(std::move(pname));
  }

  PlanRef inner_agg = std::make_shared<AggregateOp>(
      join->left(), std::move(inner_groups), std::move(inner_aggs));
  PlanRef new_join = std::make_shared<JoinOp>(
      std::move(inner_agg), join->right(), join->join_type(),
      join->condition(), join->declared_cardinality(), join->is_case_join());

  // Final aggregate: replace each aggregate node with its final function
  // over the partial column.
  std::vector<AggregateOp::AggItem> final_items;
  for (const AggregateOp::AggItem& item : agg->aggregates()) {
    ExprRef rewritten =
        TransformExpr(item.expr, [&](const ExprRef& node) -> ExprRef {
          if (node->kind() != ExprKind::kAggregate) return nullptr;
          for (size_t k = 0; k < agg_nodes.size(); ++k) {
            if (node->Equals(*agg_nodes[k])) {
              const auto& a = static_cast<const AggregateExpr&>(*agg_nodes[k]);
              return std::make_shared<AggregateExpr>(
                  decomposed[k].second, Col(partial_names[k]), false,
                  a.allow_precision_loss());
            }
          }
          return nullptr;
        });
    final_items.push_back({std::move(rewritten), item.name});
  }

  *changed = true;
  return std::make_shared<AggregateOp>(std::move(new_join), agg->group_by(),
                                       std::move(final_items));
}

}  // namespace

PlanRef PassAggregatePushdown(const PlanRef& plan,
                              const OptimizerConfig& config,
                              InferenceEngine& engine, bool* changed) {
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kAggregate) return nullptr;
    auto agg = std::static_pointer_cast<const AggregateOp>(node);

    if (config.allow_precision_loss_rewrites) {
      bool rewrote = false;
      std::vector<AggregateOp::AggItem> items;
      for (const AggregateOp::AggItem& item : agg->aggregates()) {
        items.push_back({NormalizePrecisionLoss(item.expr, &rewrote),
                         item.name});
      }
      if (rewrote) {
        *changed = true;
        agg = std::make_shared<AggregateOp>(agg->child(0), agg->group_by(),
                                            std::move(items));
      }
    }

    if (config.agg_pushdown) {
      PlanRef merged = TryAggregateMerge(agg, config, changed);
      if (merged) return merged;
      PlanRef eager = TryEagerAggregation(agg, engine, changed);
      if (eager) return eager;
    }
    return agg == node ? nullptr : PlanRef(agg);
  });
}

}  // namespace vdm

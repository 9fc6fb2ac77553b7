// Generic rewrites: constant folding, filter pushdown, distinct elimination.
#include <algorithm>
#include <map>
#include <set>

#include "expr/fold.h"
#include "optimizer/optimizer.h"

namespace vdm {

namespace {

/// Substitutes project-item definitions into an expression (used when a
/// filter is pushed below a projection).
ExprRef SubstituteItems(const ExprRef& expr,
                        const std::vector<ProjectOp::Item>& items) {
  std::map<std::string, ExprRef> defs;
  for (const ProjectOp::Item& item : items) defs[item.name] = item.expr;
  return RemapColumns(expr, [&](const std::string& name) -> ExprRef {
    auto it = defs.find(name);
    return it == defs.end() ? nullptr : it->second;
  });
}

/// Merges Project-over-Project stacks (the binder and the ASJ rewiring
/// produce long rename chains). Merging is skipped when it would duplicate
/// a non-trivial computed expression.
PlanRef TryMergeProjects(const PlanRef& node, bool* changed) {
  if (node->kind() != OpKind::kProject ||
      node->child(0)->kind() != OpKind::kProject) {
    return nullptr;
  }
  const auto& outer = static_cast<const ProjectOp&>(*node);
  const auto& inner = static_cast<const ProjectOp&>(*node->child(0));
  // Count outer references per inner item — including multiple references
  // within a single expression (CollectColumnRefs deduplicates, which is
  // not what we want here).
  std::map<std::string, int> ref_counts;
  std::function<void(const ExprRef&)> count = [&](const ExprRef& e) {
    if (e->kind() == ExprKind::kColumnRef) {
      ++ref_counts[static_cast<const ColumnRefExpr&>(*e).name()];
      return;
    }
    for (const ExprRef& child : e->children()) count(child);
  };
  for (const ProjectOp::Item& item : outer.items()) count(item.expr);
  for (const ProjectOp::Item& item : inner.items()) {
    bool trivial = item.expr->kind() == ExprKind::kColumnRef ||
                   item.expr->kind() == ExprKind::kLiteral;
    if (!trivial && ref_counts[item.name] > 1) return nullptr;
  }
  std::vector<ProjectOp::Item> merged;
  merged.reserve(outer.items().size());
  for (const ProjectOp::Item& item : outer.items()) {
    merged.push_back({SubstituteItems(item.expr, inner.items()), item.name});
  }
  *changed = true;
  return std::make_shared<ProjectOp>(inner.child(0), std::move(merged));
}

}  // namespace

PlanRef PassConstantFolding(const PlanRef& plan, const OptimizerConfig& config,
                            bool* changed) {
  (void)config;
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (PlanRef merged = TryMergeProjects(node, changed)) return merged;
    // FoldConstants is clone-avoiding (TransformExpr returns the input
    // node when nothing changed), so pointer comparison detects "nothing
    // folded" without a structural walk — and the folded result is
    // inspected directly instead of being folded a second time.
    if (node->kind() == OpKind::kFilter) {
      const auto& filter = static_cast<const FilterOp&>(*node);
      ExprRef folded = FoldConstants(filter.predicate());
      if (IsLiteralTrue(folded)) {
        *changed = true;
        return node->child(0);
      }
      if (folded != filter.predicate()) {
        *changed = true;
        return std::make_shared<FilterOp>(node->child(0), folded);
      }
      return nullptr;
    }
    if (node->kind() == OpKind::kProject) {
      const auto& project = static_cast<const ProjectOp&>(*node);
      bool any = false;
      std::vector<ProjectOp::Item> items;
      items.reserve(project.items().size());
      for (const ProjectOp::Item& item : project.items()) {
        ExprRef folded = FoldConstants(item.expr);
        any |= (folded != item.expr);
        items.push_back({std::move(folded), item.name});
      }
      if (!any) return nullptr;
      *changed = true;
      return std::make_shared<ProjectOp>(node->child(0), std::move(items));
    }
    if (node->kind() == OpKind::kJoin) {
      const auto& join = static_cast<const JoinOp&>(*node);
      ExprRef folded = FoldConstants(join.condition());
      if (folded == join.condition()) return nullptr;
      *changed = true;
      return std::make_shared<JoinOp>(join.left(), join.right(),
                                      join.join_type(), folded,
                                      join.declared_cardinality(),
                                      join.is_case_join());
    }
    return nullptr;
  });
}

namespace {

PlanRef PushFilter(const FilterOp& filter, bool* changed);

/// Places a filter over `input` and keeps pushing it down, so a filter
/// reaches its final position in one PassFilterPushdown call instead of
/// moving one operator per fixpoint iteration.
PlanRef SinkFilter(PlanRef input, ExprRef predicate, bool* changed) {
  auto placed =
      std::make_shared<FilterOp>(std::move(input), std::move(predicate));
  PlanRef pushed = PushFilter(*placed, changed);
  return pushed ? pushed : placed;
}

/// One filter-pushdown step at `filter`, with every filter it places below
/// sunk further. Returns nullptr when the filter cannot move.
PlanRef PushFilter(const FilterOp& filter, bool* changed) {
  const PlanRef& child = filter.child(0);

  switch (child->kind()) {
    case OpKind::kFilter: {
      const auto& inner = static_cast<const FilterOp&>(*child);
      *changed = true;
      return SinkFilter(child->child(0),
                        And(inner.predicate(), filter.predicate()), changed);
    }
    case OpKind::kProject: {
      const auto& project = static_cast<const ProjectOp&>(*child);
      // Cannot push a filter below a projection that computes aggregates
      // (none exist in Project) — always safe to substitute.
      ExprRef pushed = SubstituteItems(filter.predicate(), project.items());
      *changed = true;
      return std::make_shared<ProjectOp>(
          SinkFilter(child->child(0), std::move(pushed), changed),
          project.items());
    }
    case OpKind::kJoin: {
      const auto& join = static_cast<const JoinOp&>(*child);
      std::vector<std::string> left_names = join.left()->OutputNames();
      std::vector<std::string> right_names = join.right()->OutputNames();
      std::vector<ExprRef> to_left, to_right, keep;
      for (const ExprRef& conjunct : SplitConjuncts(filter.predicate())) {
        if (ReferencesOnly(conjunct, left_names)) {
          to_left.push_back(conjunct);
        } else if (join.join_type() == JoinType::kInner &&
                   ReferencesOnly(conjunct, right_names)) {
          to_right.push_back(conjunct);
        } else {
          keep.push_back(conjunct);
        }
      }
      if (to_left.empty() && to_right.empty()) return nullptr;
      *changed = true;
      PlanRef new_left = join.left();
      PlanRef new_right = join.right();
      if (!to_left.empty()) {
        new_left = SinkFilter(new_left, AndAll(std::move(to_left)), changed);
      }
      if (!to_right.empty()) {
        new_right =
            SinkFilter(new_right, AndAll(std::move(to_right)), changed);
      }
      PlanRef new_join = std::make_shared<JoinOp>(
          new_left, new_right, join.join_type(), join.condition(),
          join.declared_cardinality(), join.is_case_join());
      if (keep.empty()) return new_join;
      return std::make_shared<FilterOp>(new_join, AndAll(std::move(keep)));
    }
    case OpKind::kUnionAll: {
      const auto& u = static_cast<const UnionAllOp&>(*child);
      std::vector<PlanRef> new_children;
      for (const PlanRef& uc : child->children()) {
        std::vector<std::string> child_names = uc->OutputNames();
        // Positional rename: union output name -> child output name.
        std::map<std::string, ExprRef> rename;
        for (size_t p = 0; p < u.output_names().size(); ++p) {
          rename[u.output_names()[p]] = Col(child_names[p]);
        }
        ExprRef renamed = RemapColumns(
            filter.predicate(), [&](const std::string& name) -> ExprRef {
              auto it = rename.find(name);
              return it == rename.end() ? nullptr : it->second;
            });
        new_children.push_back(SinkFilter(uc, std::move(renamed), changed));
      }
      *changed = true;
      return std::make_shared<UnionAllOp>(std::move(new_children),
                                          u.output_names(),
                                          u.branch_id_column(),
                                          u.logical_table());
    }
    case OpKind::kSort: {
      const auto& sort = static_cast<const SortOp&>(*child);
      *changed = true;
      return std::make_shared<SortOp>(
          SinkFilter(child->child(0), filter.predicate(), changed),
          sort.keys());
    }
    case OpKind::kAggregate: {
      // Conjuncts that reference only group columns select whole groups
      // and may be applied before aggregation.
      const auto& agg = static_cast<const AggregateOp&>(*child);
      if (agg.group_by().empty()) return nullptr;
      std::map<std::string, ExprRef> group_defs;
      std::vector<std::string> group_names;
      for (const AggregateOp::GroupItem& g : agg.group_by()) {
        group_defs[g.name] = g.expr;
        group_names.push_back(g.name);
      }
      std::vector<ExprRef> push, keep;
      for (const ExprRef& conjunct : SplitConjuncts(filter.predicate())) {
        if (ReferencesOnly(conjunct, group_names)) {
          push.push_back(RemapColumns(
              conjunct, [&](const std::string& name) -> ExprRef {
                auto it = group_defs.find(name);
                return it == group_defs.end() ? nullptr : it->second;
              }));
        } else {
          keep.push_back(conjunct);
        }
      }
      if (push.empty()) return nullptr;
      *changed = true;
      PlanRef new_agg = std::make_shared<AggregateOp>(
          SinkFilter(child->child(0), AndAll(std::move(push)), changed),
          agg.group_by(), agg.aggregates());
      if (keep.empty()) return new_agg;
      return std::make_shared<FilterOp>(std::move(new_agg),
                                        AndAll(std::move(keep)));
    }
    default:
      return nullptr;
  }
}

}  // namespace

PlanRef PassFilterPushdown(const PlanRef& plan, const OptimizerConfig& config,
                           bool* changed) {
  (void)config;
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kFilter) return nullptr;
    return PushFilter(static_cast<const FilterOp&>(*node), changed);
  });
}

PlanRef PassDistinctElimination(const PlanRef& plan,
                                const OptimizerConfig& config, bool* changed) {
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kDistinct) return nullptr;
    RelProps props = DeriveProps(node->child(0), config.derivation);
    if (props.HasKey(node->child(0)->OutputNames())) {
      *changed = true;
      return node->child(0);
    }
    return nullptr;
  });
}

}  // namespace vdm

// Generic rewrites: constant folding, filter pushdown, distinct elimination.
#include <algorithm>
#include <map>
#include <optional>
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

PlanRef PassConstantFolding(const PlanRef& plan,
                            const OptimizerConfig& /*config*/,
                            InferenceEngine& /*engine*/, bool* changed) {
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

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Type of an output column that passes through unchanged from a base
/// table column (through renames, group keys and UNION ALL positions);
/// nullopt when it is computed on the way or cannot be traced.
std::optional<DataType> PassThroughType(const PlanRef& plan,
                                        const std::string& name) {
  auto traced = [](const PlanRef& input,
                   const ExprRef& expr) -> std::optional<DataType> {
    if (expr->kind() != ExprKind::kColumnRef) return std::nullopt;
    return PassThroughType(input,
                           static_cast<const ColumnRefExpr&>(*expr).name());
  };
  switch (plan->kind()) {
    case OpKind::kScan: {
      const auto& scan = static_cast<const ScanOp&>(*plan);
      for (size_t c : scan.column_indexes()) {
        if (scan.QualifiedName(c) == name) {
          return scan.table_schema().column(c).type;
        }
      }
      return std::nullopt;
    }
    case OpKind::kProject:
      for (const ProjectOp::Item& item :
           static_cast<const ProjectOp&>(*plan).items()) {
        if (item.name == name) return traced(plan->child(0), item.expr);
      }
      return std::nullopt;
    case OpKind::kJoin:
      for (const PlanRef& side : plan->children()) {
        if (Contains(side->OutputNames(), name)) {
          return PassThroughType(side, name);
        }
      }
      return std::nullopt;
    case OpKind::kAggregate: {
      const auto& agg = static_cast<const AggregateOp&>(*plan);
      for (const AggregateOp::GroupItem& g : agg.group_by()) {
        if (g.name == name) return traced(plan->child(0), g.expr);
      }
      for (const AggregateOp::AggItem& a : agg.aggregates()) {
        if (a.name != name) continue;
        for (const AggregateOp::GroupItem& g : agg.group_by()) {
          if (a.expr->Equals(*g.expr)) return traced(plan->child(0), g.expr);
        }
        return std::nullopt;
      }
      return std::nullopt;
    }
    case OpKind::kUnionAll: {
      const auto& u = static_cast<const UnionAllOp&>(*plan);
      auto pos = std::find(u.output_names().begin(), u.output_names().end(),
                           name);
      if (pos == u.output_names().end()) return std::nullopt;
      const auto p = static_cast<size_t>(pos - u.output_names().begin());
      std::optional<DataType> type;
      for (const PlanRef& branch : plan->children()) {
        std::optional<DataType> t =
            PassThroughType(branch, branch->OutputNames()[p]);
        if (!t.has_value() || (type.has_value() && *type != *t)) {
          return std::nullopt;
        }
        type = t;
      }
      return type;
    }
    case OpKind::kFilter:
    case OpKind::kSort:
    case OpKind::kLimit:
    case OpKind::kDistinct:
      return PassThroughType(plan->child(0), name);
  }
  return std::nullopt;
}

/// Predicate transfer across a join: for every `col = literal` conjunct in
/// `pushed` (bound for the `from` side) whose column the join condition
/// equates, at top level, to a same-typed column of the `to` side, appends
/// `other = literal` to `to_conjuncts`. Every joined row has col = other,
/// so the transferred filter only drops `to` rows that cannot match a
/// surviving `from` row.
void TransferEqualities(const JoinOp& join, const std::vector<ExprRef>& pushed,
                        const PlanRef& from, const PlanRef& to,
                        const std::vector<std::string>& from_names,
                        const std::vector<std::string>& to_names,
                        std::vector<ExprRef>* to_conjuncts) {
  for (const ExprRef& conjunct : pushed) {
    std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
    if (!cc.has_value() || cc->value.is_null() ||
        Contains(to_names, cc->column)) {
      continue;
    }
    for (const ExprRef& cond : SplitConjuncts(join.condition())) {
      std::optional<ColumnPair> pair = MatchColumnEqColumn(cond);
      if (!pair.has_value()) continue;
      std::string other;
      if (pair->left == cc->column) other = pair->right;
      if (pair->right == cc->column) other = pair->left;
      if (other.empty() || !Contains(to_names, other) ||
          Contains(from_names, other)) {
        continue;
      }
      std::optional<DataType> from_type = PassThroughType(from, cc->column);
      std::optional<DataType> to_type = PassThroughType(to, other);
      if (!from_type.has_value() || from_type != to_type) continue;
      auto pins_same = [&](const ExprRef& existing) {
        std::optional<ColumnConstant> e = MatchColumnEqConstant(existing);
        return e.has_value() && e->column == other && e->value == cc->value;
      };
      if (std::none_of(to_conjuncts->begin(), to_conjuncts->end(),
                       pins_same)) {
        to_conjuncts->push_back(Eq(Col(other), Lit(cc->value)));
      }
    }
  }
}

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
      // Equalities cross from the preserved left side to the right; on an
      // INNER join also back, but never out of a null-supplying side.
      if (!join.is_case_join()) {
        const std::vector<ExprRef> pushed_right = to_right;
        TransferEqualities(join, to_left, join.left(), join.right(),
                           left_names, right_names, &to_right);
        if (join.join_type() == JoinType::kInner) {
          TransferEqualities(join, pushed_right, join.right(), join.left(),
                             right_names, left_names, &to_left);
        }
      }
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
      // and may be applied before aggregation. An output item that merely
      // repeats a group expression (the binder's `acdoca.rbukrs AS
      // rbukrs`) is a group column too.
      const auto& agg = static_cast<const AggregateOp&>(*child);
      if (agg.group_by().empty()) return nullptr;
      std::map<std::string, ExprRef> group_defs;
      std::vector<std::string> group_names;
      for (const AggregateOp::GroupItem& g : agg.group_by()) {
        group_defs[g.name] = g.expr;
        group_names.push_back(g.name);
      }
      for (const AggregateOp::AggItem& a : agg.aggregates()) {
        for (const AggregateOp::GroupItem& g : agg.group_by()) {
          if (!a.expr->Equals(*g.expr)) continue;
          if (group_defs.emplace(a.name, g.expr).second) {
            group_names.push_back(a.name);
          }
          break;
        }
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

PlanRef PassFilterPushdown(const PlanRef& plan,
                           const OptimizerConfig& /*config*/,
                           InferenceEngine& /*engine*/, bool* changed) {
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kFilter) return nullptr;
    return PushFilter(static_cast<const FilterOp&>(*node), changed);
  });
}

PlanRef PassDistinctElimination(const PlanRef& plan,
                                const OptimizerConfig& /*config*/,
                                InferenceEngine& engine, bool* changed) {
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kDistinct) return nullptr;
    std::vector<std::string> names = node->child(0)->OutputNames();
    if (engine.Infer(node->child(0))
            .UniqueOn(std::set<std::string>(names.begin(), names.end()))) {
      *changed = true;
      return node->child(0);
    }
    return nullptr;
  });
}

}  // namespace vdm

// Combined projection pruning and unused-augmentation-join (UAJ)
// elimination (paper §4). A single top-down pass carries the set of columns
// required by ancestors; a join whose right side contributes no required
// column and is *purely augmenting* (AJ 1 / AJ 2) is replaced by its anchor.
//
// The `arity_flexible` flag tracks whether the current subtree's output
// column list may shrink (true below Project/Aggregate; false below a
// UNION ALL child or DISTINCT, whose semantics are positional/whole-row).
#include <algorithm>
#include <set>

#include "optimizer/optimizer.h"

namespace vdm {

namespace {

using NameSet = std::set<std::string>;

void AddRefs(const ExprRef& expr, NameSet* out) {
  std::vector<std::string> refs;
  CollectColumnRefs(expr, &refs);
  out->insert(refs.begin(), refs.end());
}

PlanRef Prune(const PlanRef& plan, const NameSet& required,
              bool arity_flexible, const OptimizerConfig& config,
              InferenceEngine& engine, bool* changed);

PlanRef PruneScan(const std::shared_ptr<const ScanOp>& scan,
                  const NameSet& required, bool arity_flexible,
                  const OptimizerConfig& config, bool* changed) {
  if (!arity_flexible || !config.projection_pruning) return scan;
  std::vector<size_t> kept;
  for (size_t i = 0; i < scan->column_indexes().size(); ++i) {
    size_t schema_idx = scan->column_indexes()[i];
    if (required.count(scan->QualifiedName(schema_idx)) > 0) {
      kept.push_back(schema_idx);
    }
  }
  if (kept.empty()) {
    // Keep one column so the scan still yields a row count (e.g. for
    // count(*)): prefer the first primary-key column.
    std::vector<std::string> pk = scan->table_schema().PrimaryKey();
    size_t keep_idx = scan->column_indexes().empty()
                          ? 0
                          : scan->column_indexes()[0];
    if (!pk.empty()) {
      int idx = scan->table_schema().FindColumn(pk[0]);
      if (idx >= 0) keep_idx = static_cast<size_t>(idx);
    }
    kept.push_back(keep_idx);
  }
  if (kept == scan->column_indexes()) return scan;
  *changed = true;
  return scan->WithColumns(std::move(kept));
}

PlanRef PruneProject(const std::shared_ptr<const ProjectOp>& project,
                     const NameSet& required, bool arity_flexible,
                     const OptimizerConfig& config, InferenceEngine& engine,
                     bool* changed) {
  std::vector<ProjectOp::Item> kept;
  if (arity_flexible && config.projection_pruning) {
    for (const ProjectOp::Item& item : project->items()) {
      if (required.count(item.name) > 0) kept.push_back(item);
    }
    if (kept.empty()) kept.push_back(project->items()[0]);
  } else {
    kept = project->items();
  }
  NameSet child_required;
  for (const ProjectOp::Item& item : kept) AddRefs(item.expr, &child_required);
  PlanRef new_child =
      Prune(project->child(0), child_required, /*arity_flexible=*/true,
            config, engine, changed);
  if (kept.size() == project->items().size() &&
      new_child == project->child(0)) {
    return project;
  }
  *changed = true;
  return std::make_shared<ProjectOp>(std::move(new_child), std::move(kept));
}

PlanRef PruneJoin(const std::shared_ptr<const JoinOp>& join,
                  const NameSet& required, bool arity_flexible,
                  const OptimizerConfig& config, InferenceEngine& engine,
                  bool* changed) {
  std::vector<std::string> left_names = join->left()->OutputNames();
  std::vector<std::string> right_names = join->right()->OutputNames();
  NameSet left_set(left_names.begin(), left_names.end());
  NameSet right_set(right_names.begin(), right_names.end());

  bool right_used = false, left_used = false;
  for (const std::string& name : required) {
    if (right_set.count(name) > 0) right_used = true;
    if (left_set.count(name) > 0) left_used = true;
  }

  if (!right_used && arity_flexible && config.uaj_elimination) {
    if (engine.Analyze(*join).purely_augmenting) {
      *changed = true;
      return Prune(join->left(), required, arity_flexible, config, engine,
                   changed);
    }
  }
  // Inner joins are symmetric: an unused *left* side that augments the
  // right (e.g. the referenced side of a foreign key after join
  // reordering) is removable too.
  if (!left_used && arity_flexible && config.uaj_elimination &&
      join->join_type() == JoinType::kInner) {
    auto flipped = std::make_shared<JoinOp>(
        join->right(), join->left(), JoinType::kInner, join->condition(),
        DeclaredCardinality::kNone, join->is_case_join());
    if (engine.Analyze(*flipped).purely_augmenting) {
      *changed = true;
      return Prune(join->right(), required, arity_flexible, config, engine,
                   changed);
    }
  }

  NameSet cond_refs;
  AddRefs(join->condition(), &cond_refs);
  NameSet left_required, right_required;
  for (const std::string& name : required) {
    if (left_set.count(name) > 0) left_required.insert(name);
    if (right_set.count(name) > 0) right_required.insert(name);
  }
  for (const std::string& name : cond_refs) {
    if (left_set.count(name) > 0) left_required.insert(name);
    if (right_set.count(name) > 0) right_required.insert(name);
  }
  PlanRef new_left =
      Prune(join->left(), left_required, arity_flexible, config, engine,
            changed);
  PlanRef new_right =
      Prune(join->right(), right_required, arity_flexible, config, engine,
            changed);
  if (new_left == join->left() && new_right == join->right()) return join;
  return join->WithChildren({std::move(new_left), std::move(new_right)});
}

PlanRef PruneUnionAll(const std::shared_ptr<const UnionAllOp>& u,
                      const NameSet& required, bool arity_flexible,
                      const OptimizerConfig& config, InferenceEngine& engine,
                      bool* changed) {
  size_t arity = u->output_names().size();
  std::vector<size_t> kept_positions;
  if (arity_flexible && config.projection_pruning) {
    for (size_t p = 0; p < arity; ++p) {
      if (required.count(u->output_names()[p]) > 0) kept_positions.push_back(p);
    }
    if (kept_positions.empty()) kept_positions.push_back(0);
  } else {
    for (size_t p = 0; p < arity; ++p) kept_positions.push_back(p);
  }

  bool shrink = kept_positions.size() < arity;
  std::vector<PlanRef> new_children;
  bool any_child_changed = false;
  for (const PlanRef& child : u->children()) {
    std::vector<std::string> child_names = child->OutputNames();
    NameSet child_required;
    std::vector<std::string> kept_child_names;
    for (size_t p : kept_positions) {
      child_required.insert(child_names[p]);
      kept_child_names.push_back(child_names[p]);
    }
    PlanRef new_child =
        Prune(child, child_required, /*arity_flexible=*/true, config, engine,
              changed);
    // Normalize the child to exactly the kept columns, in order.
    std::vector<std::string> actual = new_child->OutputNames();
    if (actual != kept_child_names) {
      std::vector<ProjectOp::Item> items;
      for (const std::string& name : kept_child_names) {
        items.push_back({Col(name), name});
      }
      new_child = std::make_shared<ProjectOp>(new_child, std::move(items));
    }
    any_child_changed |= (new_child != child);
    new_children.push_back(std::move(new_child));
  }
  if (!shrink && !any_child_changed) return u;
  *changed = true;

  std::vector<std::string> new_names;
  int new_branch = -1;
  for (size_t i = 0; i < kept_positions.size(); ++i) {
    new_names.push_back(u->output_names()[kept_positions[i]]);
    if (u->branch_id_column() >= 0 &&
        kept_positions[i] == static_cast<size_t>(u->branch_id_column())) {
      new_branch = static_cast<int>(i);
    }
  }
  return std::make_shared<UnionAllOp>(std::move(new_children),
                                      std::move(new_names), new_branch,
                                      u->logical_table());
}

PlanRef Prune(const PlanRef& plan, const NameSet& required,
              bool arity_flexible, const OptimizerConfig& config,
              InferenceEngine& engine, bool* changed) {
  switch (plan->kind()) {
    case OpKind::kScan:
      return PruneScan(std::static_pointer_cast<const ScanOp>(plan), required,
                       arity_flexible, config, changed);
    case OpKind::kFilter: {
      const auto& filter = static_cast<const FilterOp&>(*plan);
      NameSet child_required = required;
      AddRefs(filter.predicate(), &child_required);
      PlanRef new_child =
          Prune(plan->child(0), child_required, arity_flexible, config,
                engine, changed);
      if (new_child == plan->child(0)) return plan;
      return plan->WithChildren({std::move(new_child)});
    }
    case OpKind::kProject:
      return PruneProject(std::static_pointer_cast<const ProjectOp>(plan),
                          required, arity_flexible, config, engine, changed);
    case OpKind::kJoin:
      return PruneJoin(std::static_pointer_cast<const JoinOp>(plan), required,
                       arity_flexible, config, engine, changed);
    case OpKind::kAggregate: {
      const auto& agg = static_cast<const AggregateOp&>(*plan);
      // Unused aggregate items can be dropped (group items cannot — they
      // define the grouping semantics).
      std::vector<AggregateOp::AggItem> kept_aggs;
      if (arity_flexible && config.projection_pruning) {
        for (const AggregateOp::AggItem& item : agg.aggregates()) {
          if (required.count(item.name) > 0) kept_aggs.push_back(item);
        }
        if (kept_aggs.empty() && agg.group_by().empty() &&
            !agg.aggregates().empty()) {
          kept_aggs.push_back(agg.aggregates()[0]);
        }
      } else {
        kept_aggs = agg.aggregates();
      }
      NameSet child_required;
      for (const AggregateOp::GroupItem& g : agg.group_by()) {
        AddRefs(g.expr, &child_required);
      }
      for (const AggregateOp::AggItem& a : kept_aggs) {
        AddRefs(a.expr, &child_required);
      }
      PlanRef new_child = Prune(plan->child(0), child_required,
                                /*arity_flexible=*/true, config, engine,
                                changed);
      if (new_child == plan->child(0) &&
          kept_aggs.size() == agg.aggregates().size()) {
        return plan;
      }
      *changed = true;
      return std::make_shared<AggregateOp>(std::move(new_child),
                                           agg.group_by(),
                                           std::move(kept_aggs));
    }
    case OpKind::kUnionAll:
      return PruneUnionAll(std::static_pointer_cast<const UnionAllOp>(plan),
                           required, arity_flexible, config, engine, changed);
    case OpKind::kSort: {
      const auto& sort = static_cast<const SortOp&>(*plan);
      NameSet child_required = required;
      for (const SortOp::SortKey& key : sort.keys()) {
        AddRefs(key.expr, &child_required);
      }
      PlanRef new_child = Prune(plan->child(0), child_required,
                                arity_flexible, config, engine, changed);
      if (new_child == plan->child(0)) return plan;
      return plan->WithChildren({std::move(new_child)});
    }
    case OpKind::kLimit: {
      PlanRef new_child =
          Prune(plan->child(0), required, arity_flexible, config, engine,
                changed);
      if (new_child == plan->child(0)) return plan;
      return plan->WithChildren({std::move(new_child)});
    }
    case OpKind::kDistinct: {
      // All child columns are semantically used by DISTINCT; the child's
      // arity must not change.
      std::vector<std::string> child_names = plan->child(0)->OutputNames();
      NameSet child_required(child_names.begin(), child_names.end());
      PlanRef new_child = Prune(plan->child(0), child_required,
                                /*arity_flexible=*/false, config, engine,
                                changed);
      if (new_child == plan->child(0)) return plan;
      return plan->WithChildren({std::move(new_child)});
    }
  }
  return plan;
}

}  // namespace

PlanRef PassPruneAndEliminate(const PlanRef& plan,
                              const OptimizerConfig& config,
                              InferenceEngine& engine, bool* changed) {
  std::vector<std::string> outputs = plan->OutputNames();
  NameSet required(outputs.begin(), outputs.end());
  // The root's output columns are the query result and must be preserved.
  return Prune(plan, required, /*arity_flexible=*/false, config, engine,
               changed);
}

}  // namespace vdm

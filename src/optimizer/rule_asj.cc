// Augmentation self-join (ASJ) elimination — paper §5.3 and §6.3.
//
// An ASJ re-joins a view with its own base table on the key to expose
// fields the view does not project (the custom-fields extension pattern,
// Fig. 8/9). Unlike a UAJ it can be removed *even when its fields are
// used*: references to augmenter columns are rewired to the anchor-side
// instance of the same table, widening interior projections as needed.
//
// Preconditions checked here (Fig. 10):
//  * the join is an equi-join whose augmenter-side columns cover a unique
//    key of the augmenter table,
//  * each anchor-side join column passes through, un-null-extended, from a
//    scan of the *same* table with the *same* base column,
//  * the augmenter's predicate is subsumed by the predicates the anchor
//    applies to that scan (Fig. 10(c)),
//  * augmenter columns can be exposed from the anchor (projections are
//    widened; aggregations/DISTINCT block the rewiring).
//
// UNION ALL extensions (Fig. 13): a union anchor is handled through
// union-level origins (13a); union on BOTH sides is handled by a per-branch
// decomposition that requires the explicit case-join intent to be robust
// (13b / Fig. 14) — without the intent, only canonical shapes (bare-scan
// augmenter branches, union directly below the join) are recognized.
#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "analysis/infer/inference.h"
#include "common/string_util.h"
#include "expr/fold.h"
#include "optimizer/optimizer.h"
#include "optimizer/rewrite_util.h"

namespace vdm {

namespace {

/// The (scan id, base table) of the first output column, in name order,
/// that passes through un-null-extended from a source; {0, ""} if none.
/// Identifies the base-table scan a UNION ALL branch reads.
std::pair<uint64_t, std::string> FirstDirectSource(const InferredProps& props) {
  for (const auto& [name, sources] : props.sources) {
    const ValueSource* origin = props.DirectSource(name);
    if (origin != nullptr && !origin->null_extended) {
      return {origin->source_id, origin->table};
    }
  }
  return {0, ""};
}

// ---------------------------------------------------------------------------
// The simple ASJ path (Fig. 10 / Fig. 13(a)).

PlanRef TrySimpleAsj(const std::shared_ptr<const JoinOp>& join,
                     const OptimizerConfig& config, InferenceEngine& engine) {
  std::optional<SimpleRelation> aug = ExtractSimpleRelation(join->right());
  if (!aug.has_value()) return nullptr;

  const InferredProps& left_props = engine.Infer(join->left());
  JoinAnalysis analysis = engine.Analyze(*join);
  if (!analysis.pure_equi || analysis.equi_pairs.empty()) return nullptr;

  const std::string aug_table = ToLower(aug->scan->table_name());

  // Map equi pairs onto base columns and locate the anchor source.
  uint64_t source_id = 0;
  std::set<std::string> covered_base;
  for (const auto& [l, r] : analysis.equi_pairs) {
    // A pair against a literal augmenter column (e.g. a branch id) is
    // acceptable when the anchor pins the same constant on its side.
    auto lit = aug->out_literals.find(r);
    if (lit != aug->out_literals.end()) {
      auto cit = left_props.constants.find(l);
      if (cit == left_props.constants.end() ||
          !cit->second.Equals(lit->second)) {
        return nullptr;
      }
      continue;
    }
    auto bit = aug->out_to_base.find(r);
    if (bit == aug->out_to_base.end()) return nullptr;
    const std::string& bc = bit->second;
    const ValueSource* origin = left_props.DirectSource(l);
    if (origin == nullptr || origin->null_extended ||
        origin->table != aug_table || origin->column != bc) {
      return nullptr;
    }
    if (source_id == 0) {
      source_id = origin->source_id;
    } else if (source_id != origin->source_id) {
      return nullptr;
    }
    covered_base.insert(bc);
  }
  if (source_id == 0) return nullptr;

  // Pinned augmenter columns (col = const predicates) extend coverage.
  for (const ExprRef& pred : aug->base_preds) {
    std::optional<ColumnConstant> cc = MatchColumnEqConstant(pred);
    if (cc.has_value()) covered_base.insert(cc->column);
  }

  // The covered columns must include a unique key of the augmenter table,
  // so each anchor row joins with exactly its own base row. The coverage
  // test is shared with the general self-join rule and the catalog audit
  // (analysis/infer), so the rules cannot disagree about provability.
  if (!TableKeyCovered(aug->scan->table_schema(), covered_base,
                       engine.options())) {
    return nullptr;
  }

  // Locate the anchor source node; a union anchor needs Fig. 13(a) support.
  PlanRef source = FindNodeById(join->left(), source_id);
  if (!source) return nullptr;
  if (source->kind() == OpKind::kUnionAll && !config.asj_union_all_anchor) {
    return nullptr;
  }
  if (source->kind() != OpKind::kScan &&
      source->kind() != OpKind::kUnionAll) {
    return nullptr;
  }

  // Predicate subsumption (Fig. 10(c)): the augmenter predicate must be
  // implied by what the anchor already applies to the same table.
  if (!aug->base_preds.empty()) {
    std::vector<ExprRef> anchor_preds;
    if (source->kind() == OpKind::kScan) {
      CollectScanPredicates(join->left(), source_id, engine, &anchor_preds);
    } else {
      // Union anchor: each child must subsume on its branch scan.
      const auto& u = static_cast<const UnionAllOp&>(*source);
      for (const PlanRef& child : u.children()) {
        uint64_t branch_scan = FirstDirectSource(engine.Infer(child)).first;
        if (branch_scan == 0) return nullptr;
        std::vector<ExprRef> branch_preds;
        CollectScanPredicates(child, branch_scan, engine, &branch_preds);
        if (!ConjunctsSubsume(branch_preds, aug->base_preds)) return nullptr;
      }
      anchor_preds = aug->base_preds;  // per-branch check passed
    }
    if (!ConjunctsSubsume(anchor_preds, aug->base_preds)) return nullptr;
  }

  // Rewire: every augmenter output column must be available (or exposable)
  // from the anchor-side instance.
  std::vector<std::string> left_names = join->left()->OutputNames();
  std::vector<std::string> right_names = join->right()->OutputNames();
  std::map<std::string, std::string> right_to_left;  // right name -> left name
  std::map<std::string, Value> right_literals;       // right name -> literal
  std::vector<std::string> missing_base;
  std::map<std::string, std::string> pending;  // right name -> base col
  for (const std::string& rn : right_names) {
    auto lit = aug->out_literals.find(rn);
    if (lit != aug->out_literals.end()) {
      right_literals.emplace(rn, lit->second);
      continue;
    }
    auto bit = aug->out_to_base.find(rn);
    if (bit == aug->out_to_base.end()) return nullptr;
    const std::string& bc = bit->second;
    std::string found;
    for (const auto& [name, sources] : left_props.sources) {
      const ValueSource* origin = left_props.DirectSource(name);
      if (origin != nullptr && origin->source_id == source_id &&
          origin->column == bc && !origin->null_extended) {
        found = name;
        break;
      }
    }
    if (!found.empty()) {
      right_to_left[rn] = found;
    } else {
      if (std::find(missing_base.begin(), missing_base.end(), bc) ==
          missing_base.end()) {
        missing_base.push_back(bc);
      }
      pending[rn] = bc;
    }
  }

  PlanRef new_left = join->left();
  if (!missing_base.empty()) {
    std::optional<Exposure> e =
        ExposeColumns(join->left(), source_id, missing_base, engine);
    if (!e.has_value()) return nullptr;
    new_left = e->plan;
    for (const auto& [rn, bc] : pending) {
      right_to_left[rn] = e->base_to_name.at(bc);
    }
  }

  // Final projection reproduces the join's output names exactly.
  std::vector<ProjectOp::Item> items;
  for (const std::string& ln : left_names) items.push_back({Col(ln), ln});
  for (const std::string& rn : right_names) {
    auto lit = right_literals.find(rn);
    if (lit != right_literals.end()) {
      items.push_back({Lit(lit->second), rn});
    } else {
      items.push_back({Col(right_to_left.at(rn)), rn});
    }
  }
  return std::make_shared<ProjectOp>(std::move(new_left), std::move(items));
}

// ---------------------------------------------------------------------------
// Case join over UNION ALL on both sides (Fig. 13(b)).
//
// Strategy: push the case join down through the anchor subtree
// (projections, filters, joins on the non-anchor side) until the anchor
// UNION ALL surfaces, then decompose per branch — each anchor branch joins
// only its matching augmenter branch (the branch-id conjunct folds away) —
// and eliminate every branch join as a simple ASJ. The rewrite is
// committed only if every branch eliminates, so a failed recognition
// leaves the original plan untouched (Fig. 14(a) behaviour).

/// If the plan is a pass-through projection stack over a UNION ALL,
/// returns the union and the mapping output-name -> union-column position.
std::shared_ptr<const UnionAllOp> PeelToUnion(
    const PlanRef& plan, std::map<std::string, size_t>* out_to_position) {
  if (plan->kind() == OpKind::kUnionAll) {
    auto u = std::static_pointer_cast<const UnionAllOp>(plan);
    for (size_t p = 0; p < u->output_names().size(); ++p) {
      (*out_to_position)[u->output_names()[p]] = p;
    }
    return u;
  }
  if (plan->kind() == OpKind::kProject) {
    const auto& project = static_cast<const ProjectOp&>(*plan);
    std::map<std::string, size_t> child_map;
    std::shared_ptr<const UnionAllOp> u =
        PeelToUnion(plan->child(0), &child_map);
    if (!u) return nullptr;
    for (const ProjectOp::Item& item : project.items()) {
      if (item.expr->kind() != ExprKind::kColumnRef) return nullptr;
      auto it = child_map.find(
          static_cast<const ColumnRefExpr&>(*item.expr).name());
      if (it == child_map.end()) return nullptr;
      (*out_to_position)[item.name] = it->second;
    }
    return u;
  }
  return nullptr;
}

/// Decomposes the case join at an anchor UNION ALL: each anchor branch is
/// joined with its matching augmenter branch and eliminated via
/// TrySimpleAsj. Returns the rebuilt union (anchor columns + augmenter
/// columns appended) or nullptr.
PlanRef DecomposeAtUnion(const std::shared_ptr<const UnionAllOp>& anchor,
                         const std::shared_ptr<const UnionAllOp>& aug,
                         JoinType join_type, const ExprRef& condition,
                         const std::vector<std::string>& aug_names,
                         const OptimizerConfig& config,
                         InferenceEngine& engine) {
  if (anchor->NumChildren() != aug->NumChildren()) return nullptr;

  // Extract and index the augmenter branches by base table.
  std::map<std::string, size_t> aug_by_table;
  for (size_t j = 0; j < aug->NumChildren(); ++j) {
    std::optional<SimpleRelation> rel = ExtractSimpleRelation(aug->child(j));
    if (!rel.has_value()) return nullptr;
    std::string table = ToLower(rel->scan->table_name());
    if (!aug_by_table.emplace(table, j).second) return nullptr;  // ambiguous
  }

  std::vector<PlanRef> branch_plans;
  for (size_t i = 0; i < anchor->NumChildren(); ++i) {
    const PlanRef& anchor_child = anchor->child(i);
    const InferredProps& anchor_cp = engine.Infer(anchor_child);
    auto match = aug_by_table.find(FirstDirectSource(anchor_cp).second);
    if (match == aug_by_table.end()) return nullptr;
    const PlanRef& aug_child = aug->child(match->second);

    // Positional renames: anchor union names -> anchor child names,
    // augmenter internal names -> augmenter child names.
    std::map<std::string, ExprRef> rename;
    std::vector<std::string> anchor_child_names = anchor_child->OutputNames();
    for (size_t p = 0; p < anchor->output_names().size(); ++p) {
      rename[anchor->output_names()[p]] = Col(anchor_child_names[p]);
    }
    std::vector<std::string> aug_child_names = aug_child->OutputNames();
    for (size_t p = 0; p < aug_names.size(); ++p) {
      rename[aug_names[p]] = Col(aug_child_names[p]);
    }
    ExprRef branch_cond = RemapColumns(
        condition, [&](const std::string& name) -> ExprRef {
          auto it = rename.find(name);
          return it == rename.end() ? nullptr : it->second;
        });

    // Drop branch-id conjuncts: both sides pinned to the same constant
    // fold away; contradictory constants mean the table pairing is wrong.
    const InferredProps& aug_cp = engine.Infer(aug_child);
    auto find_const = [&](const std::string& name) -> const Value* {
      auto it1 = anchor_cp.constants.find(name);
      if (it1 != anchor_cp.constants.end()) return &it1->second;
      auto it2 = aug_cp.constants.find(name);
      if (it2 != aug_cp.constants.end()) return &it2->second;
      return nullptr;
    };
    std::vector<ExprRef> kept;
    for (const ExprRef& conjunct : SplitConjuncts(branch_cond)) {
      std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
      if (pair.has_value()) {
        const Value* lv = find_const(pair->left);
        const Value* rv = find_const(pair->right);
        if (lv != nullptr && rv != nullptr) {
          if (lv->Equals(*rv)) continue;
          return nullptr;
        }
      }
      kept.push_back(conjunct);
    }
    auto branch_join = std::make_shared<JoinOp>(
        anchor_child, aug_child, join_type, AndAll(std::move(kept)),
        DeclaredCardinality::kNone, /*is_case_join=*/false);
    PlanRef eliminated = TrySimpleAsj(branch_join, config, engine);
    if (!eliminated) return nullptr;
    branch_plans.push_back(std::move(eliminated));
  }

  std::vector<std::string> names = anchor->output_names();
  names.insert(names.end(), aug_names.begin(), aug_names.end());
  return std::make_shared<UnionAllOp>(std::move(branch_plans),
                                      std::move(names),
                                      anchor->branch_id_column(),
                                      anchor->logical_table());
}

/// Pushes the case join down the anchor subtree toward its UNION ALL.
/// On success returns a plan whose outputs are the anchor's output names
/// followed by aug_names. `depth_budget` limits how deep the push may go —
/// 0 models fragile recognition without explicit intent (Fig. 14(a)).
PlanRef PushCaseJoin(const PlanRef& anchor,
                     const std::shared_ptr<const UnionAllOp>& aug,
                     JoinType join_type, const ExprRef& condition,
                     const std::vector<std::string>& aug_names,
                     int depth_budget, const OptimizerConfig& config,
                     InferenceEngine& engine) {
  if (anchor->kind() == OpKind::kUnionAll) {
    return DecomposeAtUnion(
        std::static_pointer_cast<const UnionAllOp>(anchor), aug, join_type,
        condition, aug_names, config, engine);
  }
  if (depth_budget <= 0) return nullptr;

  switch (anchor->kind()) {
    case OpKind::kFilter: {
      // A filter on the anchor commutes with the augmentation join.
      PlanRef inner =
          PushCaseJoin(anchor->child(0), aug, join_type, condition,
                       aug_names, depth_budget - 1, config, engine);
      if (!inner) return nullptr;
      const auto& filter = static_cast<const FilterOp&>(*anchor);
      return std::make_shared<FilterOp>(std::move(inner),
                                        filter.predicate());
    }
    case OpKind::kProject: {
      const auto& project = static_cast<const ProjectOp&>(*anchor);
      std::map<std::string, ExprRef> defs;
      for (const ProjectOp::Item& item : project.items()) {
        defs[item.name] = item.expr;
      }
      ExprRef remapped =
          RemapColumns(condition, [&](const std::string& name) -> ExprRef {
            auto it = defs.find(name);
            return it == defs.end() ? nullptr : it->second;
          });
      PlanRef inner =
          PushCaseJoin(anchor->child(0), aug, join_type, remapped, aug_names,
                       depth_budget - 1, config, engine);
      if (!inner) return nullptr;
      std::vector<ProjectOp::Item> items = project.items();
      for (const std::string& an : aug_names) {
        items.push_back({Col(an), an});
      }
      return std::make_shared<ProjectOp>(std::move(inner), std::move(items));
    }
    case OpKind::kJoin: {
      const auto& inner_join = static_cast<const JoinOp&>(*anchor);
      std::vector<std::string> left_names =
          inner_join.left()->OutputNames();
      // All anchor-side condition references must come from the join's
      // left input for the push to be valid.
      std::vector<std::string> cond_refs;
      CollectColumnRefs(condition, &cond_refs);
      std::set<std::string> left_set(left_names.begin(), left_names.end());
      std::set<std::string> aug_set(aug_names.begin(), aug_names.end());
      for (const std::string& ref : cond_refs) {
        if (aug_set.count(ref) > 0) continue;
        if (left_set.count(ref) == 0) return nullptr;
      }
      PlanRef pushed =
          PushCaseJoin(inner_join.left(), aug, join_type, condition,
                       aug_names, depth_budget - 1, config, engine);
      if (!pushed) return nullptr;
      PlanRef rebuilt = std::make_shared<JoinOp>(
          std::move(pushed), inner_join.right(), inner_join.join_type(),
          inner_join.condition(), inner_join.declared_cardinality(),
          inner_join.is_case_join());
      // Restore column order: anchor outputs first, augmenter columns last.
      std::vector<ProjectOp::Item> items;
      for (const std::string& name : anchor->OutputNames()) {
        items.push_back({Col(name), name});
      }
      for (const std::string& an : aug_names) {
        items.push_back({Col(an), an});
      }
      return std::make_shared<ProjectOp>(std::move(rebuilt),
                                         std::move(items));
    }
    default:
      return nullptr;
  }
}

PlanRef TryCaseJoinAsj(const std::shared_ptr<const JoinOp>& join,
                       const OptimizerConfig& config, InferenceEngine& engine) {
  if (!config.case_join) return nullptr;

  // The augmenter must be a UNION ALL, possibly under a pass-through
  // projection (the binder's alias rename).
  std::map<std::string, size_t> right_to_position;
  std::shared_ptr<const UnionAllOp> aug =
      PeelToUnion(join->right(), &right_to_position);
  if (!aug) return nullptr;

  // Without the explicit case-join intent, recognition is deliberately
  // fragile (paper §6.3 / Fig. 14(a)): the anchor union must be the direct
  // left child and the augmenter branches bare scans.
  bool robust = join->is_case_join();
  if (!robust) {
    for (const PlanRef& child : aug->children()) {
      if (child->kind() != OpKind::kScan) return nullptr;
    }
  }
  int depth_budget = robust ? 64 : 0;

  // Rename the augmenter columns to collision-free internal names.
  std::vector<std::string> aug_names;
  for (size_t p = 0; p < aug->output_names().size(); ++p) {
    aug_names.push_back(StrFormat(
        "__caug%llu.%s", static_cast<unsigned long long>(join->id()),
        aug->output_names()[p].c_str()));
  }
  auto renamed_aug = std::make_shared<UnionAllOp>(
      std::vector<PlanRef>(aug->children().begin(), aug->children().end()),
      aug_names, aug->branch_id_column(), aug->logical_table());

  // Remap augmenter-side condition references onto the internal names.
  std::vector<std::string> right_names = join->right()->OutputNames();
  ExprRef condition =
      RemapColumns(join->condition(), [&](const std::string& name) -> ExprRef {
        auto it = right_to_position.find(name);
        if (it == right_to_position.end()) return nullptr;
        return Col(aug_names[it->second]);
      });

  PlanRef core = PushCaseJoin(join->left(), renamed_aug, join->join_type(),
                              condition, aug_names, depth_budget, config,
                              engine);
  if (!core) return nullptr;

  // Restore the join's exact output naming.
  std::vector<ProjectOp::Item> items;
  for (const std::string& name : join->left()->OutputNames()) {
    items.push_back({Col(name), name});
  }
  for (const std::string& rn : right_names) {
    items.push_back({Col(aug_names[right_to_position.at(rn)]), rn});
  }
  return std::make_shared<ProjectOp>(std::move(core), std::move(items));
}

}  // namespace

PlanRef PassAsjElimination(const PlanRef& plan, const OptimizerConfig& config,
                           InferenceEngine& engine, bool* changed) {
  if (!config.asj_elimination) return plan;
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kJoin) return nullptr;
    auto join = std::static_pointer_cast<const JoinOp>(node);
    PlanRef result = TrySimpleAsj(join, config, engine);
    if (!result) result = TryCaseJoinAsj(join, config, engine);
    if (result) {
      *changed = true;
      return result;
    }
    return nullptr;
  });
}

}  // namespace vdm

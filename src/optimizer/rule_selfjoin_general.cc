// General self-join elimination (ROADMAP item 5), powered by the static
// inference engine (analysis/infer).
//
// Unlike the ASJ rule — which requires every anchor-side join column to be
// a direct pass-through of the augmenter's base column — this rule removes
// ANY join whose right side is a simple relation (Scan/Filter/pass-through
// Project) over a base table also scanned on the left, whenever the
// inference engine proves that in every matched row pair the right row IS
// the left-side anchor row:
//
//  * join-clause equalities `l = b.c` where `l` carries provenance (direct
//    or equality-derived, e.g. through a third relation: a.k = d.ref and
//    d.ref = b.k) from the anchor scan's column c, and/or
//  * per-side constant equalities: the right side pinned `c = v` while the
//    anchor is pinned to the same `v`,
//
// together covering a unique key of the base table. Then at most one right
// row can match, and it is the anchor's own row, so every right output is
// computable from the left side:
//  * INNER: the join becomes a filter (the right side's residual predicate,
//    the condition's left-only conjuncts, and IS NOT NULL on join columns
//    not already provably non-NULL — 3VL: a NULL join column never
//    matches) plus a projection rewiring right outputs to anchor columns;
//  * LEFT OUTER: no rows are dropped; the same predicate set becomes a
//    match guard and each right output is CASE WHEN guard THEN anchor-col
//    ELSE NULL (predicate union). With an empty guard the wiring is direct.
//
// Every fired rewrite is audited by the RewriteAuditor like any other pass
// and differentially tested against the reference oracle (tools/vdmfuzz).
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

/// Collects the ids of all scans of `table` (lower-cased) in the subtree.
void CollectScansOfTable(const PlanRef& plan, const std::string& table,
                         std::vector<uint64_t>* out) {
  if (plan->kind() == OpKind::kScan) {
    const auto& scan = static_cast<const ScanOp&>(*plan);
    if (ToLower(scan.table_name()) == table) out->push_back(plan->id());
  }
  for (const PlanRef& child : plan->children()) {
    CollectScansOfTable(child, table, out);
  }
}

struct Classified {
  /// (left output column, right base column) equalities.
  std::vector<std::pair<std::string, std::string>> equi;  // (left, base col)
  /// Condition conjuncts referencing only left outputs (kept as-is).
  std::vector<ExprRef> left_preds;
  /// Right-side predicates in base-column form: the simple relation's own
  /// filters plus condition conjuncts referencing only right outputs.
  std::vector<ExprRef> right_preds;
  /// Base columns pinned to a constant on the right side.
  std::map<std::string, Value> right_pins;
};

/// Splits the join condition into the shapes the rule can reason about;
/// nullopt on any conjunct it cannot classify (mixed non-equi etc.).
std::optional<Classified> ClassifyCondition(
    const JoinOp& join, const SimpleRelation& rel,
    const InferredProps& left_props) {
  Classified out;
  std::vector<std::string> left_names = join.left()->OutputNames();
  std::set<std::string> left_set(left_names.begin(), left_names.end());
  std::set<std::string> right_set;
  for (const auto& [name, bc] : rel.out_to_base) right_set.insert(name);
  for (const auto& [name, v] : rel.out_literals) right_set.insert(name);

  // The simple relation's own filters are already in base form.
  for (const ExprRef& pred : rel.base_preds) {
    out.right_preds.push_back(pred);
    std::optional<ColumnConstant> cc = MatchColumnEqConstant(pred);
    if (cc.has_value() && !cc->value.is_null()) {
      out.right_pins.emplace(cc->column, cc->value);
    }
  }

  for (const ExprRef& conjunct : SplitConjuncts(join.condition())) {
    if (IsAlwaysTrue(conjunct)) continue;
    std::vector<std::string> refs;
    CollectColumnRefs(conjunct, &refs);
    bool any_left = false, any_right = false, all_known = true;
    for (const std::string& ref : refs) {
      if (left_set.count(ref) > 0) {
        any_left = true;
      } else if (right_set.count(ref) > 0) {
        any_right = true;
      } else {
        all_known = false;
      }
    }
    if (!all_known) return std::nullopt;
    if (!any_right) {
      out.left_preds.push_back(conjunct);
      continue;
    }
    if (!any_left) {
      // Rewrite to base form; literal outputs substitute their value.
      bool ok = true;
      ExprRef base_form =
          RemapColumns(conjunct, [&](const std::string& name) -> ExprRef {
            auto it = rel.out_to_base.find(name);
            if (it != rel.out_to_base.end()) return Col(it->second);
            auto lit = rel.out_literals.find(name);
            if (lit != rel.out_literals.end()) return Lit(lit->second);
            ok = false;
            return nullptr;
          });
      if (!ok) return std::nullopt;
      out.right_preds.push_back(base_form);
      std::optional<ColumnConstant> cc = MatchColumnEqConstant(base_form);
      if (cc.has_value() && !cc->value.is_null()) {
        out.right_pins.emplace(cc->column, cc->value);
      }
      continue;
    }
    // Cross-side conjunct: only plain column equalities qualify.
    std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
    if (!pair.has_value()) return std::nullopt;
    std::string l = left_set.count(pair->left) > 0 ? pair->left : pair->right;
    std::string r = left_set.count(pair->left) > 0 ? pair->right : pair->left;
    if (left_set.count(l) == 0 || right_set.count(r) == 0) {
      return std::nullopt;
    }
    auto lit = rel.out_literals.find(r);
    if (lit != rel.out_literals.end()) {
      // l = <literal right output>: a left-side restriction in disguise.
      if (lit->second.is_null()) return std::nullopt;  // never matches
      out.left_preds.push_back(Eq(Col(l), Lit(lit->second)));
      // If the anchor side pins l to the same literal, this also extends
      // key coverage — handled below through left constants.
      (void)left_props;
      continue;
    }
    auto bit = rel.out_to_base.find(r);
    if (bit == rel.out_to_base.end()) return std::nullopt;
    out.equi.emplace_back(l, bit->second);
  }
  return out;
}

}  // namespace

PlanRef TryEliminateGeneralSelfJoin(const std::shared_ptr<const JoinOp>& join,
                                    InferenceEngine& engine) {
  // Case joins carry UNION ALL intent; they belong to the ASJ machinery.
  if (join->is_case_join()) return nullptr;
  bool left_outer = join->join_type() == JoinType::kLeftOuter;
  if (!left_outer && join->join_type() != JoinType::kInner) return nullptr;

  std::optional<SimpleRelation> rel = ExtractSimpleRelation(join->right());
  if (!rel.has_value()) return nullptr;
  const std::string table = ToLower(rel->scan->table_name());
  const InferOptions& iopts = engine.options();
  const InferredProps& lp = engine.Infer(join->left());

  std::optional<Classified> cls = ClassifyCondition(*join, *rel, lp);
  if (!cls.has_value()) return nullptr;
  if (cls->equi.empty() && cls->right_pins.empty()) return nullptr;

  // Candidate anchors: scans of the same table on the left whose columns
  // feed every cross-side equality.
  std::vector<uint64_t> anchors;
  CollectScansOfTable(join->left(), table, &anchors);

  for (uint64_t anchor : anchors) {
    // Every equi pair must trace (directly or via equality provenance) to
    // this anchor's instance of the base column.
    bool all_traced = true;
    std::set<std::string> covered;
    for (const auto& [l, bc] : cls->equi) {
      const ValueSource* src = lp.FindSource(l, table, bc);
      if (src == nullptr || src->source_id != anchor) {
        all_traced = false;
        break;
      }
      covered.insert(bc);
    }
    if (!all_traced) continue;
    // Condition conjuncts pinning an anchor column (`a.k = 7` stated in the
    // join clause rather than in a filter below it) count toward coverage:
    // they become guard conjuncts, so every surviving/matched row satisfies
    // them.
    std::map<std::string, Value> cond_pins;  // anchor base col -> value
    for (const ExprRef& pred : cls->left_preds) {
      std::optional<ColumnConstant> cc = MatchColumnEqConstant(pred);
      if (!cc.has_value() || cc->value.is_null()) continue;
      auto sit = lp.sources.find(cc->column);
      if (sit == lp.sources.end()) continue;
      for (const ValueSource& src : sit->second) {
        if (src.source_id == anchor && !src.null_extended) {
          cond_pins.emplace(src.column, cc->value);
        }
      }
    }
    // Per-side constant equalities: a right pin `c = v` matched by the
    // anchor-side pin of the same column and value also identifies c.
    for (const auto& [bc, v] : cls->right_pins) {
      const Value* pin = lp.PinOf(anchor, bc);
      if (pin != nullptr && !pin->is_null() && pin->Equals(v)) {
        covered.insert(bc);
        continue;
      }
      auto cit = cond_pins.find(bc);
      if (cit != cond_pins.end() && cit->second.Equals(v)) covered.insert(bc);
    }
    if (!TableKeyCovered(rel->scan->table_schema(), covered, iopts)) continue;

    // Residual right predicates: those the anchor's own predicate stack
    // does not already imply must be re-applied (predicate union).
    std::vector<ExprRef> anchor_preds;
    CollectScanPredicates(join->left(), anchor, engine, &anchor_preds);
    std::vector<ExprRef> residual;
    for (const ExprRef& pred : cls->right_preds) {
      if (!ConjunctsSubsume(anchor_preds, {pred})) residual.push_back(pred);
    }

    // Guard conjuncts, in base/left mixed form for now:
    //  * residual right predicates (base-column form),
    //  * condition conjuncts over left outputs only,
    //  * IS NOT NULL for each equi left column not proven non-NULL (3VL:
    //    a NULL join column never satisfies the equality).
    std::vector<ExprRef> left_guards = cls->left_preds;
    for (const auto& [l, bc] : cls->equi) {
      if (!lp.IsNotNull(l)) {
        left_guards.push_back(
            std::make_shared<IsNullExpr>(Col(l), /*negated=*/true));
      }
    }

    // Wire every right output to the anchor instance. Base columns used by
    // residual predicates must be reachable too.
    std::vector<std::string> left_names = join->left()->OutputNames();
    std::vector<std::string> right_names = join->right()->OutputNames();
    std::map<std::string, std::string> base_to_left;  // base col -> left name
    auto resolve = [&](const std::string& bc) -> bool {
      if (base_to_left.count(bc) > 0) return true;
      for (const auto& [name, sources] : lp.sources) {
        for (const ValueSource& src : sources) {
          if (src.source_id == anchor && src.column == bc &&
              !src.null_extended) {
            base_to_left[bc] = name;
            return true;
          }
        }
      }
      return false;
    };
    std::vector<std::string> missing;
    auto require = [&](const std::string& bc) {
      if (!resolve(bc) &&
          std::find(missing.begin(), missing.end(), bc) == missing.end()) {
        missing.push_back(bc);
      }
    };
    for (const std::string& rn : right_names) {
      auto bit = rel->out_to_base.find(rn);
      if (bit != rel->out_to_base.end()) require(bit->second);
    }
    for (const ExprRef& pred : residual) {
      std::vector<std::string> refs;
      CollectColumnRefs(pred, &refs);
      for (const std::string& bc : refs) require(bc);
    }

    PlanRef new_left = join->left();
    if (!missing.empty()) {
      std::optional<Exposure> e =
          ExposeColumns(join->left(), anchor, missing, engine);
      if (!e.has_value()) continue;
      new_left = e->plan;
      for (const auto& [bc, name] : e->base_to_name) base_to_left[bc] = name;
    }

    // Remap residual predicates from base form onto the wired left names.
    std::vector<ExprRef> guards = std::move(left_guards);
    bool remap_ok = true;
    for (const ExprRef& pred : residual) {
      ExprRef remapped =
          RemapColumns(pred, [&](const std::string& bc) -> ExprRef {
            auto it = base_to_left.find(bc);
            if (it == base_to_left.end()) {
              remap_ok = false;
              return nullptr;
            }
            return Col(it->second);
          });
      if (!remap_ok) break;
      guards.push_back(std::move(remapped));
    }
    if (!remap_ok) continue;

    // Assemble the replacement.
    std::vector<ProjectOp::Item> items;
    for (const std::string& ln : left_names) items.push_back({Col(ln), ln});
    if (!left_outer) {
      // INNER: guard becomes a filter, right outputs wire directly.
      PlanRef body = new_left;
      if (!guards.empty()) {
        body = std::make_shared<FilterOp>(body, AndAll(guards));
      }
      bool wired = true;
      for (const std::string& rn : right_names) {
        auto lit = rel->out_literals.find(rn);
        if (lit != rel->out_literals.end()) {
          items.push_back({Lit(lit->second), rn});
          continue;
        }
        auto bit = rel->out_to_base.find(rn);
        auto wit = bit != rel->out_to_base.end()
                       ? base_to_left.find(bit->second)
                       : base_to_left.end();
        if (wit == base_to_left.end()) {
          wired = false;
          break;
        }
        items.push_back({Col(wit->second), rn});
      }
      if (!wired) continue;
      return std::make_shared<ProjectOp>(std::move(body), std::move(items));
    }
    // LEFT OUTER: rows survive unconditionally; right outputs are guarded.
    ExprRef guard = guards.empty() ? nullptr : AndAll(guards);
    bool wired = true;
    for (const std::string& rn : right_names) {
      ExprRef value;
      auto lit = rel->out_literals.find(rn);
      if (lit != rel->out_literals.end()) {
        value = Lit(lit->second);
      } else {
        auto bit = rel->out_to_base.find(rn);
        auto wit = bit != rel->out_to_base.end()
                       ? base_to_left.find(bit->second)
                       : base_to_left.end();
        if (wit == base_to_left.end()) {
          wired = false;
          break;
        }
        value = Col(wit->second);
      }
      if (guard) {
        value = std::make_shared<CaseExpr>(
            std::vector<ExprRef>{guard, std::move(value), Lit(Value::Null())});
      }
      items.push_back({std::move(value), rn});
    }
    if (!wired) continue;
    return std::make_shared<ProjectOp>(std::move(new_left), std::move(items));
  }
  return nullptr;
}

PlanRef PassSelfJoinGeneral(const PlanRef& plan, const OptimizerConfig& config,
                            InferenceEngine& engine, bool* changed) {
  if (!config.selfjoin_general) return plan;
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kJoin) return nullptr;
    auto join = std::static_pointer_cast<const JoinOp>(node);
    PlanRef result = TryEliminateGeneralSelfJoin(join, engine);
    if (result) {
      *changed = true;
      return result;
    }
    return nullptr;
  });
}

}  // namespace vdm

// Limit pushdown (paper §4.4, Fig. 6): a LIMIT above a purely augmenting
// join applies to the anchor side, because the join neither filters nor
// duplicates anchor rows (and the executor preserves anchor order through
// the left-outer hash join). The limit also commutes with projections, so
// a single application sinks it through the whole Project/AJ stack that a
// VDM view produces.
#include "optimizer/optimizer.h"

namespace vdm {

namespace {

/// True if a limit of the given size already sits on the sink spine
/// (descending through projections and join anchors) of this subtree —
/// the idempotence check for union-all limit distribution.
bool SpineHasLimit(const PlanRef& plan, int64_t limit) {
  const LogicalOp* node = plan.get();
  while (true) {
    switch (node->kind()) {
      case OpKind::kLimit: {
        const auto& l = static_cast<const LimitOp&>(*node);
        return l.limit() == limit && l.offset() == 0;
      }
      case OpKind::kProject:
        node = node->child(0).get();
        break;
      case OpKind::kJoin:
        node = static_cast<const JoinOp&>(*node).left().get();
        break;
      default:
        return false;
    }
  }
}

/// Sinks a LIMIT as deep as projections and augmentation joins allow.
/// Returns the new subtree; sets *descended when it moved at least once.
PlanRef SinkLimit(int64_t limit, int64_t offset, const PlanRef& child,
                  InferenceEngine& engine, bool* descended) {
  if (child->kind() == OpKind::kProject) {
    const auto& project = static_cast<const ProjectOp&>(*child);
    *descended = true;
    bool ignored = false;
    return std::make_shared<ProjectOp>(
        SinkLimit(limit, offset, child->child(0), engine, &ignored),
        project.items());
  }
  if (child->kind() == OpKind::kUnionAll) {
    // LIMIT distributes over UNION ALL: each branch needs at most
    // limit+offset rows; the outer limit still applies to the concatenation.
    const auto& u = static_cast<const UnionAllOp&>(*child);
    int64_t branch_limit = limit + offset;
    bool all_limited = true;
    for (const PlanRef& uc : child->children()) {
      if (!SpineHasLimit(uc, branch_limit)) {
        all_limited = false;
        break;
      }
    }
    if (!all_limited) {
      *descended = true;
      std::vector<PlanRef> new_children;
      for (const PlanRef& uc : child->children()) {
        bool ignored = false;
        new_children.push_back(
            SinkLimit(branch_limit, 0, uc, engine, &ignored));
      }
      PlanRef new_union = std::make_shared<UnionAllOp>(
          std::move(new_children), u.output_names(), u.branch_id_column(),
          u.logical_table());
      return std::make_shared<LimitOp>(std::move(new_union), limit, offset);
    }
  }
  if (child->kind() == OpKind::kJoin) {
    const auto& join = static_cast<const JoinOp&>(*child);
    if (engine.Analyze(join).purely_augmenting) {
      *descended = true;
      bool ignored = false;
      return std::make_shared<JoinOp>(
          SinkLimit(limit, offset, join.left(), engine, &ignored),
          join.right(), join.join_type(), join.condition(),
          join.declared_cardinality(), join.is_case_join());
    }
  }
  return std::make_shared<LimitOp>(child, limit, offset);
}

}  // namespace

PlanRef AnnotateJoinLimitHints(const PlanRef& plan) {
  // Top-down: a LIMIT's row budget (offset + limit) applies to everything
  // on the order-preserving spine below it — projections pass rows 1:1,
  // UNION ALL children each contribute a prefix, and a join's output is
  // truncated to the budget by the LimitOp above. Joins on that spine get
  // the budget as an executor hint (the probe loop stops early).
  std::function<PlanRef(const PlanRef&, int64_t)> annotate =
      [&](const PlanRef& node, int64_t budget) -> PlanRef {
    int64_t child_budget = -1;
    switch (node->kind()) {
      case OpKind::kLimit: {
        const auto& limit = static_cast<const LimitOp&>(*node);
        child_budget = limit.offset() + limit.limit();
        if (budget >= 0 && budget < child_budget) child_budget = budget;
        break;
      }
      case OpKind::kProject:
      case OpKind::kUnionAll:
        child_budget = budget;
        break;
      default:
        break;  // other operators reorder, filter, or consume all rows
    }
    bool changed = false;
    std::vector<PlanRef> new_children;
    new_children.reserve(node->NumChildren());
    for (const PlanRef& child : node->children()) {
      PlanRef rewritten = annotate(child, child_budget);
      if (rewritten != child) changed = true;
      new_children.push_back(std::move(rewritten));
    }
    PlanRef result =
        changed ? node->WithChildren(std::move(new_children)) : node;
    if (result->kind() == OpKind::kJoin && budget >= 0) {
      const auto& join = static_cast<const JoinOp&>(*result);
      if (join.limit_hint() < 0 || budget < join.limit_hint()) {
        result = join.WithLimitHint(budget);
      }
    }
    return result;
  };
  return annotate(plan, -1);
}

PlanRef PassLimitPushdown(const PlanRef& plan, const OptimizerConfig& config,
                          InferenceEngine& engine, bool* changed) {
  if (!config.limit_pushdown_over_aj) return plan;
  return TransformPlan(plan, [&](const PlanRef& node) -> PlanRef {
    if (node->kind() != OpKind::kLimit) return nullptr;
    const auto& limit = static_cast<const LimitOp&>(*node);
    bool descended = false;
    PlanRef sunk = SinkLimit(limit.limit(), limit.offset(), node->child(0),
                             engine, &descended);
    if (!descended) return nullptr;
    *changed = true;
    return sunk;
  });
}

}  // namespace vdm

// Cost-based join ordering (DESIGN.md §14) — DP over small chains, greedy
// over large ones, driven by the statistics subsystem's cardinality
// estimator (analysis/stats).
//
// A maximal join chain is flattened into *units*:
//   - pure inner equi-joins (no declared cardinality, no case-join intent)
//     contribute both sides recursively and pool their conjuncts;
//   - LEFT OUTER joins contribute their left side recursively and turn the
//     right side into an *attachment*: the ON condition stays intact (its
//     null-extension semantics depend on it), the declared §7.3 cardinality
//     rides along, and the attachment may move anywhere the algebra allows;
//   - declared-cardinality INNER joins likewise become attachments, so the
//     §7.3 prior survives on the rebuilt JoinOp instead of dissolving into
//     the conjunct pool;
//   - everything else (case joins, aggregates, unions, scans) is a base
//     unit; the pass recurses *into* such units for nested chains.
//
// Reorder validity (DESIGN.md §14): an inner join commutes freely below a
// LEFT OUTER attachment because (A ⟕p B) ⋈q C = (A ⋈q C) ⟕p B whenever q
// references no B column, and two attachments commute when neither ON
// condition references the other's columns. Both conditions are enforced
// structurally: a unit is eligible only once every column its condition
// (or connecting conjuncts) references is available, and a pooled conjunct
// that references an attachment's null-extendable columns is applied at or
// above the attachment — as an inner-join condition or a FILTER, both of
// which reject the NULL-extended rows exactly like the original inner join
// above the LEFT OUTER did.
//
// Build sides: the executor builds the hash table on the right input, so
// inner steps put the smaller estimated side right (attachments are pinned
// right — LEFT OUTER and declared cardinalities describe the right side).
// Under a LIMIT the chain keeps augmenting attachments *after* all inner
// units, so AnnotateJoinLimitHints can thread the row budget through the
// whole attachment stack (§4.4 paging) — a cheaper-looking interleaving
// that breaks the purely-augmenting prefix would cost more end-to-end.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>

#include "analysis/stats/cardinality.h"
#include "expr/expr.h"
#include "expr/fold.h"
#include "optimizer/optimizer.h"

namespace vdm {

namespace {

/// Chains at most this many units run the exhaustive subset DP; larger
/// chains (the 47-join JournalEntryItemBrowser stack) go greedy.
constexpr size_t kDpMaxUnits = 10;

struct Unit {
  PlanRef plan;
  std::set<std::string> outputs;
  double rows = 0.0;
  /// Attachment state: the unit re-enters the plan as the right side of a
  /// join with this type/condition/cardinality (LEFT OUTER, or INNER with
  /// a declared §7.3 cardinality). Non-attachments join via pooled
  /// conjuncts.
  bool is_attachment = false;
  JoinType join_type = JoinType::kInner;
  ExprRef condition;
  DeclaredCardinality cardinality = DeclaredCardinality::kNone;
  /// Columns the attachment condition needs from the rest of the chain.
  std::set<std::string> needs;
};

struct Conjunct {
  ExprRef expr;
  std::vector<std::string> refs;
};

struct Chain {
  std::vector<Unit> units;
  std::vector<Conjunct> pool;
};

bool IsPoolableInner(const JoinOp& join) {
  return join.join_type() == JoinType::kInner && !join.is_case_join() &&
         join.declared_cardinality() == DeclaredCardinality::kNone;
}

bool IsAttachmentJoin(const JoinOp& join) {
  if (join.is_case_join()) return false;
  if (join.join_type() == JoinType::kLeftOuter) return true;
  return join.declared_cardinality() != DeclaredCardinality::kNone;
}

bool IsChainRoot(const PlanRef& plan) {
  if (plan->kind() != OpKind::kJoin) return false;
  const auto& join = static_cast<const JoinOp&>(*plan);
  return IsPoolableInner(join) || IsAttachmentJoin(join);
}

void AddBaseUnit(const PlanRef& plan, Chain* chain) {
  Unit unit;
  unit.plan = plan;
  std::vector<std::string> names = plan->OutputNames();
  unit.outputs.insert(names.begin(), names.end());
  chain->units.push_back(std::move(unit));
}

void Flatten(const PlanRef& plan, Chain* chain) {
  if (plan->kind() == OpKind::kJoin) {
    const auto& join = static_cast<const JoinOp&>(*plan);
    if (IsPoolableInner(join)) {
      Flatten(join.left(), chain);
      Flatten(join.right(), chain);
      for (const ExprRef& conjunct : SplitConjuncts(join.condition())) {
        if (IsAlwaysTrue(conjunct)) continue;
        Conjunct c;
        c.expr = conjunct;
        CollectColumnRefs(conjunct, &c.refs);
        chain->pool.push_back(std::move(c));
      }
      return;
    }
    if (IsAttachmentJoin(join)) {
      Flatten(join.left(), chain);
      Unit unit;
      unit.plan = join.right();
      std::vector<std::string> names = join.right()->OutputNames();
      unit.outputs.insert(names.begin(), names.end());
      unit.is_attachment = true;
      unit.join_type = join.join_type();
      unit.condition = join.condition();
      unit.cardinality = join.declared_cardinality();
      std::vector<std::string> refs;
      CollectColumnRefs(join.condition(), &refs);
      for (const std::string& ref : refs) {
        if (unit.outputs.count(ref) == 0) unit.needs.insert(ref);
      }
      chain->units.push_back(std::move(unit));
      return;
    }
  }
  AddBaseUnit(plan, chain);
}

bool Covered(const std::vector<std::string>& refs,
             const std::set<std::string>& have) {
  for (const std::string& ref : refs) {
    if (have.count(ref) == 0) return false;
  }
  return true;
}

bool Subset(const std::set<std::string>& needs,
            const std::set<std::string>& have) {
  for (const std::string& need : needs) {
    if (have.count(need) == 0) return false;
  }
  return true;
}

/// Shared state for costing one chain.
struct ChainCtx {
  CardinalityEstimator* estimator = nullptr;
  bool trust_declared = false;
  const Chain* chain = nullptr;
  /// Column name -> owning unit index (for resolving the accumulated
  /// side's key statistics back to a unit plan).
  std::map<std::string, size_t> owner;
};

std::optional<ColumnEstimate> ResolveChainColumn(const ChainCtx& ctx,
                                                 const std::string& name) {
  auto it = ctx.owner.find(name);
  if (it == ctx.owner.end()) return std::nullopt;
  return ctx.estimator->ResolveColumn(ctx.chain->units[it->second].plan, name);
}

struct StepEstimate {
  double rows = 0.0;
  double cost = 0.0;
  bool swap = false;  // inner steps: put the new unit left (probe side)
};

/// Estimates joining unit `u` onto an accumulated set with `cur_rows` rows
/// and `cur_outputs` columns. Key pairs come from the unit's attachment
/// condition or from the pooled conjuncts first covered by this step.
StepEstimate CostStep(const ChainCtx& ctx, double cur_rows,
                      const std::set<std::string>& cur_outputs,
                      const Unit& u) {
  std::vector<JoinKeyEstimate> keys;
  std::set<std::string> unit_key_cols;
  size_t residual = 0;
  auto consider = [&](const ExprRef& conjunct) {
    std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
    if (pair) {
      std::string cur_col = pair->left, unit_col = pair->right;
      if (u.outputs.count(cur_col) != 0 && cur_outputs.count(unit_col) != 0) {
        std::swap(cur_col, unit_col);
      }
      if (cur_outputs.count(cur_col) != 0 && u.outputs.count(unit_col) != 0) {
        JoinKeyEstimate key;
        key.left = ResolveChainColumn(ctx, cur_col);
        key.right = ctx.estimator->ResolveColumn(u.plan, unit_col);
        keys.push_back(key);
        unit_key_cols.insert(unit_col);
        return;
      }
    }
    ++residual;
  };
  if (u.is_attachment) {
    for (const ExprRef& conjunct : SplitConjuncts(u.condition)) {
      if (!IsAlwaysTrue(conjunct)) consider(conjunct);
    }
  } else {
    for (const Conjunct& c : ctx.chain->pool) {
      bool touches_unit = false, covered_without = true;
      for (const std::string& ref : c.refs) {
        if (u.outputs.count(ref) != 0) touches_unit = true;
        if (cur_outputs.count(ref) == 0 && u.outputs.count(ref) == 0) {
          covered_without = false;  // references a third, absent unit
          break;
        }
      }
      if (covered_without && touches_unit) consider(c.expr);
    }
  }
  const bool unit_unique =
      ctx.estimator->UniqueOn(u.plan, unit_key_cols);
  StepEstimate step;
  step.rows = EstimateEquiJoinRows(
      cur_rows, u.rows, u.join_type, keys, residual, /*left_unique=*/false,
      unit_unique, u.cardinality, ctx.trust_declared);
  if (u.is_attachment) {
    step.cost = 2.0 * u.rows + cur_rows + step.rows;
  } else {
    step.swap = u.rows > cur_rows;
    const double build = step.swap ? cur_rows : u.rows;
    const double probe = step.swap ? u.rows : cur_rows;
    step.cost = 2.0 * build + probe + step.rows;
  }
  return step;
}

/// True when some pooled conjunct links `u` to the accumulated columns.
bool ConnectedTo(const Chain& chain, const std::set<std::string>& cur_outputs,
                 const Unit& u) {
  for (const Conjunct& c : chain.pool) {
    bool touches_unit = false, touches_cur = false, touches_other = false;
    for (const std::string& ref : c.refs) {
      if (u.outputs.count(ref) != 0) {
        touches_unit = true;
      } else if (cur_outputs.count(ref) != 0) {
        touches_cur = true;
      } else {
        touches_other = true;
      }
    }
    if (touches_unit && touches_cur && !touches_other) return true;
  }
  return false;
}

bool Eligible(const std::set<std::string>& cur_outputs, const Unit& u) {
  return !u.is_attachment || Subset(u.needs, cur_outputs);
}

/// Greedy order: start from the smallest non-attachment unit; repeatedly
/// take the eligible unit with the smallest estimated result (connected
/// inner units and attachments compete on rows; cross joins only as a last
/// resort). Under a LIMIT, inner units go first so the attachment suffix
/// stays purely augmenting for limit-hint threading.
std::vector<size_t> GreedyOrder(const ChainCtx& ctx, bool under_limit) {
  const Chain& chain = *ctx.chain;
  const size_t n = chain.units.size();
  std::vector<size_t> order;
  std::vector<bool> used(n, false);
  size_t first = n;
  for (size_t i = 0; i < n; ++i) {
    if (chain.units[i].is_attachment) continue;
    if (first == n || chain.units[i].rows < chain.units[first].rows) {
      first = i;
    }
  }
  if (first == n) first = 0;  // all attachments: malformed, keep original
  order.push_back(first);
  used[first] = true;
  std::set<std::string> have = chain.units[first].outputs;
  double rows = chain.units[first].rows;
  while (order.size() < n) {
    // Candidate classes, in preference order.
    enum Class { kConnectedInner = 0, kAttachment = 1, kCross = 2 };
    int best = -1;
    Class best_class = kCross;
    StepEstimate best_step;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const Unit& u = chain.units[i];
      if (!Eligible(have, u)) continue;
      Class cls;
      if (u.is_attachment) {
        cls = kAttachment;
      } else {
        cls = ConnectedTo(chain, have, u) ? kConnectedInner : kCross;
      }
      StepEstimate step = CostStep(ctx, rows, have, u);
      bool better;
      if (best < 0) {
        better = true;
      } else if (under_limit && cls != best_class &&
                 (cls == kConnectedInner || best_class == kConnectedInner)) {
        // Keep augmenting attachments behind every inner unit.
        better = cls == kConnectedInner;
      } else if (cls != best_class &&
                 (cls == kCross || best_class == kCross)) {
        better = best_class == kCross;  // anything beats a cross join
      } else if (step.rows != best_step.rows) {
        better = step.rows < best_step.rows;
      } else if (step.cost != best_step.cost) {
        better = step.cost < best_step.cost;
      } else {
        better = false;  // ties keep the earlier (original-order) unit
      }
      if (better) {
        best = static_cast<int>(i);
        best_class = cls;
        best_step = step;
      }
    }
    if (best < 0) {
      // Dependency deadlock (shouldn't happen): append the rest in
      // original order to stay total.
      for (size_t i = 0; i < n; ++i) {
        if (!used[i]) order.push_back(i);
      }
      return order;
    }
    order.push_back(static_cast<size_t>(best));
    used[static_cast<size_t>(best)] = true;
    const Unit& u = chain.units[static_cast<size_t>(best)];
    have.insert(u.outputs.begin(), u.outputs.end());
    rows = best_step.rows;
  }
  return order;
}

/// Exhaustive left-deep DP over unit subsets, minimizing cumulative step
/// cost. Transitions follow the same eligibility rules as the greedy path
/// (attachments wait for their referenced columns; inner units must
/// connect). Falls back to greedy when no connected-only order completes.
std::vector<size_t> DpOrder(const ChainCtx& ctx, bool* complete) {
  const Chain& chain = *ctx.chain;
  const size_t n = chain.units.size();
  const uint32_t full = (1u << n) - 1u;
  struct State {
    double rows = 0.0;
    double cost = std::numeric_limits<double>::infinity();
    int last = -1;
    uint32_t prev = 0;
    bool valid = false;
  };
  std::vector<State> dp(full + 1u);
  std::vector<std::set<std::string>> outputs(full + 1u);
  for (size_t i = 0; i < n; ++i) {
    if (chain.units[i].is_attachment) continue;
    State& s = dp[1u << i];
    s.rows = chain.units[i].rows;
    s.cost = 0.0;
    s.last = static_cast<int>(i);
    s.valid = true;
    outputs[1u << i] = chain.units[i].outputs;
  }
  for (uint32_t set = 1; set <= full; ++set) {
    const State& s = dp[set];
    if (!s.valid) continue;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t bit = 1u << i;
      if ((set & bit) != 0) continue;
      const Unit& u = chain.units[i];
      if (!Eligible(outputs[set], u)) continue;
      if (!u.is_attachment && !ConnectedTo(chain, outputs[set], u)) {
        continue;  // no cross joins in the DP; greedy handles those
      }
      StepEstimate step = CostStep(ctx, s.rows, outputs[set], u);
      const uint32_t next = set | bit;
      const double cost = s.cost + step.cost;
      State& t = dp[next];
      const bool better =
          !t.valid || cost < t.cost ||
          (cost == t.cost && step.rows < t.rows) ||
          (cost == t.cost && step.rows == t.rows &&
           static_cast<int>(i) < t.last);
      if (better) {
        t.rows = step.rows;
        t.cost = cost;
        t.last = static_cast<int>(i);
        t.prev = set;
        t.valid = true;
        if (outputs[next].empty()) {
          outputs[next] = outputs[set];
          outputs[next].insert(u.outputs.begin(), u.outputs.end());
        }
      }
    }
  }
  if (!dp[full].valid) {
    *complete = false;
    return {};
  }
  std::vector<size_t> order;
  uint32_t set = full;
  while (set != 0) {
    const State& s = dp[set];
    order.push_back(static_cast<size_t>(s.last));
    set = s.prev;
  }
  std::reverse(order.begin(), order.end());
  *complete = true;
  return order;
}

PlanRef Reorder(const PlanRef& plan, CardinalityEstimator& estimator,
                bool under_limit, bool* changed);

/// Cumulative estimated cost of running the chain in `order` (the same
/// per-step model Rebuild applies, including inner build-side swaps).
double OrderCost(const ChainCtx& ctx, const std::vector<size_t>& order) {
  const Chain& chain = *ctx.chain;
  std::set<std::string> have = chain.units[order[0]].outputs;
  double rows = chain.units[order[0]].rows;
  double total = 0.0;
  for (size_t step = 1; step < order.size(); ++step) {
    const Unit& u = chain.units[order[step]];
    StepEstimate est = CostStep(ctx, rows, have, u);
    total += est.cost;
    have.insert(u.outputs.begin(), u.outputs.end());
    rows = est.rows;
  }
  return total;
}

/// Rebuilds the chain left-deep in the chosen order. Pooled conjuncts
/// attach at the first step where all their references are available — as
/// the inner join condition, or as a FILTER above an attachment (its ON
/// condition must stay exactly as declared).
PlanRef Rebuild(const ChainCtx& ctx, const std::vector<size_t>& order) {
  const Chain& chain = *ctx.chain;
  std::vector<bool> conjunct_used(chain.pool.size(), false);
  auto take_covered = [&](const std::set<std::string>& have) {
    std::vector<ExprRef> here;
    for (size_t c = 0; c < chain.pool.size(); ++c) {
      if (conjunct_used[c]) continue;
      if (Covered(chain.pool[c].refs, have)) {
        here.push_back(chain.pool[c].expr);
        conjunct_used[c] = true;
      }
    }
    return here;
  };

  PlanRef current = chain.units[order[0]].plan;
  std::set<std::string> have = chain.units[order[0]].outputs;
  double rows = chain.units[order[0]].rows;
  {
    // Conjuncts local to the start unit (rare) become a filter on it.
    std::vector<ExprRef> local = take_covered(have);
    if (!local.empty()) {
      current = std::make_shared<FilterOp>(std::move(current),
                                           AndAll(std::move(local)));
    }
  }
  for (size_t step = 1; step < order.size(); ++step) {
    const Unit& u = chain.units[order[step]];
    StepEstimate est = CostStep(ctx, rows, have, u);
    have.insert(u.outputs.begin(), u.outputs.end());
    if (u.is_attachment) {
      current = std::make_shared<JoinOp>(std::move(current), u.plan,
                                         u.join_type, u.condition,
                                         u.cardinality);
      std::vector<ExprRef> extra = take_covered(have);
      if (!extra.empty()) {
        current = std::make_shared<FilterOp>(std::move(current),
                                             AndAll(std::move(extra)));
      }
    } else {
      std::vector<ExprRef> here = take_covered(have);
      PlanRef left = est.swap ? u.plan : current;
      PlanRef right = est.swap ? current : u.plan;
      current =
          std::make_shared<JoinOp>(std::move(left), std::move(right),
                                   JoinType::kInner, AndAll(std::move(here)));
    }
    rows = est.rows;
  }
  // Conjuncts that never became coverable (disconnected references) keep
  // their semantics as a final filter.
  std::vector<ExprRef> leftover;
  for (size_t c = 0; c < chain.pool.size(); ++c) {
    if (!conjunct_used[c]) leftover.push_back(chain.pool[c].expr);
  }
  if (!leftover.empty()) {
    current = std::make_shared<FilterOp>(std::move(current),
                                         AndAll(std::move(leftover)));
  }
  return current;
}

/// Structural fingerprint of a plan subtree (node text + shape). Used for
/// the identity check: a rebuild whose signature matches the original
/// chain is discarded, keeping the original nodes (and their ids, which
/// key executor-side estimates).
std::string TreeSignature(const PlanRef& plan) {
  std::string sig = plan->Describe();
  sig += '(';
  for (const PlanRef& child : plan->children()) {
    sig += TreeSignature(child);
    sig += ',';
  }
  sig += ')';
  return sig;
}

PlanRef ReorderChain(const std::shared_ptr<const JoinOp>& top,
                     CardinalityEstimator& estimator, bool under_limit,
                     bool* changed) {
  Chain chain;
  Flatten(top, &chain);
  if (chain.units.size() < 2) return nullptr;

  // Recurse into the units first: nested chains (case-join children,
  // aggregate inputs, attachment subtrees) reorder independently, and the
  // estimator should see the final unit plans.
  bool units_changed = false;
  for (Unit& unit : chain.units) {
    PlanRef transformed =
        Reorder(unit.plan, estimator, false, &units_changed);
    if (transformed != unit.plan) unit.plan = std::move(transformed);
  }

  ChainCtx ctx;
  ctx.estimator = &estimator;
  ctx.trust_declared = estimator.options().trust_declared_cardinality;
  ctx.chain = &chain;
  for (size_t i = 0; i < chain.units.size(); ++i) {
    chain.units[i].rows = estimator.EstimateRows(chain.units[i].plan);
    for (const std::string& name : chain.units[i].outputs) {
      ctx.owner.emplace(name, i);
    }
  }

  std::vector<size_t> order;
  if (!under_limit && chain.units.size() <= kDpMaxUnits) {
    bool complete = false;
    order = DpOrder(ctx, &complete);
    if (!complete) order = GreedyOrder(ctx, under_limit);
  } else {
    order = GreedyOrder(ctx, under_limit);
  }

  // The identity (view-text) order is the baseline — CostStep already
  // prices build-side swaps into it, so a different order must beat it
  // by more than the column-restoring projection a reshuffle drags in
  // (one row-touch per output row of the chain). Near-ties — e.g. the
  // JEIB to-one attachment stack, where every order yields the same
  // cardinalities — keep the view-text order and its node ids.
  std::vector<size_t> identity(chain.units.size());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  if (order != identity) {
    const double restore_project = estimator.EstimateRows(top);
    if (OrderCost(ctx, order) + restore_project >=
        OrderCost(ctx, identity) * 0.99) {
      order = identity;
    }
  }

  PlanRef body = Rebuild(ctx, order);
  // Identity check: a rebuild that reproduces the original tree (same
  // steps, same sides, same conjunct grouping) is discarded so the
  // original nodes — and their ids — survive. Nested-unit changes always
  // alter the signature, so they are never lost here.
  if (!units_changed && TreeSignature(body) == TreeSignature(top)) {
    return nullptr;
  }
  *changed = true;
  // The rebuilt chain may emit columns in a different order; restore the
  // original projection list. When only nested units changed (or the new
  // order happens to preserve column positions) the wrapper would be a
  // full-width per-row copy over the whole intermediate — skip it.
  if (body->OutputNames() == top->OutputNames()) return body;
  std::vector<ProjectOp::Item> items;
  for (const std::string& name : top->OutputNames()) {
    items.push_back({Col(name), name});
  }
  return std::make_shared<ProjectOp>(std::move(body), std::move(items));
}

PlanRef Reorder(const PlanRef& plan, CardinalityEstimator& estimator,
                bool under_limit, bool* changed) {
  if (IsChainRoot(plan)) {
    PlanRef reordered =
        ReorderChain(std::static_pointer_cast<const JoinOp>(plan), estimator,
                     under_limit, changed);
    return reordered ? reordered : plan;
  }
  const bool propagates_limit = plan->kind() == OpKind::kLimit ||
                                plan->kind() == OpKind::kSort ||
                                plan->kind() == OpKind::kProject;
  const bool child_under_limit =
      plan->kind() == OpKind::kLimit || (under_limit && propagates_limit);
  std::vector<PlanRef> children;
  bool any = false;
  for (const PlanRef& child : plan->children()) {
    PlanRef transformed =
        Reorder(child, estimator, child_under_limit, changed);
    any |= (transformed != child);
    children.push_back(std::move(transformed));
  }
  return any ? plan->WithChildren(std::move(children)) : plan;
}

}  // namespace

PlanRef PassJoinOrder(const PlanRef& plan, const OptimizerConfig& config,
                      InferenceEngine& engine, bool* changed) {
  if (!config.join_reordering) return plan;
  // One estimator for the whole pass, on the run's inference engine:
  // nested chains and the enclosing chain share every unit's estimate.
  CardinalityOptions card_options;
  card_options.trust_declared_cardinality =
      engine.options().trust_declared_cardinality;
  CardinalityEstimator estimator(config.stats_catalog, &engine, card_options);
  return Reorder(plan, estimator, /*under_limit=*/false, changed);
}

}  // namespace vdm

#include "optimizer/optimizer.h"

#include <cstdio>
#include <string_view>

namespace vdm {

OptimizerConfig ConfigForProfile(SystemProfile profile) {
  OptimizerConfig config;
  switch (profile) {
    case SystemProfile::kHana:
      // Everything on (defaults).
      break;
    case SystemProfile::kPostgres:
      // Table 1: Y on UAJ 1, 2, 3, 2a — base keys, group-by keys, constant
      // pinning; no key propagation through joins or order/limit.
      config.derivation.keys_through_joins = false;
      config.derivation.keys_through_order_limit = false;
      config.derivation.keys_through_union_all = false;
      config.derivation.trust_declared_cardinality = false;
      config.limit_pushdown_over_aj = false;
      config.asj_elimination = false;
      config.asj_union_all_anchor = false;
      config.case_join = false;
      config.selfjoin_general = false;
      config.agg_pushdown = false;
      config.allow_precision_loss_rewrites = false;
      break;
    case SystemProfile::kSystemX:
      // Table 1: no UAJ optimization at all.
      config.uaj_elimination = false;
      config.derivation.keys_through_union_all = false;
      config.derivation.trust_declared_cardinality = false;
      config.limit_pushdown_over_aj = false;
      config.asj_elimination = false;
      config.asj_union_all_anchor = false;
      config.case_join = false;
      config.selfjoin_general = false;
      config.agg_pushdown = false;
      config.allow_precision_loss_rewrites = false;
      break;
    case SystemProfile::kSystemY:
      // Table 1: Y on UAJ 1 and UAJ 3 only.
      config.derivation.groupby_keys = false;
      config.derivation.keys_through_joins = false;
      config.derivation.keys_through_order_limit = false;
      config.derivation.keys_through_union_all = false;
      config.derivation.trust_declared_cardinality = false;
      config.limit_pushdown_over_aj = false;
      config.asj_elimination = false;
      config.asj_union_all_anchor = false;
      config.case_join = false;
      config.selfjoin_general = false;
      config.agg_pushdown = false;
      config.allow_precision_loss_rewrites = false;
      break;
    case SystemProfile::kSystemZ:
      // Table 1: Y on everything except UAJ 1b.
      config.derivation.keys_through_order_limit = false;
      config.derivation.keys_through_union_all = false;
      config.derivation.trust_declared_cardinality = false;
      config.limit_pushdown_over_aj = false;
      config.asj_elimination = false;
      config.asj_union_all_anchor = false;
      config.case_join = false;
      config.selfjoin_general = false;
      config.agg_pushdown = false;
      config.allow_precision_loss_rewrites = false;
      break;
    case SystemProfile::kNone:
      config.constant_folding = false;
      config.join_reordering = false;
      config.filter_pushdown = false;
      config.projection_pruning = false;
      config.uaj_elimination = false;
      config.limit_pushdown_over_aj = false;
      config.asj_elimination = false;
      config.asj_union_all_anchor = false;
      config.case_join = false;
      config.selfjoin_general = false;
      config.agg_pushdown = false;
      config.allow_precision_loss_rewrites = false;
      config.distinct_elimination = false;
      break;
  }
  return config;
}

std::string ProfileName(SystemProfile profile) {
  switch (profile) {
    case SystemProfile::kHana:
      return "HANA";
    case SystemProfile::kPostgres:
      return "Postgres";
    case SystemProfile::kSystemX:
      return "System X";
    case SystemProfile::kSystemY:
      return "System Y";
    case SystemProfile::kSystemZ:
      return "System Z";
    case SystemProfile::kNone:
      return "Unoptimized";
  }
  return "?";
}

namespace {

/// Fault injection for the rewrite auditor tests: projects away the last
/// output column, a schema-drift bug a sound pass can never introduce.
PlanRef DropLastColumnForTesting(const PlanRef& plan) {
  std::vector<std::string> names = plan->OutputNames();
  if (names.size() <= 1) return plan;
  std::vector<ProjectOp::Item> items;
  items.reserve(names.size() - 1);
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    items.push_back({Col(names[i]), names[i]});
  }
  return std::make_shared<ProjectOp>(plan, std::move(items));
}

}  // namespace

PlanRef Optimizer::Optimize(const PlanRef& plan) const {
  Result<OptimizeResult> checked = OptimizeChecked(plan);
  if (!checked.ok()) {
    std::fprintf(stderr, "Optimizer::Optimize: %s\n",
                 checked.status().ToString().c_str());
    std::abort();
  }
  return checked->plan;
}

Result<OptimizeResult> Optimizer::OptimizeChecked(const PlanRef& plan) const {
  using PassFn = PlanRef (*)(const PlanRef&, const OptimizerConfig&,
                             InferenceEngine&, bool*);
  struct PassDef {
    const char* name;
    bool enabled;
    PassFn fn;
  };
  // Pass order matters; keep in sync with the headers' pass descriptions.
  // Join ordering is NOT in the fixpoint loop: it runs once afterwards, on
  // the final logical shape, so its cost decisions see the plan the other
  // rewrites actually produce (and so filter pushdown cannot re-split the
  // conjuncts the reorderer grouped).
  const PassDef passes[] = {
      {"constant_folding", config_.constant_folding, &PassConstantFolding},
      {"filter_pushdown", config_.filter_pushdown, &PassFilterPushdown},
      {"aggregate_pushdown",
       config_.allow_precision_loss_rewrites || config_.agg_pushdown,
       &PassAggregatePushdown},
      {"asj_elimination", config_.asj_elimination, &PassAsjElimination},
      {"selfjoin_general", config_.selfjoin_general, &PassSelfJoinGeneral},
      {"prune_and_eliminate",
       config_.projection_pruning || config_.uaj_elimination,
       &PassPruneAndEliminate},
      {"distinct_elimination", config_.distinct_elimination,
       &PassDistinctElimination},
      {"limit_pushdown", config_.limit_pushdown_over_aj, &PassLimitPushdown},
  };
  const bool verify =
      config_.verify_rewrites && config_.verification_hook != nullptr;
  // The run's property state, shared by every pass below; it lives for
  // this call only and is never stored with the plan.
  InferenceEngine engine(config_.derivation);
  // Post-fixpoint finishing step: cost-based join ordering (once, audited
  // like any pass), then the limit-hint annotation.
  auto finish = [&](PlanRef done, bool converged,
                    int ran) -> Result<OptimizeResult> {
    if (config_.join_reordering) {
      bool fired = false;
      PlanRef before = done;
      done = PassJoinOrder(done, config_, engine, &fired);
      if (fired) {
        if (config_.debug_corrupt_pass != nullptr &&
            std::string_view(config_.debug_corrupt_pass) == "join_order") {
          done = DropLastColumnForTesting(done);
        }
        if (verify) {
          Status audit = config_.verification_hook->AfterPass("join_order",
                                                              before, done);
          if (!audit.ok()) {
            return Status(audit.code(),
                          "rewrite audit failed in pass 'join_order': " +
                              audit.message());
          }
        }
      }
    }
    return OptimizeResult{AnnotateJoinLimitHints(done), converged, ran,
                          engine.computed(), engine.reused()};
  };
  PlanRef current = plan;
  for (int pass = 0; pass < config_.max_passes; ++pass) {
    bool changed = false;
    for (const PassDef& def : passes) {
      if (!def.enabled) continue;
      bool fired = false;
      PlanRef before = current;
      current = def.fn(current, config_, engine, &fired);
      if (!fired) continue;
      changed = true;
      if (config_.debug_corrupt_pass != nullptr &&
          std::string_view(config_.debug_corrupt_pass) == def.name) {
        current = DropLastColumnForTesting(current);
      }
      if (verify) {
        Status audit =
            config_.verification_hook->AfterPass(def.name, before, current);
        if (!audit.ok()) {
          return Status(audit.code(), "rewrite audit failed in pass '" +
                                          std::string(def.name) +
                                          "': " + audit.message());
        }
      }
    }
    if (!changed) return finish(current, /*converged=*/true, pass + 1);
  }
  return finish(current, /*converged=*/false, config_.max_passes);
}

}  // namespace vdm

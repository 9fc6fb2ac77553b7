// The rule-based optimizer and its capability profiles.
//
// OptimizerConfig switches each paper-relevant rewrite on or off. The five
// SystemProfile presets reproduce the capability sets the paper observed in
// SAP HANA Cloud, PostgreSQL 17, and the three anonymous commercial systems
// (Tables 1–4); running the same query under different profiles regenerates
// the paper's Y/- matrices and the corresponding runtime differences.
#ifndef VDMQO_OPTIMIZER_OPTIMIZER_H_
#define VDMQO_OPTIMIZER_OPTIMIZER_H_

#include <string>

#include "analysis/infer/inference.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "plan/logical_plan.h"

namespace vdm {

/// Observer interface the optimizer driver calls after every pass that
/// reported a change (see OptimizerConfig::verify_rewrites). Implemented by
/// analysis/RewriteAuditor; declared here so the optimizer does not depend
/// on the analysis library. Returning an error aborts optimization and is
/// surfaced through Optimizer::OptimizeChecked.
class PlanVerificationHook {
 public:
  virtual ~PlanVerificationHook() = default;
  /// `pass_name` identifies the rewrite pass; `before`/`after` are the plan
  /// going into and coming out of the pass.
  virtual Status AfterPass(const std::string& pass_name,
                           const PlanRef& before, const PlanRef& after) = 0;
};

struct OptimizerConfig {
  // --- generic rewrites (implemented by every evaluated system) ---
  bool constant_folding = true;
  bool filter_pushdown = true;
  bool projection_pruning = true;

  // --- UAJ elimination (§4, Table 1) ---
  bool uaj_elimination = true;
  /// Property-derivation capabilities of the run's InferenceEngine.
  InferOptions derivation;

  // --- Limit pushdown across augmentation joins (§4.4, Table 2) ---
  bool limit_pushdown_over_aj = true;

  // --- ASJ elimination (§5, Table 3) and UNION ALL extensions (§6) ---
  bool asj_elimination = true;
  bool asj_union_all_anchor = true;  // Fig. 13(a)
  /// Fig. 13(b): recognize ASJ with UNION ALL on *both* sides. Without the
  /// explicit case-join intent this recognition is deliberately fragile
  /// (only canonical shapes), mirroring Fig. 14(a); with a case join the
  /// augmenter subtree is preserved and matching is robust (Fig. 14(b)).
  bool case_join = true;
  /// General self-join elimination over arbitrary same-table pairs, proven
  /// by the shared static inference engine (analysis/infer): both sides
  /// unique on the join column set via join clauses or per-side constant
  /// equalities, all outputs computable from one side (ROADMAP item 5).
  bool selfjoin_general = true;

  // --- aggregation (§7.1) ---
  bool agg_pushdown = true;
  bool allow_precision_loss_rewrites = true;

  // --- cost-based join ordering (substrate; §2.2) ---
  bool join_reordering = true;
  /// Statistics source for cardinality estimates; may be null (falls back
  /// to defaults). Set automatically by Database::OptimizePlan.
  const Catalog* stats_catalog = nullptr;

  // --- misc ---
  bool distinct_elimination = true;
  /// Fixpoint iteration cap.
  int max_passes = 10;

  // --- rewrite verification (src/analysis/) ---
  /// Run the verification hook after every pass that changed the plan.
  /// Database::OptimizePlan installs a RewriteAuditor automatically when
  /// this is set and no hook is given.
  bool verify_rewrites = false;
  /// When additionally set, the auditor executes before/after plans against
  /// real data and diffs the results (slow; small data sets only).
  bool verify_rewrites_exec = false;
  /// The hook itself; not owned. Only consulted when verify_rewrites is on.
  PlanVerificationHook* verification_hook = nullptr;
  /// Test-only fault injection: after the named pass first fires, the driver
  /// deliberately corrupts the plan (drops the last output column) so tests
  /// can prove the auditor catches broken rewrites. Never set in production.
  const char* debug_corrupt_pass = nullptr;
};

/// Capability presets named after the paper's Table 1–4 columns.
enum class SystemProfile {
  kHana,      // full capability set: everything on
  kPostgres,  // UAJ 1/2/3/2a only; no limit-on-AJ, no ASJ, no union-all
  kSystemX,   // no UAJ at all
  kSystemY,   // UAJ 1 and 3 only
  kSystemZ,   // all UAJ except 1b (no keys through order/limit)
  kNone,      // optimizer disabled (raw view expansion — paper Fig. 3)
};

OptimizerConfig ConfigForProfile(SystemProfile profile);
std::string ProfileName(SystemProfile profile);

/// What one Optimize run produced. `converged` is false when the run
/// exhausted config.max_passes while passes were still changing the plan:
/// the plan is then sound but may be under-optimized. `passes` counts the
/// fixpoint iterations that ran (the final no-change one included).
struct OptimizeResult {
  PlanRef plan;
  bool converged = false;
  int passes = 0;
  /// The run's inference counters (InferenceEngine::computed/reused).
  size_t props_computed = 0;
  size_t props_reused = 0;
};

/// Stateless: one instance may serve any number of concurrent Optimize
/// calls (the verification hook, if installed, must then be thread-safe).
class Optimizer {
 public:
  explicit Optimizer(OptimizerConfig config) : config_(std::move(config)) {}
  explicit Optimizer(SystemProfile profile)
      : Optimizer(ConfigForProfile(profile)) {}

  const OptimizerConfig& config() const { return config_; }

  /// Rewrites the plan to fixpoint (bounded by config.max_passes).
  /// Aborts on verification-hook failure; use OptimizeChecked when a hook
  /// is installed.
  PlanRef Optimize(const PlanRef& plan) const;

  /// Like Optimize, but surfaces verification-hook failures as a Status and
  /// reports whether the fixpoint was reached.
  Result<OptimizeResult> OptimizeChecked(const PlanRef& plan) const;

 private:
  OptimizerConfig config_;
};

// ---------------------------------------------------------------------------
// Individual passes, exposed for unit testing. Each returns the rewritten
// plan and sets *changed when a rewrite fired. `engine` is the run's
// inference engine (built from config.derivation): OptimizeChecked passes
// the same one to every pass, so each node's properties are derived once
// per compile.

/// Folds literal expressions in filters/projections; removes always-true
/// filters; marks/propagates always-false filters.
PlanRef PassConstantFolding(const PlanRef& plan, const OptimizerConfig& config,
                            InferenceEngine& engine, bool* changed);

/// Pushes filters through projects, into join sides, through union all,
/// sort and group keys. Each filter sinks as far as it can in one call.
PlanRef PassFilterPushdown(const PlanRef& plan, const OptimizerConfig& config,
                           InferenceEngine& engine, bool* changed);

/// Combined projection pruning and unused-augmentation-join elimination:
/// a single top-down pass carrying the required-column set (§4.3).
PlanRef PassPruneAndEliminate(const PlanRef& plan,
                              const OptimizerConfig& config,
                              InferenceEngine& engine, bool* changed);

/// Augmentation self-join elimination (§5.3, §6.3).
PlanRef PassAsjElimination(const PlanRef& plan, const OptimizerConfig& config,
                           InferenceEngine& engine, bool* changed);

/// General self-join elimination driven by the run's inference engine.
PlanRef PassSelfJoinGeneral(const PlanRef& plan, const OptimizerConfig& config,
                            InferenceEngine& engine, bool* changed);

/// The single-join core of PassSelfJoinGeneral, exposed so the vdmlint
/// catalog audit can probe exactly what the optimizer would remove (with
/// its own engine, which its other checks share).
/// Returns the replacement subtree, or nullptr if the join is not a
/// provably removable self-join.
PlanRef TryEliminateGeneralSelfJoin(const std::shared_ptr<const JoinOp>& join,
                                    InferenceEngine& engine);

/// Limit pushdown across augmentation joins and projections (§4.4).
PlanRef PassLimitPushdown(const PlanRef& plan, const OptimizerConfig& config,
                          InferenceEngine& engine, bool* changed);

/// allow_precision_loss rewrites + eager aggregation below augmentation
/// joins (§7.1).
PlanRef PassAggregatePushdown(const PlanRef& plan,
                              const OptimizerConfig& config,
                              InferenceEngine& engine, bool* changed);

/// Cost-based join reordering (DESIGN.md §14): exhaustive DP over small
/// flattened chains, greedy over large ones, driven by the stats-backed
/// cardinality estimator (one per call, on the run's engine). Chooses build
/// sides too. Runs once after the fixpoint loop, not inside it.
PlanRef PassJoinOrder(const PlanRef& plan, const OptimizerConfig& config,
                      InferenceEngine& engine, bool* changed);

/// Removes DISTINCT over inputs that are already duplicate-free.
PlanRef PassDistinctElimination(const PlanRef& plan,
                                const OptimizerConfig& config,
                                InferenceEngine& engine, bool* changed);

/// Final annotation step (not a rewrite pass): records each remaining
/// LIMIT's row budget on the joins below it (JoinOp::limit_hint), so the
/// executor's probe loops can stop early even when the LimitOp could not
/// sink. Plan semantics and rendering are unchanged. Runs after the pass
/// loop in Optimize/OptimizeChecked; exposed for tests.
PlanRef AnnotateJoinLimitHints(const PlanRef& plan);

}  // namespace vdm

#endif  // VDMQO_OPTIMIZER_OPTIMIZER_H_

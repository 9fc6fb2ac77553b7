// Cardinality and cost estimation over logical plans (DESIGN.md §14).
//
// Estimation sources, in priority order per join:
//   1. §7.3 declared cardinalities — the paper's many-to-one / exact-one
//      join specifications are taken as *exact priors*: a to-one join
//      emits (at most) one row per left row, so the estimate is the left
//      cardinality.
//   2. Inference-lattice unique keys (analysis/infer, PR 6): a join whose
//      equi-keys cover a unique key of one side caps the output at the
//      other side's cardinality, even without a declaration.
//   3. Classic distinct-count estimation: |L|·|R| / Π max(ndv_l, ndv_r)
//      over the equi-key pairs, with per-column distinct counts resolved
//      through projections/filters/joins back to base-table statistics.
//
// The estimator's only state is a per-node memo keyed by node address;
// each entry holds the node's PlanRef, so the address cannot be reused
// while the estimator lives and one estimator may span plan versions (the
// join reorderer keeps one per pass). Statistics are read when a node is
// first estimated, so build one per catalog version.
#ifndef VDMQO_ANALYSIS_STATS_CARDINALITY_H_
#define VDMQO_ANALYSIS_STATS_CARDINALITY_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/infer/inference.h"
#include "catalog/catalog.h"
#include "plan/logical_plan.h"
#include "plan/plan_estimates.h"

namespace vdm {

struct CardinalityOptions {
  /// Trust §7.3 declared to-one cardinalities as exact priors.
  bool trust_declared_cardinality = true;
  /// Rows assumed for a table that was never analyzed.
  double default_table_rows = 1000.0;
  /// Selectivity assumed for predicates the rules below can't classify.
  double default_selectivity = 0.25;
};

/// Column statistics resolved to one plan node's output column.
struct ColumnEstimate {
  double distinct = 0.0;  // 0 = unknown
  double null_fraction = 0.0;
  bool has_minmax = false;
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;
};

/// One equi-key pair of a (possibly hypothetical) join; either side's
/// statistics may be unresolved.
struct JoinKeyEstimate {
  std::optional<ColumnEstimate> left;
  std::optional<ColumnEstimate> right;
};

/// Core join-cardinality rule, shared between the plan walker and the
/// join reorderer (which costs joins that do not exist as plan nodes).
/// `residual_conjuncts` counts non-equi conjuncts; `right_unique` /
/// `left_unique` say the equi-keys cover a unique key of that side.
double EstimateEquiJoinRows(double left_rows, double right_rows,
                            JoinType join_type,
                            const std::vector<JoinKeyEstimate>& keys,
                            size_t residual_conjuncts, bool left_unique,
                            bool right_unique, DeclaredCardinality declared,
                            bool trust_declared);

class CardinalityEstimator {
 public:
  /// `engine` (not owned; may be null) supplies the static inference
  /// lattice's unique-key / at-most-one-row facts: worth its walk for join
  /// ordering, which shares the optimizer run's engine; the per-query
  /// executor annotations pass null and go without.
  CardinalityEstimator(const Catalog* catalog, InferenceEngine* engine,
                       CardinalityOptions options = {});

  /// Estimated output rows of `plan` (memoized by node address).
  double EstimateRows(const PlanRef& plan);

  /// Fills per-node row/cost estimates for the whole tree and returns the
  /// root estimate. Cost is cumulative in abstract row-touch units:
  /// scans/filters/projects charge their input, joins charge
  /// 2·build + probe + output, sorts n·log₂n, aggregates 2·input.
  PlanEstimate Annotate(const PlanRef& plan, PlanEstimates* out);

  /// Statistics for one output column of `plan`, resolved through
  /// projections/filters/joins to the owning base table; nullopt when the
  /// column is computed or the table has no column stats.
  std::optional<ColumnEstimate> ResolveColumn(const PlanRef& plan,
                                              const std::string& name);

  /// True when `columns` cover a unique key of `plan`'s output (inference
  /// lattice). Always false without an engine.
  bool UniqueOn(const PlanRef& plan, const std::set<std::string>& columns);

  /// Estimated selectivity of `predicate` over `input`'s output, in [0,1].
  double EstimateSelectivity(const ExprRef& predicate, const PlanRef& input);

  const CardinalityOptions& options() const { return options_; }

 private:
  struct NodeInfo {
    double rows = 0.0;
    /// Output column name -> resolved base statistics (pass-through
    /// columns only; computed columns are absent).
    std::map<std::string, ColumnEstimate> cols;
  };
  struct Entry {
    PlanRef node;  // pins the address key
    NodeInfo info;
  };

  const NodeInfo& Info(const PlanRef& plan);
  NodeInfo Compute(const PlanRef& plan);
  double SelectivityOf(const ExprRef& expr, const NodeInfo& input) const;
  double AnnotateNode(const PlanRef& plan, PlanEstimates* out);

  const Catalog* catalog_;
  InferenceEngine* engine_;
  CardinalityOptions options_;
  std::unordered_map<const LogicalOp*, Entry> cache_;
};

}  // namespace vdm

#endif  // VDMQO_ANALYSIS_STATS_CARDINALITY_H_

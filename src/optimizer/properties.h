// Relational property derivation: unique keys, constant bindings, and
// column provenance. This is the engineering core the paper calls out in
// §4.3 — "UAJ optimization doesn't demand novel algorithms but does require
// strong engineering to accurately derive join cardinality".
//
// Derivation is *capability-gated* by DerivationConfig: switching individual
// derivation features off reproduces the behaviour of the weaker optimizers
// in the paper's Tables 1–4 (see optimizer.h SystemProfile).
#ifndef VDMQO_OPTIMIZER_PROPERTIES_H_
#define VDMQO_OPTIMIZER_PROPERTIES_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/infer/inference.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace vdm {

/// Which derivation features are active. Each flag corresponds to a
/// capability the paper probes with one of its micro-queries.
struct DerivationConfig {
  /// Derive keys from base-table unique constraints (UAJ 1). All evaluated
  /// systems except "System X" do this.
  bool base_table_keys = true;
  /// Derive a key from GROUP BY columns (UAJ 2 / AJ 2a-2).
  bool groupby_keys = true;
  /// Reduce composite keys by filter-pinned constants (UAJ 3 / AJ 2a-3).
  bool const_pinning = true;
  /// Propagate keys through join operators (UAJ 1a / 3a).
  bool keys_through_joins = true;
  /// Propagate keys through ORDER BY / LIMIT (UAJ 1b).
  bool keys_through_order_limit = true;
  /// Derive keys through UNION ALL via disjoint branches or branch ids
  /// (Fig. 12). Only SAP HANA does this.
  bool keys_through_union_all = true;
  /// Honor declared (unenforced) join cardinalities (§7.3).
  bool trust_declared_cardinality = true;
};

/// The inference engine (analysis/infer) is gated by the same capability
/// flags; this keeps one profile definition authoritative for both.
InferOptions ToInferOptions(const DerivationConfig& config);

/// Where an output column comes from: a pass-through path to a base-table
/// scan (or to a table-like UNION ALL node). Drives ASJ rewiring.
struct ColumnOrigin {
  /// Node id of the originating ScanOp, or of a table-like UnionAllOp.
  uint64_t source_id = 0;
  /// Base (or logical) table name, lower-cased.
  std::string table;
  /// Base column name (unqualified).
  std::string column;
  /// True if the path from the source crosses the null-padded side of an
  /// outer join — then the value may be NULL even if the base column isn't.
  bool null_extended = false;
};

struct RelProps {
  /// Sets of output-column names guaranteed duplicate-free. Kept small and
  /// deduplicated; order of columns inside a key is sorted.
  std::vector<std::vector<std::string>> unique_keys;
  /// Output columns pinned to a literal by filters/projections.
  std::map<std::string, Value> constants;
  /// Provenance of pass-through output columns.
  std::map<std::string, ColumnOrigin> origins;
  /// Base-table columns pinned by predicates anywhere in the subtree,
  /// keyed "table.column" — even when the column is not projected. Used to
  /// certify UNION ALL branch disjointness (Fig. 12(a)).
  std::map<std::string, Value> base_constants;
  /// True if the relation is statically known to be empty (AJ 2b).
  bool empty_relation = false;

  bool HasKey(const std::vector<std::string>& available) const;
  void AddKey(std::vector<std::string> key);
  std::string ToString() const;
};

/// One-shot derivation over a temporary PropertyCache (below). Callers
/// that derive more than once per plan — every optimizer pass — share one
/// PropertyCache instead.
RelProps DeriveProps(const PlanRef& plan, const DerivationConfig& config);

/// Join-cardinality analysis of a JoinOp (paper §4.2).
struct JoinAnalysis {
  /// Every left row matches at most one right row.
  bool right_at_most_one = false;
  /// Every left row matches exactly one right row (FK or declared).
  bool right_exactly_one = false;
  /// Purely augmenting: LEFT OUTER + at-most-one (AJ 2), or INNER +
  /// exactly-one (AJ 1). Such a join neither filters nor duplicates.
  bool purely_augmenting = false;
  /// Equi-join pairs (left output name, right output name).
  std::vector<std::pair<std::string, std::string>> equi_pairs;
  /// True if the condition consists solely of column=column equalities
  /// (plus literal TRUE conjuncts).
  bool pure_equi = true;
};

JoinAnalysis AnalyzeJoin(const JoinOp& join, const RelProps& left_props,
                         const RelProps& right_props,
                         const DerivationConfig& config);

/// The property state of one optimizer run: RelProps memoized bottom-up by
/// node address, plus the run's single InferenceEngine (same capability
/// gates). Plan nodes are immutable, so a node's properties never change
/// while it lives; each entry holds the node's PlanRef, so no address is
/// reused while the cache lives and entries stay valid across rewrites —
/// a rewritten tree shares its untouched subtrees, and their properties,
/// with the tree it came from. Node ids cannot key the memo: WithChildren
/// keeps the id while changing the subtree.
///
/// Not thread-safe; the optimizer driver owns one per OptimizeChecked call
/// and passes it to every pass, so concurrent compiles never share one.
class PropertyCache {
 public:
  explicit PropertyCache(const DerivationConfig& config);

  /// The node's derived properties, computed on first request. The
  /// reference stays valid for the cache's lifetime.
  const RelProps& Get(const PlanRef& plan);
  /// AnalyzeJoin over the memoized properties of the join's inputs.
  JoinAnalysis Analyze(const JoinOp& join);

  InferenceEngine& engine() { return engine_; }

  /// Get calls that derived a node / found it memoized (nested calls for
  /// children included).
  size_t computed() const { return computed_; }
  size_t reused() const { return reused_; }

 private:
  struct Entry {
    PlanRef node;  // pins the address key
    RelProps props;
  };
  RelProps Compute(const PlanRef& plan);

  DerivationConfig config_;
  InferenceEngine engine_;
  std::unordered_map<const LogicalOp*, Entry> memo_;
  size_t computed_ = 0;
  size_t reused_ = 0;
};

}  // namespace vdm

#endif  // VDMQO_OPTIMIZER_PROPERTIES_H_

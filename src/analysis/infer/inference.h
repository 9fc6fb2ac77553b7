// Static property inference over bound plans (DESIGN.md §4.1, §12): the
// optimizer's only property derivation.
//
// A dataflow engine that derives, per plan node and without executing
// anything, a lattice of relational properties:
//  * unique column sets — from base-table keys, GROUP BY, DISTINCT, and
//    selective (constant-pinning) equality predicates,
//  * functional dependencies — propagated through projections, through
//    many-to-one augmentation joins (the paper's §7.3 cardinality
//    declarations), and through UNION ALL by branch intersection,
//  * NULL-ability — 3-valued-logic aware: schema NOT NULL, NULL-rejecting
//    predicates, and the null-extension introduced by outer joins,
//  * value provenance — which base-table scan instance each output column's
//    value comes from, including equality-derived provenance ("a.k = d.ref
//    and d.ref = b.k" links b's join column back to a's scan).
//
// This is the engineering core the paper calls out in §4.3 — "UAJ
// optimization doesn't demand novel algorithms but does require strong
// engineering to accurately derive join cardinality". Every optimizer pass
// (UAJ, ASJ and general self-join elimination, limit and aggregate
// pushdown, DISTINCT elimination), the cardinality estimator, the rewrite
// auditor and the vdmlint catalog audit consult this one engine, and
// AnalyzeJoin below is the one definition of "the right side matches at
// most one row", so no two of them can disagree about what is provable.
// Derivation is capability-gated by InferOptions: switching individual
// features off reproduces the weaker optimizers of the paper's Tables 1–4.
//
// Layering: depends only on plan/expr/catalog/types/common, so the
// optimizer can link against it (vdm_infer sits *below* vdm_optimizer).
#ifndef VDMQO_ANALYSIS_INFER_INFERENCE_H_
#define VDMQO_ANALYSIS_INFER_INFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace vdm {

/// Capability gates; OptimizerConfig::derivation holds the run's. Each
/// flag corresponds to a capability the paper probes with one of its
/// micro-queries; switching it off reproduces the corresponding weaker
/// system of Tables 1–4 (see optimizer.h SystemProfile).
struct InferOptions {
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
  /// Honor declared (unenforced) join cardinalities and unique keys (§7.3).
  bool trust_declared_cardinality = true;
};

/// Value provenance of an output column. Invariant: with null_extended
/// false, EVERY output row's value equals the value of `column` in the row
/// of scan `source_id` this output row was derived from; with it true, the
/// value is either that or NULL (the row crossed the null-padded side of an
/// outer join). `via_equality` marks provenance established through an
/// equality predicate rather than a direct pass-through — equally valid for
/// same-row reasoning, since the equality filtered the rows where the two
/// values differ (and 3VL equality rejects NULLs on both sides).
struct ValueSource {
  uint64_t source_id = 0;
  std::string table;   // lower-cased base (or logical) table name
  std::string column;  // lower-cased base column name
  bool null_extended = false;
  bool via_equality = false;
};

/// A functional dependency: rows agreeing on all `determinants` agree on
/// every column in `dependents` (NULLs compared as equal). Both sorted.
struct FunctionalDep {
  std::vector<std::string> determinants;
  std::vector<std::string> dependents;
};

struct InferredProps {
  /// Output-column sets proven duplicate-free (sorted, deduplicated).
  std::vector<std::vector<std::string>> unique_sets;
  /// Non-key functional dependencies (key → rest is implied by unique_sets
  /// and not materialized).
  std::vector<FunctionalDep> fds;
  /// Output columns pinned to a literal.
  std::map<std::string, Value> constants;
  /// Output columns proven non-NULL in every row.
  std::set<std::string> not_null;
  /// All known value sources per output column (direct + equality-derived).
  std::map<std::string, std::vector<ValueSource>> sources;
  /// Constants pinned on base columns of a specific scan instance:
  /// source_pins[scan_id][base_column] = v means every surviving source row
  /// of that scan has base_column = v. Extends self-join coverage through
  /// per-side constant equalities.
  std::map<uint64_t, std::map<std::string, Value>> source_pins;
  /// "table.column" pins anywhere in the subtree (union disjointness).
  std::map<std::string, Value> base_constants;
  bool empty_relation = false;
  bool at_most_one_row = false;

  /// True if `columns` contains a proven unique set (or ≤ 1 row total).
  bool UniqueOn(const std::set<std::string>& columns) const;
  bool IsNotNull(const std::string& column) const;
  /// True if rows agreeing on `determinants` provably agree on `dependent`:
  /// via a covered unique set, a pinned constant, or a recorded FD.
  bool FdHolds(const std::set<std::string>& determinants,
               const std::string& dependent) const;
  /// First source of `column` matching (table, base_column), not
  /// null-extended; nullptr if none.
  const ValueSource* FindSource(const std::string& column,
                                const std::string& table,
                                const std::string& base_column) const;
  const Value* PinOf(uint64_t source_id, const std::string& base_column) const;
  /// The pass-through provenance of `column`: its first source not
  /// established through an equality (via_equality false); nullptr if the
  /// column is computed. Drives ASJ rewiring and the AJ 1a FK test.
  const ValueSource* DirectSource(const std::string& column) const;

  void AddUniqueSet(std::vector<std::string> columns);
  void AddFd(std::vector<std::string> determinants,
             std::vector<std::string> dependents);
  void AddSource(const std::string& column, ValueSource source);
  /// Deterministic multi-line rendering (golden lattice tests).
  std::string ToString() const;
};

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
  /// (plus literal TRUE conjuncts and, with const_pinning, right-side
  /// column=literal pins).
  bool pure_equi = true;
};

/// The one join-cardinality test, over the inputs' inferred properties:
/// declared cardinality (§7.3, when trusted), an empty augmenter (AJ 2b),
/// equated or pinned right columns covering a unique set (AJ 2a), and an
/// inner equi-join over a NOT NULL foreign key (AJ 1a).
JoinAnalysis AnalyzeJoin(const JoinOp& join, const InferredProps& left,
                         const InferredProps& right,
                         const InferOptions& options);

/// Memoizing bottom-up derivation over immutable plan nodes. Results are
/// cached by node address, and each entry holds the node's PlanRef so the
/// address cannot be reused while the engine lives. One engine may
/// therefore span any number of plan versions: rewritten trees share their
/// untouched subtrees' entries, and a node WithChildren rebuilt (same id,
/// new subtree) is a new key — node ids cannot key the memo. The optimizer
/// keeps one per OptimizeChecked run and passes it to every pass, so
/// concurrent compiles never share one. Not thread-safe.
class InferenceEngine {
 public:
  explicit InferenceEngine(InferOptions options = {});
  /// The reference stays valid for the engine's lifetime.
  const InferredProps& Infer(const PlanRef& plan);
  /// AnalyzeJoin over the memoized properties of the join's inputs.
  JoinAnalysis Analyze(const JoinOp& join);
  const InferOptions& options() const { return options_; }

  /// Infer calls that derived a node / found it memoized (nested calls for
  /// children included).
  size_t computed() const { return computed_; }
  size_t reused() const { return reused_; }

 private:
  struct Entry {
    PlanRef node;  // pins the address key
    InferredProps props;
  };
  InferredProps Compute(const PlanRef& plan);

  InferOptions options_;
  std::unordered_map<const LogicalOp*, Entry> cache_;
  size_t computed_ = 0;
  size_t reused_ = 0;
};

// ---------------------------------------------------------------------------
// Shared structural primitives (used by rule_asj, rule_selfjoin_general,
// and the catalog audit).

/// A Scan / Filter / pass-through-Project stack over one base table.
struct SimpleRelation {
  std::shared_ptr<const ScanOp> scan;
  /// Predicates with column refs rewritten to bare base-column names.
  std::vector<ExprRef> base_preds;
  /// Output column name -> base column name.
  std::map<std::string, std::string> out_to_base;
  /// Output columns that are literal projections (e.g. a branch id).
  std::map<std::string, Value> out_literals;
};

std::optional<SimpleRelation> ExtractSimpleRelation(const PlanRef& plan);

/// True if `covered_base_columns` (lower-cased base column names) contains
/// every column of some unique key of `schema` that the options allow
/// trusting (enforced always; declared only with trust_declared_cardinality).
/// This is THE key-coverage test for self-join elimination: equal values on
/// a full unique key identify the same physical base row.
bool TableKeyCovered(const TableSchema& schema,
                     const std::set<std::string>& covered_base_columns,
                     const InferOptions& options);

/// 3VL NULL-rejection: the output columns for which the predicate cannot
/// evaluate to TRUE when that column is NULL. A filter with such a conjunct
/// proves the column NOT NULL downstream; applied to a LEFT JOIN's
/// null-extended columns it restores their non-NULL-ness (DESIGN.md §12).
std::set<std::string> NullRejectedColumns(const ExprRef& predicate);

}  // namespace vdm

#endif  // VDMQO_ANALYSIS_INFER_INFERENCE_H_

// Catalog-wide semantic static inference (DESIGN.md §12).
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
// The optimizer's general self-join elimination (rule_selfjoin_general.cc),
// the ASJ rule's key-coverage check, and the vdmlint catalog audit
// (analysis/catalog_audit.h) all consult this one engine, so the rewrite
// rules and the static findings can never disagree about what is provable.
//
// Layering: depends only on plan/expr/catalog/types/common, so the
// optimizer can link against it (vdm_infer sits *below* vdm_optimizer).
#ifndef VDMQO_ANALYSIS_INFER_INFERENCE_H_
#define VDMQO_ANALYSIS_INFER_INFERENCE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace vdm {

/// Capability gates, mirroring optimizer DerivationConfig field for field
/// (convert with ToInferOptions in optimizer/properties.h). Switching a
/// flag off reproduces the corresponding weaker system of Tables 1–4.
struct InferOptions {
  bool base_table_keys = true;
  bool groupby_keys = true;
  bool const_pinning = true;
  bool keys_through_joins = true;
  bool keys_through_order_limit = true;
  bool keys_through_union_all = true;
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

  void AddUniqueSet(std::vector<std::string> columns);
  void AddFd(std::vector<std::string> determinants,
             std::vector<std::string> dependents);
  void AddSource(const std::string& column, ValueSource source);
  /// Deterministic multi-line rendering (golden lattice tests).
  std::string ToString() const;
};

/// Memoizing bottom-up derivation over immutable plan nodes. Results are
/// cached by node address, and each entry holds the node's PlanRef so the
/// address cannot be reused while the engine lives. One engine may
/// therefore span any number of plan versions: rewritten trees share their
/// untouched subtrees' entries, and a node WithChildren rebuilt (same id,
/// new subtree) is a new key. The optimizer keeps one per run (see
/// PropertyCache in optimizer/properties.h). Not thread-safe.
class InferenceEngine {
 public:
  explicit InferenceEngine(InferOptions options = {});
  /// The reference stays valid for the engine's lifetime.
  const InferredProps& Infer(const PlanRef& plan);
  const InferOptions& options() const { return options_; }

 private:
  struct Entry {
    PlanRef node;  // pins the address key
    InferredProps props;
  };
  InferredProps Compute(const PlanRef& plan);

  InferOptions options_;
  std::unordered_map<const LogicalOp*, Entry> cache_;
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

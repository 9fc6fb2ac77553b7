// Seeded, grammar-driven SQL generator for differential testing.
//
// Queries are drawn over a corpus of FROM-clause anchors built from the
// repo's three workload catalogs (workload/tpch, workload/s4, and the
// synthetic VDM view population of vdm/generator) and follow the shapes
// the paper measures: sparse projections over deep view stacks, paging
// with LIMIT/OFFSET over full ORDER BYs, augmentation (dimension) joins,
// decimal aggregates with GROUP BY / HAVING, and DISTINCT.
//
// Every query also carries its *structure* (select items, joins, WHERE
// conjuncts, ...) so the differential runner can minimize a failing query
// by deleting parts and re-rendering, plus optional metamorphic variants
// whose results must be identical to the base query by construction:
//   * `augment` — an appended, unprojected LEFT OUTER many-to-one join on
//     a unique key (the paper's UAJ shape: neither filters nor duplicates);
//   * `asj`     — an appended augmentation self-join on a unique key
//     (the Fig. 8 custom-field extension shape);
//   * `union`   — an appended UNION ALL branch made row-free by a `1 = 0`
//     conjunct (the Fig. 12 disjoint-branch shape);
//   * `selfjoin` — an appended *general* self-join that the inference-driven
//     elimination rule (rule_selfjoin_general) can remove: INNER on a full
//     primary key, equalities routed through a third relation, or per-side
//     constant pins under LEFT OUTER. Nothing is projected from it, so the
//     result must be identical with the rule on (kHana) and off (kNone).
//
// Determinism: the same corpus + seed yields the same query sequence, so
// a repro dump's (seed, index) pair fully identifies a query.
#ifndef VDMQO_TESTING_QUERY_GEN_H_
#define VDMQO_TESTING_QUERY_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vdm {

struct SyntheticViewSpec;  // vdm/generator.h

/// Broad type class of a corpus column; decides which predicates and
/// aggregates the generator may apply to it. Double-typed expressions are
/// deliberately never aggregated (sums of doubles are order-sensitive in
/// the low bits, which would make profile comparison flaky); see
/// DESIGN.md §11.
enum class GenColClass { kInt, kDecimal, kString, kDate };

struct GenColumn {
  std::string sql;  // qualified reference, e.g. "l.l_extendedprice"
  GenColClass cls;
};

/// An optional join the generator may append to an anchor's FROM clause.
struct GenJoin {
  std::string clause;  // e.g. " left outer join part p on l.l_partkey = ..."
  std::vector<GenColumn> columns;
  /// Optional WHERE conjunct added (half the time) with the join: an
  /// anchor filter a rewrite is meant to carry across it.
  std::string where = "";
};

/// A FROM-clause anchor: a table, a generated view stack, or a fixed
/// multi-table join.
struct GenAnchor {
  std::string from;  // e.g. "lineitem l join orders o on l... = o..."
  std::vector<GenColumn> columns;
  std::vector<GenJoin> dims;
  /// Metamorphic clauses; empty disables that variant for this anchor.
  std::string augment_clause;
  std::string asj_clause;
  /// General self-join clauses (see `selfjoin` above); one is drawn per
  /// query. Each must be result-invisible when appended unprojected.
  std::vector<std::string> selfjoin_clauses;
};

struct QueryCorpus {
  std::vector<GenAnchor> anchors;
};

/// TPC-H corpus over workload/tpch.h's schema.
QueryCorpus TpchCorpus();
/// S/4-style corpus over workload/s4.h's ACDOCA + master data.
QueryCorpus S4Corpus();
/// Corpus over the synthetic VDM view population (and the _x extension
/// views for specs that have been extended).
QueryCorpus SyntheticVdmCorpus(const std::vector<SyntheticViewSpec>& specs);
void MergeCorpus(QueryCorpus* dst, const QueryCorpus& src);

struct GeneratedQuery {
  std::string sql;
  /// True when the query orders by every output column (row order is then
  /// fully comparable); false = compare results as a multiset.
  bool ordered = false;

  struct Variant {
    std::string kind;  // "augment" | "asj" | "union" | "selfjoin"
    std::string sql;
  };
  std::vector<Variant> variants;

  // Structure, for the repro minimizer (AssembleSql re-renders it).
  bool distinct = false;
  bool aggregate = false;
  std::vector<std::string> select_items;  // "expr as alias"
  std::string from;
  std::vector<std::string> joins;       // appended dimension joins
  std::vector<std::string> where;       // conjuncts
  std::vector<std::string> group_by;    // group expressions
  std::string having;                   // "" = none
  std::vector<std::string> order_by;    // output aliases
  std::string limit_clause;             // " limit N offset M" or ""
};

/// Renders the structured parts back to SQL.
std::string AssembleSql(const GeneratedQuery& q);

struct QueryGenOptions {
  uint64_t seed = 42;
  /// Attach metamorphic variants where the anchor supports them.
  bool with_variants = true;
};

class QueryGenerator {
 public:
  QueryGenerator(QueryCorpus corpus, QueryGenOptions options);
  QueryGenerator(QueryCorpus corpus, uint64_t seed)
      : QueryGenerator(std::move(corpus), QueryGenOptions{seed, true}) {}

  GeneratedQuery Next();

 private:
  const GenColumn& Pick(const std::vector<GenColumn>& cols);
  std::string Predicate(const GenColumn& col);

  QueryCorpus corpus_;
  QueryGenOptions options_;
  Rng rng_;
};

// ---------------------------------------------------------------------
// Interleaved DML scripts (MVCC differential testing, DESIGN.md §15).
//
// A script is a *serial* list of steps over the fixed DML tables
// (testing/dml_differential.h creates them); each step belongs to one of
// a handful of transaction sessions, so transactions overlap in script
// order without the generator needing threads: session 0 can read twice
// around a step where session 1 commits — exactly the snapshot-isolation
// surface the differential oracle pins down. Steps outside an open
// session transaction run autocommit.

struct DmlOp {
  enum class Kind {
    kBegin,     // open the session's transaction
    kCommit,
    kRollback,
    kDml,       // INSERT / UPDATE / DELETE in `sql`
    kQuery,     // SELECT in `sql`; diffed engine-vs-interpreter mid-script
    kMerge,     // explicit delta-to-main merge of `table`
  };
  Kind kind = Kind::kDml;
  int session = 0;
  std::string sql;
  std::string table;  // kMerge target
};

struct DmlScript {
  std::vector<DmlOp> ops;
};

struct DmlScriptOptions {
  int sessions = 3;
  int num_ops = 40;
};

/// The tables DML scripts write. Both have columns
/// (k int, grp int, v int, s varchar(12), d decimal(10,2)).
extern const char* const kDmlTables[2];

/// Deterministically generates the `index`-th script for `seed`. Every
/// session transaction opened by the script is closed by it (commit or
/// rollback) before the script ends.
DmlScript GenerateDmlScript(uint64_t seed, size_t index,
                            const DmlScriptOptions& options = {});

}  // namespace vdm

#endif  // VDMQO_TESTING_QUERY_GEN_H_

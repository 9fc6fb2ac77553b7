#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/query_context.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/hash_table.h"
#include "exec/kernels/kernels.h"
#include "expr/eval.h"
#include "expr/fold.h"

namespace vdm {

namespace {

constexpr int64_t kNoBudget = -1;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* OpKindLabel(OpKind kind) {
  switch (kind) {
    case OpKind::kScan:
      return "Scan";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kProject:
      return "Project";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kAggregate:
      return "Aggregate";
    case OpKind::kUnionAll:
      return "UnionAll";
    case OpKind::kSort:
      return "Sort";
    case OpKind::kLimit:
      return "Limit";
    case OpKind::kDistinct:
      return "Distinct";
  }
  return "?";
}

/// Evaluates `predicate` on `chunk` and returns the rows where it is true,
/// ascending (NULL counts as false).
Result<SelectionVector> SelectWhere(const ExprRef& predicate,
                                    const Chunk& chunk) {
  VDM_ASSIGN_OR_RETURN(ColumnData mask, EvalExpr(predicate, chunk));
  SelectionVector sel;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (!mask.IsNull(r) && mask.ints()[r] != 0) {
      sel.push_back(static_cast<uint32_t>(r));
    }
  }
  return sel;
}

/// Keeps the selected rows of *chunk; selecting every row is free.
/// Returns the number of values gathered.
size_t KeepRows(const SelectionVector& sel, Chunk* chunk) {
  if (sel.size() == chunk->NumRows()) return 0;
  for (ColumnData& col : chunk->columns) col = col.GatherSelection(sel);
  return sel.size() * chunk->columns.size();
}

// ---------------------------------------------------------------------------
// Compressed scan filters (DESIGN.md §13). Conjuncts of the Filter stack
// directly above a Scan see unmodified scan columns, so predicates over
// string columns lower to dictionary-code compares (the main-fragment
// dictionary is sorted: equality is one code, ranges and LIKE prefixes are
// code intervals) and integer predicates lower to raw int64 compares. The
// kernels in exec/kernels/ evaluate them on the fragment arrays before any
// value is materialized; whatever cannot be lowered stays in a residual
// expression evaluated on the survivors.

struct LoweredPred {
  enum class Kind : uint8_t {
    kCodeEq,     // string code == code
    kCodeNe,     // non-NULL and code != code
    kCodeRange,  // lo <= code <= hi (inclusive; never matches NULL)
    kCodeNull,   // IS [NOT] NULL via the code sign bit
    kCodeSet,    // code in a union of intervals, optionally matching NULL
    kInt64Cmp,   // raw int64 compare against a literal
    kNever,      // statically false (literal absent from the dictionary)
  };
  Kind kind;
  size_t schema_idx = 0;   // column index in the table schema
  int32_t code = 0;        // kCodeEq / kCodeNe target
  int32_t lo = 0;          // kCodeRange bounds
  int32_t hi = 0;
  bool negated = false;    // kCodeNull: true = IS NOT NULL
  kernels::CmpOp cmp = kernels::CmpOp::kEq;  // kInt64Cmp
  int64_t literal = 0;                       // kInt64Cmp
  // kCodeSet: parallel inclusive bounds, sorted and disjoint; the lowered
  // form of OR / NOT LIKE trees over one string column.
  std::vector<int32_t> set_lo;
  std::vector<int32_t> set_hi;
  bool match_null = false;  // kCodeSet: NULL codes match too
};

/// The bottom Filter run of a chain over a Scan, compiled once per run.
struct CompiledFilters {
  bool active = false;        // at least one predicate lowered to a kernel
  size_t bottom_filters = 0;  // chain Filters applied (from the scan up)
  std::vector<LoweredPred> lowered;
  ExprRef residual;  // conjuncts evaluated on survivors; may be null
};

const ColumnRefExpr* AsColumnRef(const ExprRef& e) {
  return e->kind() == ExprKind::kColumnRef
             ? static_cast<const ColumnRefExpr*>(e.get())
             : nullptr;
}

const LiteralExpr* AsLiteral(const ExprRef& e) {
  return e->kind() == ExprKind::kLiteral
             ? static_cast<const LiteralExpr*>(e.get())
             : nullptr;
}

/// Schema index of the scan output column named `name`, or -1.
int FindScanColumn(const ScanOp& scan, const std::string& name) {
  for (size_t idx : scan.column_indexes()) {
    if (scan.QualifiedName(idx) == name) return static_cast<int>(idx);
  }
  return -1;
}

/// Mirror of the comparison with operands swapped (`5 < x` == `x > 5`).
BinaryOpKind FlipComparison(BinaryOpKind op) {
  switch (op) {
    case BinaryOpKind::kLess:
      return BinaryOpKind::kGreater;
    case BinaryOpKind::kLessEq:
      return BinaryOpKind::kGreaterEq;
    case BinaryOpKind::kGreater:
      return BinaryOpKind::kLess;
    case BinaryOpKind::kGreaterEq:
      return BinaryOpKind::kLessEq;
    default:
      return op;  // kEq / kNotEq are symmetric
  }
}

bool IsComparisonOp(BinaryOpKind op) {
  switch (op) {
    case BinaryOpKind::kEq:
    case BinaryOpKind::kNotEq:
    case BinaryOpKind::kLess:
    case BinaryOpKind::kLessEq:
    case BinaryOpKind::kGreater:
    case BinaryOpKind::kGreaterEq:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Whole-tree lowering of boolean expressions over one string column
// (DESIGN.md §13): OR-disjunctions, NOT LIKE, and arbitrary NOT/AND/OR
// combinations of string comparisons reduce to a union of dictionary-code
// intervals plus the tri-state value the tree takes on a NULL input. For a
// non-NULL code every leaf below is definitely true or false, so AND/OR on
// the value side are plain set intersection/union; only the NULL side needs
// Kleene logic, and under a WHERE conjunct NULL collapses to false.

enum class TriState : uint8_t { kFalse, kTrue, kNull };

TriState Not3(TriState a) {
  if (a == TriState::kNull) return TriState::kNull;
  return a == TriState::kTrue ? TriState::kFalse : TriState::kTrue;
}

TriState And3(TriState a, TriState b) {
  if (a == TriState::kFalse || b == TriState::kFalse) return TriState::kFalse;
  if (a == TriState::kTrue && b == TriState::kTrue) return TriState::kTrue;
  return TriState::kNull;
}

TriState Or3(TriState a, TriState b) {
  if (a == TriState::kTrue || b == TriState::kTrue) return TriState::kTrue;
  if (a == TriState::kFalse && b == TriState::kFalse) return TriState::kFalse;
  return TriState::kNull;
}

/// Result of evaluating a predicate tree per dictionary code: the codes it
/// matches (sorted, disjoint, inclusive intervals) and its tri-state result
/// when the column value is NULL.
struct CodeSet {
  std::vector<std::pair<int32_t, int32_t>> intervals;
  TriState on_null = TriState::kNull;
};

/// Coalesces a sorted interval list in place (overlapping or adjacent
/// integer intervals merge: [0,2] ∪ [3,5] = [0,5]).
void CoalesceIntervals(std::vector<std::pair<int32_t, int32_t>>* ivs) {
  size_t m = 0;
  for (size_t i = 0; i < ivs->size(); ++i) {
    if (m > 0 && (*ivs)[i].first <= (*ivs)[m - 1].second + 1) {
      (*ivs)[m - 1].second = std::max((*ivs)[m - 1].second, (*ivs)[i].second);
    } else {
      (*ivs)[m++] = (*ivs)[i];
    }
  }
  ivs->resize(m);
}

std::vector<std::pair<int32_t, int32_t>> UnionIntervals(
    const std::vector<std::pair<int32_t, int32_t>>& a,
    const std::vector<std::pair<int32_t, int32_t>>& b) {
  std::vector<std::pair<int32_t, int32_t>> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  CoalesceIntervals(&out);
  return out;
}

std::vector<std::pair<int32_t, int32_t>> IntersectIntervals(
    const std::vector<std::pair<int32_t, int32_t>>& a,
    const std::vector<std::pair<int32_t, int32_t>>& b) {
  std::vector<std::pair<int32_t, int32_t>> out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int32_t lo = std::max(a[i].first, b[j].first);
    const int32_t hi = std::min(a[i].second, b[j].second);
    if (lo <= hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

/// Complement within the code domain [0, size-1].
std::vector<std::pair<int32_t, int32_t>> ComplementIntervals(
    const std::vector<std::pair<int32_t, int32_t>>& a, int32_t size) {
  std::vector<std::pair<int32_t, int32_t>> out;
  int32_t next = 0;
  for (const auto& iv : a) {
    if (iv.first > next) out.emplace_back(next, iv.first - 1);
    next = iv.second + 1;
  }
  if (next <= size - 1) out.emplace_back(next, size - 1);
  return out;
}

/// Interval form of `<col> <cmp> <literal>` against the sorted dictionary:
/// every case is one code, one code interval, or all codes but one.
void CompareToIntervals(BinaryOpKind op,
                        const std::vector<std::string>& dict,
                        const std::string& s, CodeSet* set) {
  set->on_null = TriState::kNull;
  const int32_t size = static_cast<int32_t>(dict.size());
  const int32_t lb = static_cast<int32_t>(
      std::lower_bound(dict.begin(), dict.end(), s) - dict.begin());
  const bool present = lb < size && dict[static_cast<size_t>(lb)] == s;
  const int32_t ub = present ? lb + 1 : lb;
  int32_t lo = 0;
  int32_t hi = -1;
  switch (op) {
    case BinaryOpKind::kEq:
      if (present) {
        lo = lb;
        hi = lb;
      }
      break;
    case BinaryOpKind::kNotEq:
      if (present) {
        if (lb > 0) set->intervals.emplace_back(0, lb - 1);
        if (lb + 1 <= size - 1) set->intervals.emplace_back(lb + 1, size - 1);
        return;
      }
      lo = 0;
      hi = size - 1;
      break;
    case BinaryOpKind::kLess:
      lo = 0;
      hi = lb - 1;
      break;
    case BinaryOpKind::kLessEq:
      lo = 0;
      hi = ub - 1;
      break;
    case BinaryOpKind::kGreater:
      lo = ub;
      hi = size - 1;
      break;
    default:  // kGreaterEq
      lo = lb;
      hi = size - 1;
      break;
  }
  if (lo <= hi) set->intervals.emplace_back(lo, hi);
}

/// Resolves a leaf's column reference: must be a scan column of string
/// type, and every leaf in the tree must name the same column.
bool ResolveTreeColumn(const ColumnRefExpr* col, const ScanOp& scan,
                       const TableSnapshot& table, int* col_idx) {
  if (col == nullptr) return false;
  const int idx = FindScanColumn(scan, col->name());
  if (idx < 0) return false;
  if (table.schema->column(static_cast<size_t>(idx)).type.id !=
      TypeId::kString) {
    return false;
  }
  if (*col_idx >= 0 && *col_idx != idx) return false;
  *col_idx = idx;
  return true;
}

/// Recursively lowers a boolean tree to a CodeSet. Returns false when any
/// node falls outside the supported shape (the conjunct then stays in the
/// residual). `*col_idx` starts at -1 and is pinned by the first leaf.
bool BuildCodeSet(const ExprRef& e, const ScanOp& scan,
                  const TableSnapshot& table,
                  int* col_idx, CodeSet* set) {
  if (e->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*e);
    if (bin.op() == BinaryOpKind::kAnd || bin.op() == BinaryOpKind::kOr) {
      CodeSet lhs;
      CodeSet rhs;
      if (!BuildCodeSet(bin.left(), scan, table, col_idx, &lhs) ||
          !BuildCodeSet(bin.right(), scan, table, col_idx, &rhs)) {
        return false;
      }
      if (bin.op() == BinaryOpKind::kAnd) {
        set->intervals = IntersectIntervals(lhs.intervals, rhs.intervals);
        set->on_null = And3(lhs.on_null, rhs.on_null);
      } else {
        set->intervals = UnionIntervals(lhs.intervals, rhs.intervals);
        set->on_null = Or3(lhs.on_null, rhs.on_null);
      }
      return true;
    }
    if (!IsComparisonOp(bin.op())) return false;
    const ColumnRefExpr* col = AsColumnRef(bin.left());
    const LiteralExpr* lit = AsLiteral(bin.right());
    BinaryOpKind op = bin.op();
    if (col == nullptr) {
      col = AsColumnRef(bin.right());
      lit = AsLiteral(bin.left());
      op = FlipComparison(op);
    }
    if (lit == nullptr || lit->value().is_null() ||
        lit->value().type().id != TypeId::kString) {
      return false;
    }
    if (!ResolveTreeColumn(col, scan, table, col_idx)) return false;
    CompareToIntervals(
        op, *table.main_column(static_cast<size_t>(*col_idx)).dictionary,
        lit->value().AsString(), set);
    return true;
  }
  if (e->kind() == ExprKind::kUnary) {
    const auto& un = static_cast<const UnaryExpr&>(*e);
    if (un.op() != UnaryOpKind::kNot) return false;
    CodeSet inner;
    if (!BuildCodeSet(un.operand(), scan, table, col_idx, &inner)) {
      return false;
    }
    const int32_t size = static_cast<int32_t>(
        table.main_column(static_cast<size_t>(*col_idx)).dictionary->size());
    set->intervals = ComplementIntervals(inner.intervals, size);
    set->on_null = Not3(inner.on_null);
    return true;
  }
  if (e->kind() == ExprKind::kIsNull) {
    const auto& isn = static_cast<const IsNullExpr&>(*e);
    if (!ResolveTreeColumn(AsColumnRef(isn.operand()), scan, table, col_idx)) {
      return false;
    }
    const int32_t size = static_cast<int32_t>(
        table.main_column(static_cast<size_t>(*col_idx)).dictionary->size());
    if (isn.negated()) {
      if (size > 0) set->intervals.emplace_back(0, size - 1);
      set->on_null = TriState::kFalse;
    } else {
      set->on_null = TriState::kTrue;
    }
    return true;
  }
  if (e->kind() == ExprKind::kFunction) {
    const auto& fn = static_cast<const FunctionExpr&>(*e);
    if (fn.name() != "like" || fn.children().size() != 2) return false;
    const LiteralExpr* lit = AsLiteral(fn.children()[1]);
    if (lit == nullptr || lit->value().is_null() ||
        lit->value().type().id != TypeId::kString) {
      return false;
    }
    if (!ResolveTreeColumn(AsColumnRef(fn.children()[0]), scan, table,
                           col_idx)) {
      return false;
    }
    const auto& dict =
        *table.main_column(static_cast<size_t>(*col_idx)).dictionary;
    const int32_t size = static_cast<int32_t>(dict.size());
    const std::string& pat = lit->value().AsString();
    const size_t wild = pat.find_first_of("%_");
    set->on_null = TriState::kNull;
    if (wild == std::string::npos) {
      CompareToIntervals(BinaryOpKind::kEq, dict, pat, set);
      return true;
    }
    if (wild != pat.size() - 1 || pat.back() != '%') return false;
    const std::string prefix = pat.substr(0, pat.size() - 1);
    if (prefix.empty()) {
      // `x LIKE '%'`: every non-NULL value.
      if (size > 0) set->intervals.emplace_back(0, size - 1);
      return true;
    }
    auto begin_it = std::lower_bound(dict.begin(), dict.end(), prefix);
    auto end_it = std::partition_point(
        begin_it, dict.end(), [&](const std::string& s) {
          return s.compare(0, prefix.size(), prefix) == 0;
        });
    if (begin_it != end_it) {
      set->intervals.emplace_back(
          static_cast<int32_t>(begin_it - dict.begin()),
          static_cast<int32_t>(end_it - dict.begin()) - 1);
    }
    return true;
  }
  return false;
}

/// Lowers a whole boolean tree over one string column to a single kernel
/// predicate. Under a WHERE conjunct NULL collapses to false, so the
/// CodeSet's NULL side contributes matches only when definitely true.
/// Degenerate sets normalize to the cheaper single-predicate kinds.
bool LowerStringTree(const ExprRef& e, const ScanOp& scan,
                     const TableSnapshot& table,
                     std::vector<LoweredPred>* out) {
  int col_idx = -1;
  CodeSet set;
  if (!BuildCodeSet(e, scan, table, &col_idx, &set) || col_idx < 0) {
    return false;
  }
  const int32_t size = static_cast<int32_t>(
      table.main_column(static_cast<size_t>(col_idx)).dictionary->size());
  const bool match_null = set.on_null == TriState::kTrue;
  LoweredPred p;
  p.schema_idx = static_cast<size_t>(col_idx);
  if (set.intervals.empty()) {
    if (match_null) {
      p.kind = LoweredPred::Kind::kCodeNull;  // NULL rows only
    } else {
      p.kind = LoweredPred::Kind::kNever;
    }
    out->push_back(p);
    return true;
  }
  const bool full = set.intervals.size() == 1 && set.intervals[0].first == 0 &&
                    set.intervals[0].second == size - 1;
  if (full) {
    if (match_null) return true;  // tautology over this column: no predicate
    p.kind = LoweredPred::Kind::kCodeNull;
    p.negated = true;  // every non-NULL row
    out->push_back(p);
    return true;
  }
  if (set.intervals.size() == 2 && !match_null &&
      set.intervals[0] == std::make_pair(0, set.intervals[1].first - 2) &&
      set.intervals[1].second == size - 1) {
    p.kind = LoweredPred::Kind::kCodeNe;  // every code but one
    p.code = set.intervals[1].first - 1;
    out->push_back(p);
    return true;
  }
  if (set.intervals.size() == 1 && !match_null) {
    if (set.intervals[0].first == set.intervals[0].second) {
      p.kind = LoweredPred::Kind::kCodeEq;
      p.code = set.intervals[0].first;
    } else {
      p.kind = LoweredPred::Kind::kCodeRange;
      p.lo = set.intervals[0].first;
      p.hi = set.intervals[0].second;
    }
    out->push_back(p);
    return true;
  }
  p.kind = LoweredPred::Kind::kCodeSet;
  p.match_null = match_null;
  p.set_lo.reserve(set.intervals.size());
  p.set_hi.reserve(set.intervals.size());
  for (const auto& iv : set.intervals) {
    p.set_lo.push_back(iv.first);
    p.set_hi.push_back(iv.second);
  }
  out->push_back(p);
  return true;
}

/// Attempts to lower one conjunct to a kernel predicate. Returns false to
/// leave it in the residual. Lowering must be *exactly* EvalBinary's
/// semantics (expr/eval.cc), so only the cases that cannot raise are
/// taken: trees over one string column against string literals (same
/// types — no TypeError possible) and integer-backed columns compared at
/// equal scale. NULL literals, double/mixed-scale comparisons, and
/// anything non-trivial stay residual — and the residual is evaluated even
/// for zero survivors, so row-independent type errors surface exactly as
/// on the generic path.
bool LowerConjunct(const ExprRef& e, const ScanOp& scan,
                   const TableSnapshot& table,
                   std::vector<LoweredPred>* out) {
  if (LowerStringTree(e, scan, table, out)) return true;
  if (e->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*e);
    if (!IsComparisonOp(bin.op())) return false;
    const ColumnRefExpr* col = AsColumnRef(bin.left());
    const LiteralExpr* lit = AsLiteral(bin.right());
    BinaryOpKind op = bin.op();
    if (col == nullptr) {
      col = AsColumnRef(bin.right());
      lit = AsLiteral(bin.left());
      op = FlipComparison(op);
    }
    if (col == nullptr || lit == nullptr || lit->value().is_null()) {
      return false;
    }
    int idx = FindScanColumn(scan, col->name());
    if (idx < 0) return false;
    const DataType& ct = table.schema->column(static_cast<size_t>(idx)).type;
    const DataType& lt = lit->value().type();
    if (!ct.IsIntegerBacked() || !lt.IsIntegerBacked() || ct.scale != lt.scale) {
      return false;
    }
    LoweredPred p;
    p.kind = LoweredPred::Kind::kInt64Cmp;
    p.schema_idx = static_cast<size_t>(idx);
    p.literal = lit->value().AsInt64();  // raw storage for all int-backed
    switch (op) {
      case BinaryOpKind::kEq:
        p.cmp = kernels::CmpOp::kEq;
        break;
      case BinaryOpKind::kNotEq:
        p.cmp = kernels::CmpOp::kNe;
        break;
      case BinaryOpKind::kLess:
        p.cmp = kernels::CmpOp::kLt;
        break;
      case BinaryOpKind::kLessEq:
        p.cmp = kernels::CmpOp::kLe;
        break;
      case BinaryOpKind::kGreater:
        p.cmp = kernels::CmpOp::kGt;
        break;
      default:
        p.cmp = kernels::CmpOp::kGe;
        break;
    }
    out->push_back(p);
    return true;
  }
  if (e->kind() == ExprKind::kIsNull) {
    // Non-string (string columns lowered above): the main fragment's
    // validity emptiness decides statically (fragments are immutable
    // during execution).
    const auto& isn = static_cast<const IsNullExpr&>(*e);
    const ColumnRefExpr* col = AsColumnRef(isn.operand());
    if (col == nullptr) return false;
    int idx = FindScanColumn(scan, col->name());
    if (idx < 0 ||
        !table.main_column(static_cast<size_t>(idx)).validity.empty()) {
      return false;
    }
    if (!isn.negated()) {
      LoweredPred p;
      p.kind = LoweredPred::Kind::kNever;
      p.schema_idx = static_cast<size_t>(idx);
      out->push_back(p);
    }
    // IS NOT NULL over an all-valid column is vacuously true: lower to
    // nothing at all.
    return true;
  }
  return false;
}

/// Compiles the contiguous Filter run directly above the Scan (the end of
/// the top-down `ops`). Those filters all see the same scan columns, and
/// conjuncts of ANDed filters commute, so they lower as one batch.
CompiledFilters CompileFilters(const std::vector<const LogicalOp*>& ops,
                               const ScanOp& scan,
                               const TableSnapshot& table) {
  CompiledFilters cf;
  std::vector<ExprRef> residual;
  for (size_t i = ops.size(); i-- > 0;) {
    if (ops[i]->kind() != OpKind::kFilter) break;
    const auto& filter = static_cast<const FilterOp&>(*ops[i]);
    for (const ExprRef& conj : SplitConjuncts(filter.predicate())) {
      if (!LowerConjunct(conj, scan, table, &cf.lowered)) {
        residual.push_back(conj);
      }
    }
    ++cf.bottom_filters;
  }
  cf.active = !cf.lowered.empty();
  if (!residual.empty()) cf.residual = AndAll(std::move(residual));
  return cf;
}

class ExecutorImpl {
 public:
  ExecutorImpl(const StorageManager* storage, ExecMetrics* metrics,
               const ExecOptions& options, ThreadPool* pool, QueryContext* ctx)
      : storage_(storage),
        metrics_(metrics),
        options_(options),
        pool_(pool),
        ctx_(ctx),  // never null: Executor::Execute substitutes a default
        morsel_size_(std::max<size_t>(1, options.morsel_size)) {}

  /// `budget` is the number of output rows an ancestor LIMIT will keep
  /// (offset + limit), or kNoBudget. Operators may stop producing once
  /// they have that many rows, because everything they emit is a prefix
  /// of the full result and the LimitOp truncates. `top_k_sort`, when
  /// given, lets a chain keep only each morsel's first `top_k` rows in
  /// that sort's order (the LIMIT-over-SORT breaker); other operators
  /// ignore it.
  Result<Chunk> Run(const PlanRef& plan, int64_t budget,
                    const SortOp* top_k_sort = nullptr,
                    int64_t top_k = kNoBudget) {
    // Operator-granularity governor check; the hot loops below add
    // morsel-granularity checks on every worker.
    VDM_RETURN_NOT_OK(ctx_->CheckAlive());
    if (IsChainOp(plan->kind())) {
      const ChainShape shape = CollectChain(plan);
      if (metrics_ != nullptr) {
        metrics_->operators_executed +=
            shape.ops.size() + (shape.streamed() ? 1 : 0);
      }
      return Timed(shape.Label(), [&] {
        return RunChain(shape, budget, top_k_sort, top_k);
      });
    }
    if (metrics_ != nullptr) ++metrics_->operators_executed;
    const char* label = OpKindLabel(plan->kind());
    switch (plan->kind()) {
      case OpKind::kScan:
      case OpKind::kFilter:
      case OpKind::kProject:
      case OpKind::kJoin:
        break;  // chains, above
      case OpKind::kAggregate:
        return Timed(label, [&] {
          return RunAggregate(static_cast<const AggregateOp&>(*plan));
        });
      case OpKind::kUnionAll:
        return Timed(label, [&] {
          return RunUnionAll(static_cast<const UnionAllOp&>(*plan), budget);
        });
      case OpKind::kSort:
        return Timed(label, [&] {
          return RunSort(static_cast<const SortOp&>(*plan));
        });
      case OpKind::kLimit:
        return Timed(label, [&] {
          return RunLimit(static_cast<const LimitOp&>(*plan), budget);
        });
      case OpKind::kDistinct:
        return Timed(label, [&] {
          return RunDistinct(static_cast<const DistinctOp&>(*plan), budget);
        });
    }
    return Status::Internal("unknown operator");
  }

 private:
  /// Runs fn() and charges its exclusive wall time (total minus nested Run
  /// calls) to op_wall_ns[label].
  template <typename Fn>
  Result<Chunk> Timed(const char* label, Fn&& fn) {
    if (metrics_ == nullptr) return fn();
    uint64_t saved_children = children_ns_;
    children_ns_ = 0;
    uint64_t start = NowNs();
    Result<Chunk> result = fn();
    uint64_t total = NowNs() - start;
    uint64_t self = total > children_ns_ ? total - children_ns_ : 0;
    metrics_->op_wall_ns[label] += self;
    children_ns_ = saved_children + total;
    return result;
  }

  size_t PoolThreads() const { return pool_ == nullptr ? 1 : pool_->size(); }

  /// Pool for a hash-table build of `build_rows` rows: small builds run
  /// serially — partitioning costs more than it saves, and the table is
  /// identical either way (descending insert makes chains independent of
  /// the partition count), so this is a pure physical choice.
  ThreadPool* BuildPool(size_t build_rows) const {
    constexpr size_t kSerialBuildThreshold = 8192;
    return build_rows < kSerialBuildThreshold ? nullptr : pool_;
  }

  /// Runs fn(i) for i in [begin, begin + count) — on the pool when it
  /// pays, inline otherwise. Returns the Status of the first escaped task
  /// exception (common/thread_pool.h); fn-level governor failures travel
  /// through the callers' per-slot Status vectors instead.
  Status RunTasks(size_t begin, size_t count,
                  const std::function<void(size_t)>& fn) {
    if (pool_ != nullptr && count > 1) {
      return pool_->ParallelFor(count, [&](size_t i) { fn(begin + i); });
    }
    try {
      for (size_t i = 0; i < count; ++i) fn(begin + i);
    } catch (...) {
      return StatusFromCurrentException();
    }
    return Status::OK();
  }

  // -----------------------------------------------------------------------
  // Scan morsels, the base of a chain over a Scan.

  /// Evaluates the compiled bottom filters on one main-fragment morsel
  /// [begin, end): kernel filters over the raw fragment arrays build a
  /// selection vector, typed gathers materialize only the survivors
  /// (strings stay lazy as dictionary codes), then the residual conjuncts
  /// run on the gathered chunk. The residual is evaluated even with zero
  /// survivors so type errors match the generic path exactly.
  Status CompressedMorsel(const ScanOp& scan, const TableSnapshot& table,
                          const CompiledFilters& cf, size_t begin, size_t end,
                          Chunk* out_chunk, uint64_t* gathered) {
    const size_t n = end - begin;
    SelectionVector sel;
    bool never = false;
    for (const LoweredPred& p : cf.lowered) {
      if (p.kind == LoweredPred::Kind::kNever) never = true;
    }
    // The first predicate filters the morsel into `sel`; the rest refine
    // it. A statically-false conjunct selects nothing.
    for (size_t i = 0; i < cf.lowered.size() && !never; ++i) {
      const LoweredPred& p = cf.lowered[i];
      const bool first = i == 0;
      if (!first && sel.empty()) break;
      const MainColumn& mc = table.main_column(p.schema_idx);
      // Codes are stored as uint32 with kNullCode = 0xFFFFFFFF; the
      // kernels read them as int32 where negative means NULL (the
      // static_assert in table.cc pins the bit pattern).
      const int32_t* codes =
          reinterpret_cast<const int32_t*>(mc.codes.data()) + begin;
      const int64_t* ints = mc.ints.data() + begin;
      const uint8_t* valid =
          mc.validity.empty() ? nullptr : mc.validity.data() + begin;
      if (first) sel.resize(n);
      uint32_t* out = sel.data();
      const size_t k = sel.size();
      switch (p.kind) {
        case LoweredPred::Kind::kCodeEq:
          sel.resize(first ? kernels::FilterCodesEq(codes, n, p.code, out)
                           : kernels::RefineCodesEq(codes, out, k, p.code));
          break;
        case LoweredPred::Kind::kCodeNe:
          sel.resize(first ? kernels::FilterCodesNe(codes, n, p.code, out)
                           : kernels::RefineCodesNe(codes, out, k, p.code));
          break;
        case LoweredPred::Kind::kCodeRange:
          sel.resize(first ? kernels::FilterCodesRange(codes, n, p.lo, p.hi,
                                                       out)
                           : kernels::RefineCodesRange(codes, out, k, p.lo,
                                                       p.hi));
          break;
        case LoweredPred::Kind::kCodeNull:
          sel.resize(first ? kernels::FilterCodesNull(codes, n, p.negated,
                                                      out)
                           : kernels::RefineCodesNull(codes, out, k,
                                                      p.negated));
          break;
        case LoweredPred::Kind::kCodeSet:
          sel.resize(first ? kernels::FilterCodesIntervalUnion(
                                 codes, n, p.set_lo.data(), p.set_hi.data(),
                                 p.set_lo.size(), p.match_null, out)
                           : kernels::RefineCodesIntervalUnion(
                                 codes, out, k, p.set_lo.data(),
                                 p.set_hi.data(), p.set_lo.size(),
                                 p.match_null));
          break;
        case LoweredPred::Kind::kInt64Cmp:
          sel.resize(first ? kernels::FilterInt64(ints, valid, n, p.cmp,
                                                  p.literal, out)
                           : kernels::RefineInt64(ints, valid, out, k, p.cmp,
                                                  p.literal));
          break;
        case LoweredPred::Kind::kNever:
          break;
      }
    }

    // Late materialization: gather only surviving rows, per column type.
    const size_t k = sel.size();
    Chunk chunk;
    for (size_t schema_idx : scan.column_indexes()) {
      chunk.names.push_back(scan.QualifiedName(schema_idx));
      const MainColumn& mc = table.main_column(schema_idx);
      const DataType& t = table.schema->column(schema_idx).type;
      if (t.id == TypeId::kString) {
        std::vector<int32_t> codes(k);
        if (k > 0) {
          kernels::GatherInt32(
              reinterpret_cast<const int32_t*>(mc.codes.data()) + begin,
              sel.data(), k, codes.data());
        }
        chunk.columns.push_back(
            ColumnData::LazyStrings(t, mc.dictionary, std::move(codes)));
        continue;
      }
      std::vector<uint8_t> validity;
      if (!mc.validity.empty()) {
        validity.resize(k);
        if (k > 0) {
          kernels::GatherBytes(mc.validity.data() + begin, sel.data(), k,
                               validity.data());
        }
      }
      if (t.id == TypeId::kDouble) {
        std::vector<double> vals(k);
        if (k > 0) {
          kernels::GatherDouble(mc.doubles.data() + begin, sel.data(), k,
                                vals.data());
        }
        chunk.columns.push_back(
            ColumnData::TakeDoubles(t, std::move(vals), std::move(validity)));
      } else {
        std::vector<int64_t> vals(k);
        if (k > 0) {
          kernels::GatherInt64(mc.ints.data() + begin, sel.data(), k,
                               vals.data());
        }
        chunk.columns.push_back(
            ColumnData::TakeInts(t, std::move(vals), std::move(validity)));
      }
    }

    if (cf.residual != nullptr) {
      VDM_ASSIGN_OR_RETURN(SelectionVector rsel,
                           SelectWhere(cf.residual, chunk));
      *gathered += KeepRows(rsel, &chunk);
    }
    *out_chunk = std::move(chunk);
    return Status::OK();
  }

  /// A chain's Scan base, prepared once and read morsel by morsel.
  struct ScanPrep {
    const ScanOp* scan = nullptr;
    TableSnapshot snap;
    CompiledFilters compiled;
    size_t n = 0;
    size_t num_morsels = 0;
    size_t main_rows = 0;
    bool all_visible = false;  // every physical row visible: no MVCC gather
  };

  Result<ScanPrep> PrepareScan(const std::vector<const LogicalOp*>& ops,
                               const ScanOp& scan) {
    ScanPrep prep;
    prep.scan = &scan;
    const Table* table = storage_->FindTable(scan.table_name());
    if (table == nullptr) {
      return Status::NotFound("no storage for table " + scan.table_name());
    }
    if (scan.column_indexes().empty()) {
      return Status::Internal("scan with no columns: " + scan.table_name());
    }
    // Pin the MVCC read view once per scan: the immutable main version
    // plus a copy of the delta. Workers never touch the Table again, so
    // concurrent DML and merges cannot race the scan.
    prep.snap = table->PinSnapshot(ctx_->snapshot());
    prep.n = prep.snap.NumRows();
    // Always process at least one (possibly empty) morsel so the output
    // carries its column names/types even for empty tables.
    prep.num_morsels =
        std::max<size_t>(1, (prep.n + morsel_size_ - 1) / morsel_size_);
    // Compile the bottom Filter run once per scan; morsels that lie
    // entirely in the main fragment with no hidden rows take the
    // compressed path, morsels overlapping the delta or MVCC-filtered
    // rows fall back to the chain's Filter steps (same results).
    if (options_.enable_compressed_exec) {
      prep.compiled = CompileFilters(ops, scan, prep.snap);
    }
    prep.main_rows = prep.snap.main_rows();
    prep.all_visible = prep.snap.AllVisible(0, prep.n);
    return prep;
  }

  /// Scans morsel m into *out. The compressed path also applies the
  /// chain's bottom Filters and sets *filtered to their count; the generic
  /// path drops the rows this snapshot cannot see.
  Status ScanMorsel(const ScanPrep& prep, size_t m, Chunk* out,
                    size_t* filtered, uint64_t* gathered) {
    const size_t begin = std::min(prep.n, m * morsel_size_);
    const size_t end = std::min(prep.n, begin + morsel_size_);
    const bool all_visible =
        prep.all_visible || prep.snap.AllVisible(begin, end);
    if (prep.compiled.active && end <= prep.main_rows && all_visible) {
      *filtered = prep.compiled.bottom_filters;
      return CompressedMorsel(*prep.scan, prep.snap, prep.compiled, begin,
                              end, out, gathered);
    }
    for (size_t schema_idx : prep.scan->column_indexes()) {
      out->names.push_back(prep.scan->QualifiedName(schema_idx));
      out->columns.push_back(prep.snap.ScanColumnRange(schema_idx, begin, end));
    }
    if (!all_visible) {
      SelectionVector vis;
      prep.snap.VisibleRows(begin, end, &vis);
      *gathered += KeepRows(vis, out);
    }
    return Status::OK();
  }

  // -----------------------------------------------------------------------
  // Hash join keys.

  /// The join condition resolved against the children's output names
  /// (chunk names equal OutputNames): column-equals-column conjuncts with
  /// one side on each input become hash keys, the rest is the residual.
  struct JoinKeys {
    std::vector<std::pair<size_t, size_t>> cols;  // (left idx, right idx)
    ExprRef residual;  // null when the keys are the whole condition
  };

  static JoinKeys ResolveJoinKeys(const JoinOp& join) {
    std::vector<std::string> ln = join.left()->OutputNames();
    std::vector<std::string> rn = join.right()->OutputNames();
    auto find = [](const std::vector<std::string>& v, const std::string& s) {
      auto it = std::find(v.begin(), v.end(), s);
      return it == v.end() ? -1 : static_cast<int>(it - v.begin());
    };
    JoinKeys keys;
    std::vector<ExprRef> residual;
    for (const ExprRef& conjunct : SplitConjuncts(join.condition())) {
      if (IsAlwaysTrue(conjunct)) continue;
      std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
      if (pair.has_value()) {
        int l = find(ln, pair->left);
        int r = find(rn, pair->right);
        if (l < 0 && r < 0) {
          l = find(ln, pair->right);
          r = find(rn, pair->left);
        }
        if (l >= 0 && r >= 0) {
          keys.cols.emplace_back(l, r);
          continue;
        }
      }
      residual.push_back(conjunct);
    }
    if (!residual.empty()) keys.residual = AndAll(std::move(residual));
    return keys;
  }

  // -----------------------------------------------------------------------
  // Chains. A stack of Join (through the probe side), Filter and Project
  // nodes runs as one morsel pipeline over its base: a Scan, read morsel
  // by morsel, or another operator's materialized output, cut into row
  // ranges. A morsel in flight is not a chunk but one
  // row-index vector per source: the base, each join's build side
  // (kInvalidIndex for a NULL-extended row) and each Project's computed
  // columns. Join keys, residuals and filters gather only the columns they
  // read; the chain's top, where a breaker or the result takes over,
  // gathers each output column once.

  /// The chain topped by some plan node: its Join, Filter and Project
  /// nodes top-down, and the base under them — a Scan, read morsel by
  /// morsel, or any other node, materialized.
  struct ChainShape {
    std::vector<const LogicalOp*> ops;
    PlanRef base;
    bool has_join = false;

    bool streamed() const { return base->kind() == OpKind::kScan; }
    const char* Label() const {
      if (has_join) return "Join";
      if (streamed()) return ops.empty() ? "Scan" : "Pipeline";
      return OpKindLabel(ops.front()->kind());
    }
  };

  static bool IsChainOp(OpKind kind) {
    return kind == OpKind::kScan || kind == OpKind::kFilter ||
           kind == OpKind::kProject || kind == OpKind::kJoin;
  }

  static ChainShape CollectChain(const PlanRef& plan) {
    ChainShape shape;
    PlanRef node = plan;
    while (node->kind() != OpKind::kScan && IsChainOp(node->kind())) {
      shape.ops.push_back(node.get());
      shape.has_join = shape.has_join || node->kind() == OpKind::kJoin;
      node = node->child(0);
    }
    shape.base = node;
    return shape;
  }

  /// A chain column: column `col` of source `src`.
  struct Slot {
    size_t src;
    size_t col;
  };

  /// The output of a chain level: column names and where each lives.
  struct Level {
    std::vector<std::string> names;
    std::vector<Slot> slots;
  };

  /// The level columns an expression reads, by first match of each name
  /// (as EvalExpr resolves them). At least one column, so a view always
  /// has the level's row count.
  static std::vector<size_t> ResolveInputs(const std::vector<ExprRef>& exprs,
                                           const Level& level) {
    std::vector<std::string> refs;
    for (const ExprRef& e : exprs) CollectColumnRefs(e, &refs);
    std::vector<size_t> cols;
    for (const std::string& name : refs) {
      auto it = std::find(level.names.begin(), level.names.end(), name);
      if (it == level.names.end()) continue;  // EvalExpr reports it
      const size_t c = static_cast<size_t>(it - level.names.begin());
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
    if (cols.empty() && !level.names.empty()) cols.push_back(0);
    return cols;
  }

  /// One Join / Filter / Project of a chain, compiled once per run.
  struct ChainStep {
    const LogicalOp* op = nullptr;
    Level out;
    std::vector<uint8_t> live;  // sources `out` reads
    int64_t budget = kNoBudget;  // output rows an ancestor keeps
    size_t src = 0;  // source of a Join's build side / Project's columns
    std::vector<size_t> inputs;  // `out` columns the residual reads, or
                                 // input columns a Filter/Project reads
    // Join
    bool left_outer = false;
    JoinKeys keys;
    Chunk build;
    std::unique_ptr<JoinHashTable> table;
    // Project: the items that are not bare column references
    std::vector<const ProjectOp::Item*> computed;
  };

  /// A chain compiled for one run; read-only while morsels run.
  struct Chain {
    std::vector<ChainStep> steps;  // bottom-up
    std::vector<const Chunk*> shared;  // per source; null = per morsel
    Level base;
    size_t num_sources = 1;
    std::vector<uint8_t> read_once;    // per top column: its slot only once
    std::vector<size_t> top_k_inputs;  // top columns the sort keys read
  };

  /// One source of a morsel in flight.
  struct Source {
    std::vector<size_t> rows;  // source row per batch row
    bool identity = false;     // rows[i] == i, not stored
    bool live = false;
    Chunk owned;  // a per-morsel source: the scan morsel, computed columns
  };

  /// One morsel in flight: `n` rows, each a row of every live source.
  struct Batch {
    size_t n = 0;
    std::vector<Source> src;
    uint64_t gathered = 0;

    explicit Batch(size_t num_sources) : src(num_sources) {}

    /// Keeps batch rows `pick` (in that order) of every live source.
    void Pick(const std::vector<size_t>& pick) {
      for (Source& s : src) {
        if (!s.live) continue;
        if (s.identity) {
          s.rows = pick;
          s.identity = false;
          continue;
        }
        std::vector<size_t> next(pick.size());
        for (size_t i = 0; i < pick.size(); ++i) next[i] = s.rows[pick[i]];
        s.rows = std::move(next);
      }
      n = pick.size();
    }

    /// Releases the sources no longer read.
    void Retain(const std::vector<uint8_t>& keep) {
      for (size_t i = 0; i < src.size(); ++i) {
        if (keep[i] || !src[i].live) continue;
        src[i] = Source();
      }
    }

    size_t IndexBytes() const {
      size_t bytes = 0;
      for (const Source& s : src) bytes += s.rows.size();
      return bytes * sizeof(size_t);
    }
  };

  static const ColumnData& SourceColumn(const Chain& chain, const Batch& b,
                                        Slot slot) {
    const Chunk* chunk = chain.shared[slot.src];
    return (chunk != nullptr ? *chunk : b.src[slot.src].owned).columns[slot.col];
  }

  /// Column `slot` at the batch's rows.
  static ColumnData Take(const Chain& chain, Batch* b, Slot slot) {
    const ColumnData& col = SourceColumn(chain, *b, slot);
    b->gathered += b->n;
    if (b->src[slot.src].identity) return col;
    return col.Gather(b->src[slot.src].rows);
  }

  /// The `cols` of `level` at the batch's rows, by name: the input chunk
  /// of an expression that reads only those columns.
  static Chunk View(const Chain& chain, const Level& level,
                    const std::vector<size_t>& cols, Batch* b) {
    Chunk view;
    for (size_t c : cols) {
      view.names.push_back(level.names[c]);
      view.columns.push_back(Take(chain, b, level.slots[c]));
    }
    return view;
  }

  /// Keeps the first `budget` entries of a row pair list (all with
  /// kNoBudget).
  static void KeepPrefix(int64_t budget, std::vector<size_t>* a,
                         std::vector<size_t>* b) {
    if (budget < 0 || a->size() <= static_cast<size_t>(budget)) return;
    a->resize(static_cast<size_t>(budget));
    b->resize(static_cast<size_t>(budget));
  }

  /// Probes the batch through join `step` in (probe row, ascending build
  /// row) order; without a hash table (no equi key) every build row
  /// matches. The residual then drops matches, a LEFT OUTER probe row left
  /// without one is null-extended, and at most the step's budget of rows
  /// is kept: the caller needs only a prefix.
  static Status ProbeStep(const Chain& chain, const ChainStep& step,
                          const Level& in, Batch* b) {
    const size_t n = b->n;
    std::vector<size_t> lrows, rrows, matches;
    lrows.reserve(n);
    rrows.reserve(n);
    std::vector<ColumnData> gathered_keys;
    gathered_keys.reserve(step.keys.cols.size());
    std::vector<const ColumnData*> key_cols;
    std::optional<JoinHashTable::Prober> prober;
    if (step.table != nullptr) {
      for (const auto& [lc, rc] : step.keys.cols) {
        const Slot slot = in.slots[lc];
        if (b->src[slot.src].identity) {
          key_cols.push_back(&SourceColumn(chain, *b, slot));
        } else {
          gathered_keys.push_back(Take(chain, b, slot));
          key_cols.push_back(&gathered_keys.back());
        }
      }
      prober.emplace(*step.table);
      prober->Bind(&key_cols);
    }
    const size_t build_rows = step.build.NumRows();
    for (size_t l = 0; l < n; ++l) {
      size_t count = build_rows;
      if (prober.has_value()) {
        matches.clear();
        count = prober->ProbeRow(l, &matches);
        for (size_t r : matches) {
          lrows.push_back(l);
          rrows.push_back(r);
        }
      } else {
        for (size_t r = 0; r < count; ++r) {
          lrows.push_back(l);
          rrows.push_back(r);
        }
      }
      if (count == 0 && step.left_outer) {
        lrows.push_back(l);
        rrows.push_back(ColumnData::kInvalidIndex);
      }
    }
    // Without a residual the budget applies before the sources compose.
    const bool residual = step.keys.residual != nullptr;
    if (!residual) KeepPrefix(step.budget, &lrows, &rrows);
    b->Pick(lrows);
    b->src[step.src].rows = std::move(rrows);
    b->src[step.src].live = true;
    if (!residual) return Status::OK();
    // The residual is part of the join condition: it runs on every
    // candidate (even none, so type errors surface), and a LEFT OUTER probe
    // row whose matches all fail reverts to null extension.
    VDM_ASSIGN_OR_RETURN(
        SelectionVector pass,
        SelectWhere(step.keys.residual,
                    View(chain, step.out, step.inputs, b)));
    const std::vector<size_t>& cand_r = b->src[step.src].rows;
    std::vector<size_t> kept, kept_r;  // candidate index, build row
    size_t p = 0;
    for (size_t i = 0; i < lrows.size();) {
      const size_t first = i;
      bool any = false;
      for (; i < lrows.size() && lrows[i] == lrows[first]; ++i) {
        const bool passed = p < pass.size() && pass[p] == i;
        if (passed) ++p;
        if (passed && cand_r[i] != ColumnData::kInvalidIndex) {
          kept.push_back(i);
          kept_r.push_back(cand_r[i]);
          any = true;
        }
      }
      if (!any && step.left_outer) {
        kept.push_back(first);
        kept_r.push_back(ColumnData::kInvalidIndex);
      }
    }
    KeepPrefix(step.budget, &kept, &kept_r);
    b->src[step.src].live = false;
    b->Pick(kept);
    b->src[step.src].rows = std::move(kept_r);
    b->src[step.src].live = true;
    return Status::OK();
  }

  /// One morsel's chain output and the counts RunWaves and the metrics
  /// read.
  struct ChainPiece {
    Chunk out;
    std::vector<size_t> level_rows;  // rows leaving the base and each step
    size_t index_bytes = 0;          // peak row-index bytes held
    uint64_t gathered = 0;
  };

  /// Runs morsel(m, &(*pieces)[m]) for every morsel, in waves, and returns
  /// how many morsels ran (always a prefix). `budgets` holds a row budget
  /// (or kNoBudget) per chain level. Without one, one wave holds every
  /// morsel. With one, each wave holds two pool-widths of morsels, and the
  /// waves stop once some level has produced its budget: the chain's
  /// output is a prefix in morsel order, so a downstream LIMIT keeps the
  /// same rows. Every morsel polls the governor first; the first failure
  /// in morsel order is returned. `charge` is charged each wave's row
  /// indexes.
  Result<size_t> RunWaves(
      size_t num_morsels, const std::vector<int64_t>& budgets,
      const std::function<Status(size_t, ChainPiece*)>& morsel,
      std::vector<ChainPiece>* pieces, ScopedMemoryCharge* charge) {
    pieces->resize(num_morsels);
    std::vector<Status> errors(num_morsels);
    auto process = [&](size_t m) {
      errors[m] = ctx_->CheckAlive();
      if (errors[m].ok()) errors[m] = morsel(m, &(*pieces)[m]);
    };
    const bool limited =
        std::any_of(budgets.begin(), budgets.end(),
                    [](int64_t budget) { return budget >= 0; });
    size_t processed = 0;
    std::vector<uint64_t> level_rows(budgets.size(), 0);
    while (processed < num_morsels) {
      size_t wave = num_morsels - processed;
      if (limited) {
        wave = std::min(wave, std::max<size_t>(PoolThreads() * 2, 1));
      }
      VDM_RETURN_NOT_OK(RunTasks(processed, wave, process));
      int64_t wave_bytes = 0;
      for (size_t m = processed; m < processed + wave; ++m) {
        VDM_RETURN_NOT_OK(errors[m]);
        const ChainPiece& piece = (*pieces)[m];
        for (size_t l = 0; l < budgets.size(); ++l) {
          level_rows[l] += piece.level_rows[l];
        }
        wave_bytes += static_cast<int64_t>(piece.index_bytes);
      }
      VDM_RETURN_NOT_OK(charge->Charge(wave_bytes));
      processed += wave;
      bool met = false;
      for (size_t l = 0; l < budgets.size(); ++l) {
        met = met || (budgets[l] >= 0 &&
                      level_rows[l] >= static_cast<uint64_t>(budgets[l]));
      }
      if (met && processed < num_morsels) {
        if (metrics_ != nullptr) ++metrics_->limit_early_exits;
        break;
      }
    }
    return processed;
  }

  /// Concatenates the outputs of pieces[0, count) in morsel order.
  /// pieces[0] always exists and carries the names and column types, even
  /// when empty.
  static Chunk ConcatPieces(std::vector<ChainPiece>* pieces, size_t count) {
    Chunk out = std::move((*pieces)[0].out);
    for (size_t m = 1; m < count; ++m) {
      for (size_t c = 0; c < out.columns.size(); ++c) {
        out.columns[c].AppendColumn(std::move((*pieces)[m].out.columns[c]));
      }
    }
    return out;
  }

  /// The chain's work for one morsel, gathered into piece->out. With
  /// `top_k_sort`, only the morsel's first `top_k` rows in that order
  /// (kept in input order) are gathered.
  Status ChainMorsel(const Chain& chain, const ScanPrep* prep,
                     const SortOp* top_k_sort, int64_t top_k, size_t m,
                     ChainPiece* piece) {
    Batch b(chain.num_sources);
    b.src[0].live = true;
    size_t filtered = 0;  // bottom Filter steps the scan already applied
    if (prep != nullptr) {
      VDM_RETURN_NOT_OK(
          ScanMorsel(*prep, m, &b.src[0].owned, &filtered, &b.gathered));
      b.src[0].identity = true;
      b.n = b.src[0].owned.NumRows();
    } else {
      const size_t rows = chain.shared[0]->NumRows();
      const size_t begin = std::min(rows, m * morsel_size_);
      b.n = std::min(rows, begin + morsel_size_) - begin;
      b.src[0].rows.resize(b.n);
      for (size_t i = 0; i < b.n; ++i) b.src[0].rows[i] = begin + i;
    }
    piece->level_rows.reserve(chain.steps.size() + 1);
    piece->level_rows.push_back(b.n);
    const Level* level = &chain.base;
    for (size_t i = 0; i < chain.steps.size(); ++i) {
      const ChainStep& step = chain.steps[i];
      switch (i < filtered ? OpKind::kScan : step.op->kind()) {
        case OpKind::kScan:
          break;
        case OpKind::kJoin:
          VDM_RETURN_NOT_OK(ProbeStep(chain, step, *level, &b));
          break;
        case OpKind::kFilter: {
          const auto& filter = static_cast<const FilterOp&>(*step.op);
          VDM_ASSIGN_OR_RETURN(
              SelectionVector sel,
              SelectWhere(filter.predicate(),
                          View(chain, *level, step.inputs, &b)));
          if (sel.size() != b.n) {
            b.Pick(std::vector<size_t>(sel.begin(), sel.end()));
          }
          break;
        }
        default: {  // kProject
          if (step.computed.empty()) break;
          const Chunk view = View(chain, *level, step.inputs, &b);
          Chunk& computed = b.src[step.src].owned;
          for (const ProjectOp::Item* item : step.computed) {
            VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(item->expr, view));
            computed.columns.push_back(std::move(col));
          }
          b.src[step.src].identity = true;
          b.src[step.src].live = true;
          break;
        }
      }
      b.Retain(step.live);
      level = &step.out;
      piece->level_rows.push_back(b.n);
      piece->index_bytes = std::max(piece->index_bytes, b.IndexBytes());
    }
    if (top_k_sort != nullptr) {
      VDM_ASSIGN_OR_RETURN(
          std::vector<size_t> keep,
          SortOrder(*top_k_sort, View(chain, *level, chain.top_k_inputs, &b),
                    top_k));
      std::sort(keep.begin(), keep.end());
      if (keep.size() != b.n) b.Pick(keep);
    }
    // The breaker's gather: each output column once. A per-morsel column
    // read once at identity rows moves out instead.
    piece->out.names = level->names;
    for (size_t c = 0; c < level->slots.size(); ++c) {
      const Slot slot = level->slots[c];
      const bool movable = chain.read_once[c] && b.src[slot.src].identity &&
                           chain.shared[slot.src] == nullptr;
      piece->out.columns.push_back(
          movable ? std::move(b.src[slot.src].owned.columns[slot.col])
                  : Take(chain, &b, slot));
    }
    piece->gathered = b.gathered;
    return Status::OK();
  }

  /// Builds join `step`'s hash table over its materialized build side.
  Status PrepareJoin(const JoinOp& join, ChainStep* step) {
    step->left_outer = join.join_type() == JoinType::kLeftOuter;
    step->keys = ResolveJoinKeys(join);
    VDM_ASSIGN_OR_RETURN(step->build, Run(join.right(), kNoBudget));
    if (metrics_ != nullptr) metrics_->rows_build_input += step->build.NumRows();
    if (!step->keys.cols.empty()) {
      std::vector<const ColumnData*> build_cols;
      build_cols.reserve(step->keys.cols.size());
      for (const auto& [lc, rc] : step->keys.cols) {
        build_cols.push_back(&step->build.columns[rc]);
      }
      step->table = std::make_unique<JoinHashTable>(std::move(build_cols));
      VDM_RETURN_NOT_OK(
          step->table->Build(BuildPool(step->build.NumRows()), ctx_));
      if (metrics_ != nullptr) {
        metrics_->peak_hash_table_entries = std::max<uint64_t>(
            metrics_->peak_hash_table_entries, step->table->num_entries());
      }
    }
    VDM_FAULT_POINT("exec.join.probe");
    return Status::OK();
  }

  /// Runs a chain and gathers its output. `budget` is the ancestor LIMIT's
  /// row budget; `top_k_sort`/`top_k` are the LIMIT-over-SORT breaker's
  /// (each morsel then gathers only its own top k rows).
  Result<Chunk> RunChain(const ChainShape& shape, int64_t budget,
                         const SortOp* top_k_sort, int64_t top_k) {
    const size_t num_steps = shape.ops.size();
    // Row budgets per level (0 = base, i + 1 = step i), top-down: a Project
    // passes its budget through, a Filter's input is unbounded, and a Join
    // keeps at most its budget (the optimizer's limit hint included),
    // which reaches its probe side only when LEFT OUTER: such a join emits
    // at least one row per probe row.
    std::vector<int64_t> budgets(num_steps + 1, kNoBudget);
    const bool early = options_.enable_limit_early_exit;
    int64_t b = early ? budget : kNoBudget;
    for (size_t t = 0; t < num_steps; ++t) {
      const LogicalOp* op = shape.ops[t];
      if (op->kind() == OpKind::kJoin) {
        const auto& join = static_cast<const JoinOp&>(*op);
        const int64_t hint = join.limit_hint();
        if (early && hint >= 0 && (b < 0 || hint < b)) b = hint;
        budgets[num_steps - t] = b;
        if (join.join_type() != JoinType::kLeftOuter) b = kNoBudget;
      } else {
        budgets[num_steps - t] = b;
        if (op->kind() == OpKind::kFilter) b = kNoBudget;
      }
    }
    budgets[0] = b;

    Chain chain;
    Chunk base;
    if (shape.streamed()) {
      chain.shared.push_back(nullptr);
      chain.base.names = shape.base->OutputNames();
    } else {
      VDM_ASSIGN_OR_RETURN(base, Run(shape.base, budgets[0]));
      chain.shared.push_back(&base);
      chain.base.names = base.names;
    }
    for (size_t c = 0; c < chain.base.names.size(); ++c) {
      chain.base.slots.push_back({0, c});
    }
    chain.steps.resize(num_steps);  // never resized again: sources point in
    const Level* level = &chain.base;
    for (size_t i = 0; i < num_steps; ++i) {
      ChainStep& step = chain.steps[i];
      step.op = shape.ops[num_steps - 1 - i];
      step.budget = budgets[i + 1];
      if (step.op->kind() != OpKind::kProject) step.out = *level;
      if (step.op->kind() == OpKind::kJoin) {
        VDM_RETURN_NOT_OK(
            PrepareJoin(static_cast<const JoinOp&>(*step.op), &step));
        step.src = chain.num_sources++;
        chain.shared.push_back(&step.build);
        for (size_t c = 0; c < step.build.names.size(); ++c) {
          step.out.names.push_back(step.build.names[c]);
          step.out.slots.push_back({step.src, c});
        }
        if (step.keys.residual != nullptr) {
          step.inputs = ResolveInputs({step.keys.residual}, step.out);
        }
      } else if (step.op->kind() == OpKind::kFilter) {
        step.inputs = ResolveInputs(
            {static_cast<const FilterOp&>(*step.op).predicate()}, *level);
      } else {
        const auto& project = static_cast<const ProjectOp&>(*step.op);
        step.src = chain.num_sources;
        std::vector<ExprRef> exprs;
        for (const ProjectOp::Item& item : project.items()) {
          const ColumnRefExpr* ref = AsColumnRef(item.expr);
          auto it = ref == nullptr ? level->names.end()
                                   : std::find(level->names.begin(),
                                               level->names.end(),
                                               ref->name());
          if (it != level->names.end()) {  // a rename
            step.out.slots.push_back(
                level->slots[static_cast<size_t>(it - level->names.begin())]);
          } else {
            step.out.slots.push_back({step.src, step.computed.size()});
            step.computed.push_back(&item);
            exprs.push_back(item.expr);
          }
          step.out.names.push_back(item.name);
        }
        if (!step.computed.empty()) {
          ++chain.num_sources;
          chain.shared.push_back(nullptr);
          step.inputs = ResolveInputs(exprs, *level);
        }
      }
      level = &step.out;
    }
    for (ChainStep& step : chain.steps) {
      step.live.assign(chain.num_sources, 0);
      for (const Slot& slot : step.out.slots) step.live[slot.src] = 1;
    }
    for (const Slot& slot : level->slots) {
      chain.read_once.push_back(
          std::count_if(level->slots.begin(), level->slots.end(),
                        [&](const Slot& s) {
                          return s.src == slot.src && s.col == slot.col;
                        }) == 1);
    }
    if (top_k_sort != nullptr) {
      std::vector<ExprRef> keys;
      for (const SortOp::SortKey& key : top_k_sort->keys()) {
        keys.push_back(key.expr);
      }
      chain.top_k_inputs = ResolveInputs(keys, *level);
    }

    std::optional<ScanPrep> prep;
    size_t num_morsels =
        std::max<size_t>(1, (base.NumRows() + morsel_size_ - 1) / morsel_size_);
    if (shape.streamed()) {
      VDM_ASSIGN_OR_RETURN(
          prep, PrepareScan(shape.ops,
                            static_cast<const ScanOp&>(*shape.base)));
      num_morsels = prep->num_morsels;
      if (!shape.has_join) VDM_FAULT_POINT("exec.pipeline.morsel");
    }
    // Row indexes are the chain's largest intermediate besides the build
    // tables; RunWaves charges them wave by wave so a budget violation
    // surfaces before the allocation runs away.
    ScopedMemoryCharge index_mem(&ctx_->memory());
    std::vector<ChainPiece> pieces;
    VDM_ASSIGN_OR_RETURN(
        size_t processed,
        RunWaves(num_morsels, budgets,
                 [&](size_t m, ChainPiece* piece) {
                   return ChainMorsel(chain, prep ? &*prep : nullptr,
                                      top_k_sort, top_k, m, piece);
                 },
                 &pieces, &index_mem));
    if (metrics_ != nullptr) {
      if (prep.has_value()) {
        metrics_->rows_scanned += std::min(prep->n, processed * morsel_size_);
        metrics_->morsels_scanned += processed;
      }
      for (size_t m = 0; m < processed; ++m) {
        metrics_->values_gathered += pieces[m].gathered;
        for (size_t i = 0; i < num_steps; ++i) {
          if (chain.steps[i].op->kind() != OpKind::kJoin) continue;
          metrics_->rows_probe_input += pieces[m].level_rows[i];
          if (m == 0) metrics_->morsels_probed += processed;
        }
      }
    }

    // The last wave may overshoot the budget; the ancestor LimitOp trims.
    return ConcatPieces(&pieces, processed);
  }

  // -----------------------------------------------------------------------
  // Aggregation: each partition accumulates one row range into its own
  // group table and partials, and the partitions merge in row order.
  // Serial execution is one partition covering every row.

  /// Running state of one aggregate over one group.
  struct AggPartial {
    int64_t count = 0;  // COUNT(*), COUNT(x), AVG's divisor
    int64_t sum = 0;    // SUM of integer-backed payloads
    double dsum = 0.0;  // SUM with a double result, AVG's dividend
    bool any = false;   // SUM/MIN/MAX saw a non-NULL input
    Value best;         // MIN/MAX
    std::unique_ptr<std::unordered_set<std::string>> seen;  // COUNT(DISTINCT)
  };

  /// One partition: its group table (null for a global aggregate), the
  /// first row of each group in first-occurrence order, and the partials.
  struct AggPartition {
    std::unique_ptr<GroupKeyTable> table;
    std::vector<size_t> first_rows;
    std::vector<std::vector<AggPartial>> states;  // [agg][group]
    Status status;
  };

  /// True when partials merged in row order equal one partition's result
  /// bit for bit: integer sums and counts add exactly, and MIN/MAX ties
  /// keep the earlier partition's value. Double sums and averages depend
  /// on the order of additions, and COUNT(DISTINCT) would merge whole
  /// seen-sets, so those aggregate sets run as one partition.
  static bool OrderInsensitive(const std::vector<const AggregateExpr*>& aggs,
                               const std::vector<DataType>& result_types) {
    for (size_t k = 0; k < aggs.size(); ++k) {
      switch (aggs[k]->agg()) {
        case AggKind::kCountStar:
        case AggKind::kMin:
        case AggKind::kMax:
          break;
        case AggKind::kCount:
          if (aggs[k]->distinct()) return false;
          break;
        case AggKind::kSum:
          if (result_types[k].id == TypeId::kDouble) return false;
          break;
        case AggKind::kAvg:
          return false;
      }
    }
    return true;
  }

  /// MIN/MAX step: only a strictly better value replaces the kept one, so
  /// ties keep the first occurrence.
  static void KeepBest(AggKind kind, const Value& v, AggPartial* p) {
    if (!p->any) {
      p->best = v;
      p->any = true;
      return;
    }
    const int cmp = v.Compare(p->best);
    if ((kind == AggKind::kMin && cmp < 0) ||
        (kind == AggKind::kMax && cmp > 0)) {
      p->best = v;
    }
  }

  /// Adds row `r` of `arg` to *p. `key` is scratch for COUNT(DISTINCT).
  static void Accumulate(const AggregateExpr& a, const ColumnData& arg,
                         const DataType& result_type, size_t r,
                         std::string* key, AggPartial* p) {
    if (a.agg() == AggKind::kCountStar) {
      ++p->count;
      return;
    }
    if (arg.IsNull(r)) return;
    switch (a.agg()) {
      case AggKind::kCountStar:
        break;
      case AggKind::kCount:
        if (!a.distinct()) {
          ++p->count;
          break;
        }
        key->clear();
        AppendKeyBytes(arg, r, key);
        if (p->seen == nullptr) {
          p->seen = std::make_unique<std::unordered_set<std::string>>();
        }
        p->seen->insert(*key);
        break;
      case AggKind::kSum:
        p->any = true;
        if (result_type.id != TypeId::kDouble) {
          p->sum += arg.ints()[r];
        } else if (arg.type().id == TypeId::kDouble) {
          p->dsum += arg.doubles()[r];
        } else {
          p->dsum += arg.GetValue(r).ToDouble();
        }
        break;
      case AggKind::kAvg:
        p->dsum += arg.GetValue(r).ToDouble();
        ++p->count;
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        KeepBest(a.agg(), arg.GetValue(r), p);
        break;
    }
  }

  /// Folds a later partition's partial for the same group into *dst.
  static void Merge(AggKind kind, AggPartial&& src, AggPartial* dst) {
    if (kind == AggKind::kMin || kind == AggKind::kMax) {
      if (src.any) KeepBest(kind, src.best, dst);
      return;
    }
    dst->count += src.count;
    dst->sum += src.sum;
    dst->dsum += src.dsum;
    dst->any = dst->any || src.any;
    if (src.seen != nullptr) {
      if (dst->seen == nullptr) {
        dst->seen = std::move(src.seen);
      } else {
        dst->seen->merge(*src.seen);
      }
    }
  }

  /// Appends the aggregate's value for a finished group to *out.
  static void Finalize(AggKind kind, const DataType& result_type,
                       const AggPartial& p, ColumnData* out) {
    switch (kind) {
      case AggKind::kCountStar:
        out->AppendInt(p.count);
        return;
      case AggKind::kCount:
        out->AppendInt(p.seen != nullptr
                           ? static_cast<int64_t>(p.seen->size())
                           : p.count);
        return;
      case AggKind::kSum:
        if (!p.any) {
          out->AppendNull();
        } else if (result_type.id == TypeId::kDouble) {
          out->AppendDouble(p.dsum);
        } else {
          out->AppendInt(p.sum);
        }
        return;
      case AggKind::kAvg:
        if (p.count == 0) {
          out->AppendNull();
        } else {
          out->AppendDouble(p.dsum / static_cast<double>(p.count));
        }
        return;
      case AggKind::kMin:
      case AggKind::kMax:
        if (p.any) {
          out->AppendValue(p.best);
        } else {
          out->AppendNull();
        }
        return;
    }
  }

  Result<Chunk> RunAggregate(const AggregateOp& agg) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(agg.child(0), kNoBudget));
    VDM_FAULT_POINT("exec.aggregate");
    size_t n = input.NumRows();
    if (metrics_ != nullptr) metrics_->rows_aggregated += n;

    // Evaluate group expressions.
    std::vector<ColumnData> group_cols;
    for (const AggregateOp::GroupItem& g : agg.group_by()) {
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(g.expr, input));
      group_cols.push_back(std::move(col));
    }

    // Collect the distinct aggregate nodes across all items.
    std::vector<ExprRef> agg_nodes;
    std::function<void(const ExprRef&)> collect = [&](const ExprRef& e) {
      if (e->kind() == ExprKind::kAggregate) {
        for (const ExprRef& existing : agg_nodes) {
          if (existing->Equals(*e)) return;
        }
        agg_nodes.push_back(e);
        return;
      }
      for (const ExprRef& child : e->children()) collect(child);
    };
    for (const AggregateOp::AggItem& item : agg.aggregates()) {
      collect(item.expr);
    }

    // Evaluate aggregate arguments and result types.
    TypeEnv env;
    for (size_t c = 0; c < input.names.size(); ++c) {
      env[input.names[c]] = input.columns[c].type();
    }
    std::vector<ColumnData> arg_cols(agg_nodes.size());
    std::vector<const AggregateExpr*> agg_exprs(agg_nodes.size());
    std::vector<DataType> result_types;
    result_types.reserve(agg_nodes.size());
    for (size_t k = 0; k < agg_nodes.size(); ++k) {
      const auto& a = static_cast<const AggregateExpr&>(*agg_nodes[k]);
      agg_exprs[k] = &a;
      if (a.has_arg()) {
        VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(a.arg(), input));
        arg_cols[k] = std::move(col);
      }
      VDM_ASSIGN_OR_RETURN(DataType result_type, InferType(agg_nodes[k], env));
      result_types.push_back(result_type);
    }

    bool global = agg.group_by().empty();
    std::vector<const ColumnData*> key_ptrs;
    key_ptrs.reserve(group_cols.size());
    for (const ColumnData& col : group_cols) key_ptrs.push_back(&col);

    std::vector<size_t> first_row;          // per group, in output order
    std::vector<ColumnData> agg_results;    // one column per aggregate node
    VDM_RETURN_NOT_OK(AggregateRows(n, global, key_ptrs, agg_exprs, arg_cols,
                                    result_types, &first_row, &agg_results));
    size_t n_groups = first_row.size();
    if (metrics_ != nullptr && !global) {
      metrics_->peak_hash_table_entries = std::max<uint64_t>(
          metrics_->peak_hash_table_entries, n_groups);
    }

    // Intermediate chunk: group columns + aggregate slots.
    Chunk interim;
    for (size_t gi = 0; gi < agg.group_by().size(); ++gi) {
      interim.names.push_back(agg.group_by()[gi].name);
      interim.columns.push_back(group_cols[gi].Gather(first_row));
    }
    if (metrics_ != nullptr) {
      metrics_->values_gathered += n_groups * group_cols.size();
    }
    for (size_t k = 0; k < agg_nodes.size(); ++k) {
      interim.names.push_back(StrFormat("__agg_%zu", k));
      interim.columns.push_back(std::move(agg_results[k]));
    }

    // Final output: group items, then aggregate items (which may be scalar
    // expressions over aggregates — §7.2 expression macros rely on this).
    Chunk out;
    for (size_t gi = 0; gi < agg.group_by().size(); ++gi) {
      out.names.push_back(agg.group_by()[gi].name);
      out.columns.push_back(interim.columns[gi]);
    }
    for (const AggregateOp::AggItem& item : agg.aggregates()) {
      ExprRef rewritten =
          TransformExpr(item.expr, [&](const ExprRef& node) -> ExprRef {
            if (node->kind() != ExprKind::kAggregate) return nullptr;
            for (size_t k = 0; k < agg_nodes.size(); ++k) {
              if (node->Equals(*agg_nodes[k])) {
                return Col(StrFormat("__agg_%zu", k));
              }
            }
            return nullptr;
          });
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(rewritten, interim));
      out.names.push_back(item.name);
      out.columns.push_back(std::move(col));
    }
    return out;
  }

  /// Groups rows [0, n) and computes every aggregate per group: group ids
  /// in first-occurrence order, a global aggregate one group even over no
  /// rows. The partition count is the morsel count when a pool is present,
  /// there are at least two morsels of rows and the aggregate set is
  /// order-insensitive; otherwise one partition covers every row.
  Status AggregateRows(size_t n, bool global,
                       const std::vector<const ColumnData*>& key_ptrs,
                       const std::vector<const AggregateExpr*>& aggs,
                       const std::vector<ColumnData>& arg_cols,
                       const std::vector<DataType>& result_types,
                       std::vector<size_t>* first_row,
                       std::vector<ColumnData>* agg_results) {
    for (const AggregateExpr* a : aggs) {
      if (a->distinct() && a->agg() != AggKind::kCount &&
          a->agg() != AggKind::kMin && a->agg() != AggKind::kMax) {
        return Status::ExecutionError("DISTINCT unsupported in " +
                                      a->ToString());
      }
    }
    const size_t num_aggs = aggs.size();
    const bool split = pool_ != nullptr && n >= 2 * morsel_size_ &&
                       OrderInsensitive(aggs, result_types);
    const size_t part_rows = split ? morsel_size_ : std::max<size_t>(n, 1);
    std::vector<AggPartition> parts(split ? (n + part_rows - 1) / part_rows
                                          : 1);
    auto add_group = [&](AggPartition* part, size_t row) {
      part->first_rows.push_back(row);
      for (size_t k = 0; k < num_aggs; ++k) part->states[k].emplace_back();
    };
    auto accumulate = [&](size_t m) {
      AggPartition& part = parts[m];
      const size_t begin = m * part_rows;
      const size_t end = std::min(n, begin + part_rows);
      part.states.resize(num_aggs);
      if (global) {
        add_group(&part, begin);
      } else {
        part.table = std::make_unique<GroupKeyTable>(key_ptrs);
        part.table->set_tracker(&ctx_->memory());
      }
      std::string key;
      for (size_t r = begin; r < end; ++r) {
        if (((r - begin) & 4095) == 0) {
          part.status = ctx_->CheckAlive();
          if (part.status.ok() && !global) part.status = part.table->status();
          if (!part.status.ok()) return;
        }
        size_t g = 0;
        if (!global) {
          g = part.table->GetOrAdd(r);
          if (g == part.first_rows.size()) add_group(&part, r);
        }
        for (size_t k = 0; k < num_aggs; ++k) {
          Accumulate(*aggs[k], arg_cols[k], result_types[k], r, &key,
                     &part.states[k][g]);
        }
      }
      if (!global) part.status = part.table->status();
    };
    VDM_RETURN_NOT_OK(RunTasks(0, parts.size(), accumulate));
    for (const AggPartition& part : parts) VDM_RETURN_NOT_OK(part.status);

    // Merge into partition 0 in partition order; within a partition, in
    // local first-occurrence order. Both follow row order, so group ids
    // come out in first-occurrence order over all rows.
    AggPartition& merged = parts[0];
    for (size_t m = 1; m < parts.size(); ++m) {
      AggPartition& part = parts[m];
      for (size_t lg = 0; lg < part.first_rows.size(); ++lg) {
        const size_t row = part.first_rows[lg];
        const size_t g = global ? 0 : merged.table->GetOrAdd(row);
        if (g == merged.first_rows.size()) {
          merged.first_rows.push_back(row);
          for (size_t k = 0; k < num_aggs; ++k) {
            merged.states[k].push_back(std::move(part.states[k][lg]));
          }
        } else {
          for (size_t k = 0; k < num_aggs; ++k) {
            Merge(aggs[k]->agg(), std::move(part.states[k][lg]),
                  &merged.states[k][g]);
          }
        }
      }
    }
    if (!global) VDM_RETURN_NOT_OK(merged.table->status());

    const size_t n_groups = merged.first_rows.size();
    for (size_t k = 0; k < num_aggs; ++k) {
      ColumnData out(result_types[k]);
      out.Reserve(n_groups);
      for (const AggPartial& p : merged.states[k]) {
        Finalize(aggs[k]->agg(), result_types[k], p, &out);
      }
      agg_results->push_back(std::move(out));
    }
    *first_row = std::move(merged.first_rows);
    return Status::OK();
  }

  // -----------------------------------------------------------------------

  Result<Chunk> RunUnionAll(const UnionAllOp& u, int64_t budget) {
    // Each child contributes a prefix of the concatenation, so the budget
    // passes through, and once enough rows exist the remaining children
    // can be skipped entirely.
    bool limit_aware = budget >= 0 && options_.enable_limit_early_exit;
    Chunk out;
    bool first = true;
    for (const PlanRef& child : u.children()) {
      if (limit_aware && !first &&
          out.NumRows() >= static_cast<uint64_t>(budget)) {
        if (metrics_ != nullptr) ++metrics_->limit_early_exits;
        break;
      }
      VDM_ASSIGN_OR_RETURN(Chunk chunk,
                           Run(child, limit_aware ? budget : kNoBudget));
      if (first) {
        out.names = u.output_names();
        for (const ColumnData& col : chunk.columns) {
          out.columns.emplace_back(col.type());
        }
        first = false;
      }
      if (chunk.columns.size() != out.columns.size()) {
        return Status::ExecutionError("UNION ALL arity mismatch");
      }
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        ColumnData& dst = out.columns[c];
        const ColumnData& src = chunk.columns[c];
        if (dst.type().id == src.type().id) {
          for (size_t r = 0; r < src.size(); ++r) dst.AppendFrom(src, r);
        } else {
          // Slow path with per-value coercion.
          for (size_t r = 0; r < src.size(); ++r) {
            dst.AppendValue(src.GetValue(r));
          }
        }
      }
    }
    return out;
  }

  /// Three-way compare of rows a and b of one sort key column, NULL
  /// first (Value::Compare's order), on the typed storage: no Value and
  /// no string copy per comparison.
  static int CompareKeyRows(const ColumnData& col, size_t a, size_t b) {
    const bool na = col.IsNull(a);
    const bool nb = col.IsNull(b);
    if (na || nb) return na == nb ? 0 : (na ? -1 : 1);
    switch (col.type().id) {
      case TypeId::kString: {
        const int cmp = col.StringAt(a).compare(col.StringAt(b));
        return cmp < 0 ? -1 : (cmp == 0 ? 0 : 1);
      }
      case TypeId::kDouble: {
        const double x = col.doubles()[a];
        const double y = col.doubles()[b];
        return x < y ? -1 : (x == y ? 0 : 1);
      }
      default: {
        const int64_t x = col.ints()[a];
        const int64_t y = col.ints()[b];
        return x < y ? -1 : (x == y ? 0 : 1);
      }
    }
  }

  /// Row positions of `input` in `sort` order, ties broken by position.
  /// With `top_k >= 0` only the first top_k positions are ordered and
  /// returned.
  static Result<std::vector<size_t>> SortOrder(const SortOp& sort,
                                               const Chunk& input,
                                               int64_t top_k) {
    std::vector<ColumnData> key_cols;
    for (const SortOp::SortKey& key : sort.keys()) {
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(key.expr, input));
      key_cols.push_back(std::move(col));
    }
    std::vector<size_t> order(input.NumRows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto less = [&](size_t a, size_t b) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        const int cmp = CompareKeyRows(key_cols[k], a, b);
        if (cmp != 0) return sort.keys()[k].ascending ? cmp < 0 : cmp > 0;
      }
      return a < b;
    };
    if (top_k >= 0 && static_cast<size_t>(top_k) < order.size()) {
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<ptrdiff_t>(top_k),
                        order.end(), less);
      order.resize(static_cast<size_t>(top_k));
    } else {
      std::sort(order.begin(), order.end(), less);
    }
    return order;
  }

  /// Gathers `rows` of every column of `input`.
  Chunk GatherChunk(const Chunk& input, const std::vector<size_t>& rows) {
    Chunk out;
    out.names = input.names;
    out.columns.reserve(input.columns.size());
    for (const ColumnData& col : input.columns) {
      out.columns.push_back(col.Gather(rows));
    }
    if (metrics_ != nullptr) {
      metrics_->values_gathered += rows.size() * input.columns.size();
    }
    return out;
  }

  Result<Chunk> RunSort(const SortOp& sort) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(sort.child(0), kNoBudget));
    VDM_ASSIGN_OR_RETURN(std::vector<size_t> order,
                         SortOrder(sort, input, kNoBudget));
    return GatherChunk(input, order);
  }

  Result<Chunk> RunLimit(const LimitOp& limit, int64_t budget) {
    int64_t my_budget = limit.offset() + limit.limit();
    if (budget >= 0 && budget < my_budget) my_budget = budget;
    // Top-k fusion: LIMIT directly above SORT orders only the first
    // offset+limit positions instead of the whole input, and a chain below
    // gathers only each morsel's own top offset+limit rows.
    Chunk input;
    if (limit.child(0)->kind() == OpKind::kSort) {
      const auto& sort = static_cast<const SortOp&>(*limit.child(0));
      const int64_t top_k = limit.offset() + limit.limit();
      VDM_ASSIGN_OR_RETURN(Chunk candidates,
                           Run(sort.child(0), kNoBudget, &sort, top_k));
      VDM_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           SortOrder(sort, candidates, top_k));
      input = GatherChunk(candidates, order);
    } else {
      VDM_ASSIGN_OR_RETURN(
          input, Run(limit.child(0),
                     options_.enable_limit_early_exit ? my_budget : kNoBudget));
    }
    std::vector<size_t> rows;
    int64_t start = limit.offset();
    int64_t end = start + limit.limit();
    for (int64_t i = start;
         i < end && i < static_cast<int64_t>(input.NumRows()); ++i) {
      rows.push_back(static_cast<size_t>(i));
    }
    if (rows.size() == input.NumRows()) return input;
    return GatherChunk(input, rows);
  }

  Result<Chunk> RunDistinct(const DistinctOp& distinct, int64_t budget) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(distinct.child(0), kNoBudget));
    std::vector<const ColumnData*> key_ptrs;
    key_ptrs.reserve(input.columns.size());
    for (const ColumnData& col : input.columns) key_ptrs.push_back(&col);
    if (key_ptrs.empty()) return input;
    GroupKeyTable table(key_ptrs);
    table.set_tracker(&ctx_->memory());
    bool limit_aware = budget >= 0 && options_.enable_limit_early_exit;
    std::vector<size_t> rows;
    size_t n = input.NumRows();
    for (size_t i = 0; i < n; ++i) {
      if ((i & 4095) == 0) {
        VDM_RETURN_NOT_OK(ctx_->CheckAlive());
        VDM_RETURN_NOT_OK(table.status());
      }
      size_t g = table.GetOrAdd(i);
      if (g == rows.size()) {
        rows.push_back(i);
        if (limit_aware && rows.size() >= static_cast<uint64_t>(budget) &&
            i + 1 < n) {
          if (metrics_ != nullptr) ++metrics_->limit_early_exits;
          break;
        }
      }
    }
    VDM_RETURN_NOT_OK(table.status());
    if (metrics_ != nullptr) {
      metrics_->peak_hash_table_entries = std::max<uint64_t>(
          metrics_->peak_hash_table_entries, table.num_groups());
    }
    return GatherChunk(input, rows);
  }

  const StorageManager* storage_;
  ExecMetrics* metrics_;
  const ExecOptions& options_;
  ThreadPool* pool_;  // null = every morsel runs inline
  QueryContext* ctx_;
  size_t morsel_size_;
  // Accumulates nested Run() wall time for exclusive-time accounting.
  uint64_t children_ns_ = 0;
};

}  // namespace

Result<Chunk> Executor::Execute(const PlanRef& plan, ExecMetrics* metrics,
                                QueryContext* ctx) const {
  ThreadPool* pool = pool_ != nullptr && pool_->size() > 1 ? pool_ : nullptr;
  QueryContext default_ctx;
  if (ctx == nullptr) ctx = &default_ctx;
  ExecutorImpl impl(storage_, metrics, options_, pool, ctx);
  Result<Chunk> result = [&]() -> Result<Chunk> {
    // Exceptions thrown on the calling thread (inline morsels — pool tasks
    // are converted inside ParallelFor) become typed Status here.
    try {
      return impl.Run(plan, /*budget=*/-1);
    } catch (...) {
      return StatusFromCurrentException();
    }
  }();
  if (result.ok()) {
    // Late-materialization boundary: decode whatever string columns are
    // still lazy (dictionary codes) so callers see plain strings(). Rows
    // dropped by filters/joins/LIMIT never reach this point — this is the
    // only per-row string copy a compressed query pays.
    uint64_t decoded = 0;
    for (ColumnData& col : result->columns) decoded += col.EnsureDecoded();
    if (metrics != nullptr) metrics->rows_decoded += decoded;
  }
  if (metrics != nullptr) {
    metrics->cancel_checks += ctx->cancel_checks();
    metrics->peak_memory_bytes =
        std::max<uint64_t>(metrics->peak_memory_bytes,
                           static_cast<uint64_t>(
                               std::max<int64_t>(0, ctx->memory().peak())));
  }
  return result;
}

}  // namespace vdm

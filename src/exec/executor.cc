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

Chunk GatherChunk(const Chunk& input, const std::vector<size_t>& rows) {
  Chunk out;
  out.names = input.names;
  out.columns.reserve(input.columns.size());
  for (const ColumnData& col : input.columns) {
    out.columns.push_back(col.Gather(rows));
  }
  return out;
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
void KeepRows(const SelectionVector& sel, Chunk* chunk) {
  if (sel.size() == chunk->NumRows()) return;
  for (ColumnData& col : chunk->columns) col = col.GatherSelection(sel);
}

/// Collects a leaf pipeline: a stack of Filter/Project nodes over a Scan.
/// On success `*chain` holds the nodes top-down (the Scan last).
bool CollectPipeline(const LogicalOp* plan,
                     std::vector<const LogicalOp*>* chain) {
  chain->clear();
  const LogicalOp* node = plan;
  while (node->kind() == OpKind::kFilter || node->kind() == OpKind::kProject) {
    chain->push_back(node);
    node = node->child(0).get();
  }
  if (node->kind() != OpKind::kScan) return false;
  chain->push_back(node);
  return true;
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

/// The bottom Filter run of a pipeline, compiled once per RunPipeline.
struct CompiledFilters {
  bool active = false;        // at least one predicate lowered to a kernel
  size_t bottom_filters = 0;  // chain entries consumed (from the scan up)
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

/// Lowers `<string column> <cmp> <string literal>` against the sorted
/// dictionary. Every case reduces to one code compare or one inclusive
/// code interval, resolved here once per query.
void LowerStringCompare(BinaryOpKind op, size_t schema_idx,
                        const std::vector<std::string>& dict,
                        const std::string& s, std::vector<LoweredPred>* out) {
  LoweredPred p;
  p.schema_idx = schema_idx;
  const int32_t size = static_cast<int32_t>(dict.size());
  auto lb = [&] {
    return static_cast<int32_t>(
        std::lower_bound(dict.begin(), dict.end(), s) - dict.begin());
  };
  auto ub = [&] {
    return static_cast<int32_t>(
        std::upper_bound(dict.begin(), dict.end(), s) - dict.begin());
  };
  switch (op) {
    case BinaryOpKind::kEq: {
      int32_t at = lb();
      if (at < size && dict[static_cast<size_t>(at)] == s) {
        p.kind = LoweredPred::Kind::kCodeEq;
        p.code = at;
      } else {
        p.kind = LoweredPred::Kind::kNever;
      }
      break;
    }
    case BinaryOpKind::kNotEq: {
      int32_t at = lb();
      if (at < size && dict[static_cast<size_t>(at)] == s) {
        p.kind = LoweredPred::Kind::kCodeNe;
        p.code = at;
      } else {
        // Absent literal: every non-NULL value differs.
        p.kind = LoweredPred::Kind::kCodeNull;
        p.negated = true;
      }
      break;
    }
    case BinaryOpKind::kLess:
      p.kind = LoweredPred::Kind::kCodeRange;
      p.lo = 0;
      p.hi = lb() - 1;
      break;
    case BinaryOpKind::kLessEq:
      p.kind = LoweredPred::Kind::kCodeRange;
      p.lo = 0;
      p.hi = ub() - 1;
      break;
    case BinaryOpKind::kGreater:
      p.kind = LoweredPred::Kind::kCodeRange;
      p.lo = ub();
      p.hi = size - 1;
      break;
    default:  // kGreaterEq
      p.kind = LoweredPred::Kind::kCodeRange;
      p.lo = lb();
      p.hi = size - 1;
      break;
  }
  if (p.kind == LoweredPred::Kind::kCodeRange && p.lo > p.hi) {
    p.kind = LoweredPred::Kind::kNever;
  }
  out->push_back(p);
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

/// Interval form of `<col> <cmp> <literal>` against the sorted dictionary —
/// the CodeSet twin of LowerStringCompare, same case analysis.
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
/// taken: string column vs string literal (same types — no TypeError
/// possible) and integer-backed columns compared at equal scale. NULL
/// literals, double/mixed-scale comparisons, and anything non-trivial stay
/// residual — and the residual is evaluated even for zero survivors, so
/// row-independent type errors surface exactly as on the generic path.
bool LowerConjunct(const ExprRef& e, const ScanOp& scan,
                   const TableSnapshot& table,
                   std::vector<LoweredPred>* out) {
  if (e->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*e);
    if (bin.op() == BinaryOpKind::kOr) {
      // OR-disjunctions over one string column lower whole: the tree
      // reduces to a union of dictionary-code intervals.
      return LowerStringTree(e, scan, table, out);
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
    if (col == nullptr || lit == nullptr || lit->value().is_null()) {
      return false;
    }
    int idx = FindScanColumn(scan, col->name());
    if (idx < 0) return false;
    const DataType& ct = table.schema->column(static_cast<size_t>(idx)).type;
    const DataType& lt = lit->value().type();
    if (ct.id == TypeId::kString && lt.id == TypeId::kString) {
      LowerStringCompare(op, static_cast<size_t>(idx),
                         *table.main_column(static_cast<size_t>(idx))
                              .dictionary,
                         lit->value().AsString(), out);
      return true;
    }
    if (ct.IsIntegerBacked() && lt.IsIntegerBacked() && ct.scale == lt.scale) {
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
    return false;
  }
  if (e->kind() == ExprKind::kIsNull) {
    const auto& isn = static_cast<const IsNullExpr&>(*e);
    const ColumnRefExpr* col = AsColumnRef(isn.operand());
    if (col == nullptr) return false;
    int idx = FindScanColumn(scan, col->name());
    if (idx < 0) return false;
    const DataType& ct = table.schema->column(static_cast<size_t>(idx)).type;
    if (ct.id == TypeId::kString) {
      LoweredPred p;
      p.kind = LoweredPred::Kind::kCodeNull;
      p.schema_idx = static_cast<size_t>(idx);
      p.negated = isn.negated();
      out->push_back(p);
      return true;
    }
    // Non-string: the main fragment's validity emptiness decides
    // statically (fragments are immutable during execution).
    if (table.main_column(static_cast<size_t>(idx)).validity.empty()) {
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
  if (e->kind() == ExprKind::kFunction) {
    const auto& fn = static_cast<const FunctionExpr&>(*e);
    if (fn.name() != "like" || fn.children().size() != 2) return false;
    const ColumnRefExpr* col = AsColumnRef(fn.children()[0]);
    const LiteralExpr* lit = AsLiteral(fn.children()[1]);
    if (col == nullptr || lit == nullptr || lit->value().is_null() ||
        lit->value().type().id != TypeId::kString) {
      return false;
    }
    int idx = FindScanColumn(scan, col->name());
    if (idx < 0) return false;
    const DataType& ct = table.schema->column(static_cast<size_t>(idx)).type;
    if (ct.id != TypeId::kString) return false;
    const std::string& pat = lit->value().AsString();
    const size_t wild = pat.find_first_of("%_");
    const auto& dict =
        *table.main_column(static_cast<size_t>(idx)).dictionary;
    if (wild == std::string::npos) {
      // No wildcards: LIKE is plain equality.
      LowerStringCompare(BinaryOpKind::kEq, static_cast<size_t>(idx), dict,
                         pat, out);
      return true;
    }
    if (wild != pat.size() - 1 || pat.back() != '%') return false;
    // Pure prefix pattern `abc%`.
    const std::string prefix = pat.substr(0, pat.size() - 1);
    LoweredPred p;
    p.schema_idx = static_cast<size_t>(idx);
    if (prefix.empty()) {
      // `x LIKE '%'` matches every non-NULL value.
      p.kind = LoweredPred::Kind::kCodeNull;
      p.negated = true;
      out->push_back(p);
      return true;
    }
    // Prefix matches form one contiguous code run in the sorted dictionary.
    auto begin_it = std::lower_bound(dict.begin(), dict.end(), prefix);
    auto end_it = std::partition_point(
        begin_it, dict.end(), [&](const std::string& s) {
          return s.compare(0, prefix.size(), prefix) == 0;
        });
    if (begin_it == end_it) {
      p.kind = LoweredPred::Kind::kNever;
    } else {
      p.kind = LoweredPred::Kind::kCodeRange;
      p.lo = static_cast<int32_t>(begin_it - dict.begin());
      p.hi = static_cast<int32_t>(end_it - dict.begin()) - 1;
    }
    out->push_back(p);
    return true;
  }
  if (e->kind() == ExprKind::kUnary) {
    // NOT LIKE / NOT (...) over one string column: complement of the
    // inner tree's code intervals under 3VL.
    return LowerStringTree(e, scan, table, out);
  }
  return false;
}

/// Compiles the contiguous Filter run directly above the Scan. Those
/// filters all see the same scan columns, and conjuncts of ANDed filters
/// commute, so they lower as one batch.
CompiledFilters CompileFilters(const std::vector<const LogicalOp*>& chain,
                               const ScanOp& scan,
                               const TableSnapshot& table) {
  CompiledFilters cf;
  std::vector<ExprRef> residual;
  for (size_t i = chain.size() - 1; i-- > 0;) {
    if (chain[i]->kind() != OpKind::kFilter) break;
    const auto& filter = static_cast<const FilterOp&>(*chain[i]);
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
  /// of the full result and the LimitOp truncates.
  Result<Chunk> Run(const PlanRef& plan, int64_t budget) {
    // Operator-granularity governor check; the hot loops below add
    // morsel-granularity checks on every worker.
    VDM_RETURN_NOT_OK(ctx_->CheckAlive());
    std::vector<const LogicalOp*> chain;
    if (CollectPipeline(plan.get(), &chain)) {
      if (metrics_ != nullptr) metrics_->operators_executed += chain.size();
      const char* label = chain.size() > 1 ? "Pipeline" : "Scan";
      return Timed(label, [&] { return RunPipeline(chain, budget); });
    }
    if (metrics_ != nullptr) ++metrics_->operators_executed;
    const char* label = OpKindLabel(plan->kind());
    switch (plan->kind()) {
      case OpKind::kScan:
        break;  // handled by the pipeline path above
      case OpKind::kFilter:
        return Timed(label, [&] {
          return RunFilter(static_cast<const FilterOp&>(*plan));
        });
      case OpKind::kProject:
        return Timed(label, [&] {
          return RunProject(static_cast<const ProjectOp&>(*plan), budget);
        });
      case OpKind::kJoin:
        return Timed(label, [&] {
          return RunJoin(static_cast<const JoinOp&>(*plan), budget);
        });
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
  // Leaf pipeline: Scan with any Filter/Project stack, morsel-at-a-time.

  /// Evaluates the compiled bottom filters on one main-fragment morsel
  /// [begin, end): kernel filters over the raw fragment arrays build a
  /// selection vector, typed gathers materialize only the survivors
  /// (strings stay lazy as dictionary codes), then the residual conjuncts
  /// run on the gathered chunk. The residual is evaluated even with zero
  /// survivors so type errors match the generic path exactly.
  Status CompressedMorsel(const ScanOp& scan, const TableSnapshot& table,
                          const CompiledFilters& cf, size_t begin, size_t end,
                          Chunk* out_chunk) {
    const size_t n = end - begin;
    SelectionVector sel;
    bool never = false;
    for (const LoweredPred& p : cf.lowered) {
      if (p.kind == LoweredPred::Kind::kNever) never = true;
    }
    bool have_sel = never;  // a statically-false conjunct selects nothing
    for (const LoweredPred& p : cf.lowered) {
      if (never) break;
      const MainColumn& mc = table.main_column(p.schema_idx);
      // Codes are stored as uint32 with kNullCode = 0xFFFFFFFF; the
      // kernels read them as int32 where negative means NULL (the
      // static_assert in table.cc pins the bit pattern).
      const int32_t* codes =
          reinterpret_cast<const int32_t*>(mc.codes.data()) + begin;
      const int64_t* ints = mc.ints.data() + begin;
      const uint8_t* valid =
          mc.validity.empty() ? nullptr : mc.validity.data() + begin;
      size_t k = 0;
      if (!have_sel) {
        sel.resize(n);
        switch (p.kind) {
          case LoweredPred::Kind::kCodeEq:
            k = kernels::FilterCodesEq(codes, n, p.code, sel.data());
            break;
          case LoweredPred::Kind::kCodeNe:
            k = kernels::FilterCodesNe(codes, n, p.code, sel.data());
            break;
          case LoweredPred::Kind::kCodeRange:
            k = kernels::FilterCodesRange(codes, n, p.lo, p.hi, sel.data());
            break;
          case LoweredPred::Kind::kCodeNull:
            k = kernels::FilterCodesNull(codes, n, p.negated, sel.data());
            break;
          case LoweredPred::Kind::kCodeSet:
            k = kernels::FilterCodesIntervalUnion(
                codes, n, p.set_lo.data(), p.set_hi.data(), p.set_lo.size(),
                p.match_null, sel.data());
            break;
          case LoweredPred::Kind::kInt64Cmp:
            k = kernels::FilterInt64(ints, valid, n, p.cmp, p.literal,
                                     sel.data());
            break;
          case LoweredPred::Kind::kNever:
            break;
        }
        sel.resize(k);
        have_sel = true;
      } else {
        if (sel.empty()) break;
        switch (p.kind) {
          case LoweredPred::Kind::kCodeEq:
            k = kernels::RefineCodesEq(codes, sel.data(), sel.size(), p.code);
            break;
          case LoweredPred::Kind::kCodeNe:
            k = kernels::RefineCodesNe(codes, sel.data(), sel.size(), p.code);
            break;
          case LoweredPred::Kind::kCodeRange:
            k = kernels::RefineCodesRange(codes, sel.data(), sel.size(), p.lo,
                                          p.hi);
            break;
          case LoweredPred::Kind::kCodeNull:
            k = kernels::RefineCodesNull(codes, sel.data(), sel.size(),
                                         p.negated);
            break;
          case LoweredPred::Kind::kCodeSet:
            k = kernels::RefineCodesIntervalUnion(
                codes, sel.data(), sel.size(), p.set_lo.data(),
                p.set_hi.data(), p.set_lo.size(), p.match_null);
            break;
          case LoweredPred::Kind::kInt64Cmp:
            k = kernels::RefineInt64(ints, valid, sel.data(), sel.size(),
                                     p.cmp, p.literal);
            break;
          case LoweredPred::Kind::kNever:
            break;
        }
        sel.resize(k);
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
      KeepRows(rsel, &chunk);
    }
    *out_chunk = std::move(chunk);
    return Status::OK();
  }

  /// One leaf pipeline, prepared once and evaluated morsel by morsel.
  /// RunPipeline drives it for standalone pipelines; RunJoin drives the
  /// same morsels straight into its probe without materializing the
  /// pipeline output first.
  struct PipelinePrep {
    const std::vector<const LogicalOp*>* chain = nullptr;
    const ScanOp* scan = nullptr;
    TableSnapshot snap;
    CompiledFilters compiled;
    size_t n = 0;
    size_t num_morsels = 0;
    size_t main_rows = 0;
    bool all_visible = false;  // every physical row visible: no MVCC gather
  };

  Result<PipelinePrep> PreparePipeline(
      const std::vector<const LogicalOp*>& chain) {
    PipelinePrep prep;
    prep.chain = &chain;
    prep.scan = static_cast<const ScanOp*>(chain.back());
    const Table* table = storage_->FindTable(prep.scan->table_name());
    if (table == nullptr) {
      return Status::NotFound("no storage for table " +
                              prep.scan->table_name());
    }
    if (prep.scan->column_indexes().empty()) {
      return Status::Internal("scan with no columns: " +
                              prep.scan->table_name());
    }
    // Pin the MVCC read view once per pipeline: the immutable main version
    // plus a copy of the delta. Workers never touch the Table again, so
    // concurrent DML and merges cannot race the scan.
    prep.snap = table->PinSnapshot(ctx_->snapshot());
    prep.n = prep.snap.NumRows();
    // Always process at least one (possibly empty) morsel so the output
    // carries its column names/types even for empty tables.
    prep.num_morsels =
        std::max<size_t>(1, (prep.n + morsel_size_ - 1) / morsel_size_);
    // Compile the bottom Filter run once per pipeline; morsels that lie
    // entirely in the main fragment with no hidden rows take the
    // compressed path, morsels overlapping the delta or MVCC-filtered
    // rows fall back to the generic one (same results).
    if (options_.enable_compressed_exec && chain.size() > 1) {
      prep.compiled = CompileFilters(chain, *prep.scan, prep.snap);
    }
    prep.main_rows = prep.snap.main_rows();
    prep.all_visible = prep.snap.AllVisible(0, prep.n);
    return prep;
  }

  Status PipelineMorsel(const PipelinePrep& prep, size_t m, Chunk* out) {
    const std::vector<const LogicalOp*>& chain = *prep.chain;
    size_t begin = std::min(prep.n, m * morsel_size_);
    size_t end = std::min(prep.n, begin + morsel_size_);
    Chunk chunk;
    size_t top = chain.size() - 1;  // ops left for the generic loop below
    const bool all_visible =
        prep.all_visible || prep.snap.AllVisible(begin, end);
    if (prep.compiled.active && end <= prep.main_rows && all_visible) {
      VDM_RETURN_NOT_OK(CompressedMorsel(*prep.scan, prep.snap,
                                         prep.compiled, begin, end, &chunk));
      top -= prep.compiled.bottom_filters;
    } else {
      for (size_t schema_idx : prep.scan->column_indexes()) {
        chunk.names.push_back(prep.scan->QualifiedName(schema_idx));
        chunk.columns.push_back(
            prep.snap.ScanColumnRange(schema_idx, begin, end));
      }
      if (!all_visible) {
        // Visibility-checked residual path: drop the rows this snapshot
        // cannot see before any predicate runs.
        SelectionVector vis;
        prep.snap.VisibleRows(begin, end, &vis);
        KeepRows(vis, &chunk);
      }
    }
    // Apply the remaining Filter/Project stack bottom-up (chain is
    // top-down).
    for (size_t i = top; i-- > 0;) {
      const LogicalOp* op = chain[i];
      if (op->kind() == OpKind::kFilter) {
        const auto& filter = static_cast<const FilterOp&>(*op);
        VDM_ASSIGN_OR_RETURN(SelectionVector sel,
                             SelectWhere(filter.predicate(), chunk));
        KeepRows(sel, &chunk);
      } else {
        const auto& project = static_cast<const ProjectOp&>(*op);
        Chunk projected;
        for (const ProjectOp::Item& item : project.items()) {
          VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(item.expr, chunk));
          projected.names.push_back(item.name);
          projected.columns.push_back(std::move(col));
        }
        chunk = std::move(projected);
      }
    }
    *out = std::move(chunk);
    return Status::OK();
  }

  /// Runs morsel(m, &(*pieces)[m]) for every morsel, in waves, and returns
  /// how many morsels ran (always a prefix). Without a budget one wave
  /// holds every morsel. With one, each wave holds two pool-widths of
  /// morsels, and the waves stop once the pieces hold `budget` rows; the
  /// caller's output is a prefix in morsel order, so a downstream LIMIT
  /// keeps the same rows. Every morsel polls the governor first; the first
  /// failure in morsel order is returned. `charge`, when given, is charged
  /// two row indexes per output row, wave by wave.
  Result<size_t> RunWaves(size_t num_morsels, int64_t budget,
                          const std::function<Status(size_t, Chunk*)>& morsel,
                          std::vector<Chunk>* pieces,
                          ScopedMemoryCharge* charge = nullptr) {
    pieces->resize(num_morsels);
    std::vector<Status> errors(num_morsels);
    auto process = [&](size_t m) {
      errors[m] = ctx_->CheckAlive();
      if (errors[m].ok()) errors[m] = morsel(m, &(*pieces)[m]);
    };
    size_t processed = 0;
    uint64_t out_rows = 0;
    while (processed < num_morsels) {
      size_t wave = num_morsels - processed;
      if (budget >= 0) {
        wave = std::min(wave, std::max<size_t>(PoolThreads() * 2, 1));
      }
      VDM_RETURN_NOT_OK(RunTasks(processed, wave, process));
      uint64_t wave_rows = 0;
      for (size_t m = processed; m < processed + wave; ++m) {
        VDM_RETURN_NOT_OK(errors[m]);
        wave_rows += (*pieces)[m].NumRows();
      }
      if (charge != nullptr) {
        VDM_RETURN_NOT_OK(charge->Charge(static_cast<int64_t>(wave_rows) * 2 *
                                         sizeof(size_t)));
      }
      out_rows += wave_rows;
      processed += wave;
      if (budget >= 0 && out_rows >= static_cast<uint64_t>(budget) &&
          processed < num_morsels) {
        if (metrics_ != nullptr) ++metrics_->limit_early_exits;
        break;
      }
    }
    return processed;
  }

  /// Concatenates pieces[0, count) in morsel order. pieces[0] always
  /// exists and carries the names and column types, even when empty.
  static Chunk ConcatPieces(std::vector<Chunk>* pieces, size_t count) {
    Chunk out = std::move((*pieces)[0]);
    for (size_t m = 1; m < count; ++m) {
      for (size_t c = 0; c < out.columns.size(); ++c) {
        out.columns[c].AppendColumn(std::move((*pieces)[m].columns[c]));
      }
    }
    return out;
  }

  Result<Chunk> RunPipeline(const std::vector<const LogicalOp*>& chain,
                            int64_t budget) {
    VDM_ASSIGN_OR_RETURN(PipelinePrep prep, PreparePipeline(chain));
    VDM_FAULT_POINT("exec.pipeline.morsel");
    std::vector<Chunk> pieces;
    VDM_ASSIGN_OR_RETURN(
        size_t processed,
        RunWaves(prep.num_morsels,
                 options_.enable_limit_early_exit ? budget : kNoBudget,
                 [&](size_t m, Chunk* piece) {
                   return PipelineMorsel(prep, m, piece);
                 },
                 &pieces));
    if (metrics_ != nullptr) {
      metrics_->rows_scanned += std::min(prep.n, processed * morsel_size_);
      metrics_->morsels_scanned += processed;
    }
    return ConcatPieces(&pieces, processed);
  }

  // -----------------------------------------------------------------------
  // Non-fused Filter / Project (above joins, aggregates, ...).

  Result<Chunk> RunFilter(const FilterOp& filter) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(filter.child(0), kNoBudget));
    VDM_ASSIGN_OR_RETURN(SelectionVector sel,
                         SelectWhere(filter.predicate(), input));
    if (sel.size() == input.NumRows()) return input;  // all rows pass
    Chunk out;
    out.names = input.names;
    out.columns.resize(input.columns.size());
    VDM_RETURN_NOT_OK(RunTasks(0, input.columns.size(), [&](size_t c) {
      out.columns[c] = input.columns[c].GatherSelection(sel);
    }));
    return out;
  }

  Result<Chunk> RunProject(const ProjectOp& project, int64_t budget) {
    // Projection is row-preserving, so the LIMIT budget passes through.
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(project.child(0), budget));
    Chunk out;
    for (const ProjectOp::Item& item : project.items()) {
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(item.expr, input));
      // A literal over an empty input evaluates to zero rows already.
      out.names.push_back(item.name);
      out.columns.push_back(std::move(col));
    }
    return out;
  }

  // -----------------------------------------------------------------------
  // Hash join: build on the right (augmenter) side, probe the left side
  // morsel by morsel in anchor order.

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

  /// Left columns gathered at `lrows`, then right columns at `rrows`
  /// (kInvalidIndex gathers NULL).
  static Chunk GatherJoined(const Chunk& left, const std::vector<size_t>& lrows,
                            const Chunk& right,
                            const std::vector<size_t>& rrows) {
    Chunk out;
    out.names = left.names;
    out.names.insert(out.names.end(), right.names.begin(), right.names.end());
    out.columns.reserve(left.columns.size() + right.columns.size());
    for (const ColumnData& col : left.columns) {
      out.columns.push_back(col.Gather(lrows));
    }
    for (const ColumnData& col : right.columns) {
      out.columns.push_back(col.Gather(rrows));
    }
    return out;
  }

  /// Joins probe rows [begin, end) of `probe` with `right` into *out, in
  /// (probe row, ascending build row) order. Without a hash table (no equi
  /// key) every build row matches. The residual then drops matches, and a
  /// LEFT OUTER probe row left without one is null-extended. At most
  /// `budget` rows are gathered: the caller keeps only a prefix.
  Status ProbeRows(const Chunk& probe, size_t begin, size_t end,
                   const Chunk& right, const JoinKeys& keys,
                   const JoinHashTable* table, bool left_outer,
                   int64_t budget, Chunk* out) {
    std::vector<size_t> lrows, rrows, matches;
    lrows.reserve(end - begin);
    rrows.reserve(end - begin);
    std::vector<const ColumnData*> key_cols;
    std::optional<JoinHashTable::Prober> prober;
    if (table != nullptr) {
      for (const auto& [lc, rc] : keys.cols) {
        key_cols.push_back(&probe.columns[lc]);
      }
      prober.emplace(*table);
      prober->Bind(&key_cols);
    }
    for (size_t l = begin; l < end; ++l) {
      size_t count = right.NumRows();
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
      if (count == 0 && left_outer) {
        lrows.push_back(l);
        rrows.push_back(ColumnData::kInvalidIndex);
      }
    }
    if (keys.residual != nullptr) {
      // The residual is part of the join condition: it runs on every
      // candidate (even none, so type errors surface), and a LEFT OUTER
      // probe row whose matches all fail reverts to null extension.
      VDM_ASSIGN_OR_RETURN(
          SelectionVector pass,
          SelectWhere(keys.residual, GatherJoined(probe, lrows, right, rrows)));
      std::vector<size_t> kept_l, kept_r;
      size_t p = 0;
      for (size_t i = 0; i < lrows.size();) {
        const size_t l = lrows[i];
        bool any = false;
        for (; i < lrows.size() && lrows[i] == l; ++i) {
          const bool passed = p < pass.size() && pass[p] == i;
          if (passed) ++p;
          if (passed && rrows[i] != ColumnData::kInvalidIndex) {
            kept_l.push_back(l);
            kept_r.push_back(rrows[i]);
            any = true;
          }
        }
        if (!any && left_outer) {
          kept_l.push_back(l);
          kept_r.push_back(ColumnData::kInvalidIndex);
        }
      }
      lrows = std::move(kept_l);
      rrows = std::move(kept_r);
    }
    if (budget >= 0 && lrows.size() > static_cast<size_t>(budget)) {
      lrows.resize(static_cast<size_t>(budget));
      rrows.resize(static_cast<size_t>(budget));
    }
    *out = GatherJoined(probe, lrows, right, rrows);
    return Status::OK();
  }

  /// One hash join for every input shape. The probe side arrives either as
  /// a leaf pipeline, morsel by morsel (its output is never materialized
  /// whole, and a LIMIT stops the scan itself), or as a materialized chunk
  /// probed in row ranges. Pieces are concatenated in morsel order, so the
  /// output is independent of the thread count.
  Result<Chunk> RunJoin(const JoinOp& join, int64_t budget) {
    const bool left_outer = join.join_type() == JoinType::kLeftOuter;
    const JoinKeys keys = ResolveJoinKeys(join);
    // The output is a prefix (anchor order) of the full result, so the
    // probe may stop once `out_budget` rows exist; the ancestor LimitOp
    // truncates. The optimizer's limit hint covers plans where the LimitOp
    // itself could not sink.
    int64_t out_budget = kNoBudget;
    if (options_.enable_limit_early_exit) {
      out_budget = budget;
      const int64_t hint = join.limit_hint();
      if (hint >= 0 && (out_budget < 0 || hint < out_budget)) out_budget = hint;
    }

    std::vector<const LogicalOp*> chain;
    const bool streamed = CollectPipeline(join.left().get(), &chain);
    Chunk left;
    if (!streamed) {
      // A LEFT OUTER join emits at least one row per probe row, so its
      // probe child only needs to produce `out_budget` rows.
      VDM_ASSIGN_OR_RETURN(
          left, Run(join.left(), left_outer ? out_budget : kNoBudget));
    }
    VDM_ASSIGN_OR_RETURN(Chunk right, Run(join.right(), kNoBudget));
    PipelinePrep prep;
    if (streamed) {
      VDM_ASSIGN_OR_RETURN(prep, PreparePipeline(chain));
      if (metrics_ != nullptr) metrics_->operators_executed += chain.size();
    }
    if (metrics_ != nullptr) metrics_->rows_build_input += right.NumRows();

    std::optional<JoinHashTable> table;
    if (!keys.cols.empty()) {
      std::vector<const ColumnData*> build_cols;
      build_cols.reserve(keys.cols.size());
      for (const auto& [lc, rc] : keys.cols) {
        build_cols.push_back(&right.columns[rc]);
      }
      table.emplace(std::move(build_cols));
      VDM_RETURN_NOT_OK(table->Build(BuildPool(right.NumRows()), ctx_));
      if (metrics_ != nullptr) {
        metrics_->peak_hash_table_entries = std::max<uint64_t>(
            metrics_->peak_hash_table_entries, table->num_entries());
      }
    }

    const size_t ln = left.NumRows();
    const size_t num_morsels =
        streamed ? prep.num_morsels
                 : std::max<size_t>(1, (ln + morsel_size_ - 1) / morsel_size_);
    std::vector<size_t> probed(num_morsels, 0);
    VDM_FAULT_POINT("exec.join.probe");
    auto probe_morsel = [&](size_t m, Chunk* piece) -> Status {
      Chunk morsel;
      const Chunk* probe = &left;
      size_t begin = std::min(ln, m * morsel_size_);
      size_t end = std::min(ln, begin + morsel_size_);
      if (streamed) {
        VDM_RETURN_NOT_OK(PipelineMorsel(prep, m, &morsel));
        probe = &morsel;
        begin = 0;
        end = morsel.NumRows();
      }
      probed[m] = end - begin;
      return ProbeRows(*probe, begin, end, right, keys,
                       table.has_value() ? &*table : nullptr, left_outer,
                       out_budget, piece);
    };
    // The probe output is the join's largest intermediate besides the
    // build table; RunWaves charges it wave by wave so a budget violation
    // surfaces before the allocation runs away.
    ScopedMemoryCharge probe_mem(&ctx_->memory());
    std::vector<Chunk> pieces;
    VDM_ASSIGN_OR_RETURN(
        size_t processed,
        RunWaves(num_morsels, out_budget, probe_morsel, &pieces, &probe_mem));
    if (metrics_ != nullptr) {
      if (streamed) {
        metrics_->rows_scanned += std::min(prep.n, processed * morsel_size_);
        metrics_->morsels_scanned += processed;
      }
      metrics_->morsels_probed += processed;
      for (size_t m = 0; m < processed; ++m) {
        metrics_->rows_probe_input += probed[m];
      }
    }

    Chunk out = ConcatPieces(&pieces, processed);
    // Trim the last wave's overshoot past the budget (the LimitOp would).
    if (out_budget >= 0 && out.NumRows() > static_cast<size_t>(out_budget)) {
      std::vector<size_t> keep(static_cast<size_t>(out_budget));
      for (size_t i = 0; i < keep.size(); ++i) keep[i] = i;
      out = GatherChunk(out, keep);
    }
    return out;
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
      ColumnData col(group_cols[gi].type());
      col.Reserve(n_groups);
      for (size_t g = 0; g < n_groups; ++g) {
        col.AppendFrom(group_cols[gi], first_row[g]);
      }
      interim.columns.push_back(std::move(col));
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

  /// Shared by RunSort and the top-k fusion in RunLimit. When
  /// `top_k >= 0`, only the first top_k positions need to be ordered
  /// (std::partial_sort — note: not stable, which SQL does not require
  /// in the presence of LIMIT).
  Result<Chunk> SortChunk(const SortOp& sort, Chunk input,
                          int64_t top_k = -1) {
    std::vector<ColumnData> key_cols;
    for (const SortOp::SortKey& key : sort.keys()) {
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(key.expr, input));
      key_cols.push_back(std::move(col));
    }
    std::vector<size_t> order(input.NumRows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto less = [&](size_t a, size_t b) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        int cmp = key_cols[k].GetValue(a).Compare(key_cols[k].GetValue(b));
        if (cmp != 0) return sort.keys()[k].ascending ? cmp < 0 : cmp > 0;
      }
      // Break ties on the input position to keep the order stable.
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
    return GatherChunk(input, order);
  }

  Result<Chunk> RunSort(const SortOp& sort) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(sort.child(0), kNoBudget));
    return SortChunk(sort, std::move(input));
  }

  Result<Chunk> RunLimit(const LimitOp& limit, int64_t budget) {
    int64_t my_budget = limit.offset() + limit.limit();
    if (budget >= 0 && budget < my_budget) my_budget = budget;
    // Top-k fusion: LIMIT directly above SORT orders only the first
    // offset+limit positions instead of the whole input.
    Chunk input;
    if (limit.child(0)->kind() == OpKind::kSort) {
      const auto& sort = static_cast<const SortOp&>(*limit.child(0));
      VDM_ASSIGN_OR_RETURN(Chunk sort_input, Run(sort.child(0), kNoBudget));
      VDM_ASSIGN_OR_RETURN(
          input, SortChunk(sort, std::move(sort_input),
                           limit.offset() + limit.limit()));
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

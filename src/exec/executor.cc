#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <forward_list>
#include <functional>
#include <iterator>
#include <limits>
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
  for (ColumnData& col : chunk->columns) col = col.Gather(sel);
  return sel.size() * chunk->columns.size();
}

// ---------------------------------------------------------------------------
// Compressed scan filters (DESIGN.md §13). Conjuncts of the Filter stack
// directly above a Scan see unmodified scan columns, so a predicate tree
// over one string or integer-backed column lowers to an interval set over
// that column's domain: dictionary codes of a string column (the
// main-fragment dictionary is sorted, so equality is one code and ranges
// and LIKE prefixes are code intervals) or the raw int64 values of an
// integer-backed one. The kernels in exec/kernels/ evaluate the sets on
// the fragment arrays before any value is materialized; whatever cannot be
// lowered stays in a residual expression evaluated on the survivors.

/// One lowered conjunct: rows of column `schema_idx` whose value lies in
/// one of the sorted, disjoint, inclusive intervals [lo[j], hi[j]], or
/// that are NULL when `match_null`.
struct LoweredPred {
  size_t schema_idx = 0;  // column index in the table schema
  bool codes = false;     // string column: intervals over dictionary codes
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  bool match_null = false;

  kernels::IntervalSet Set() const {
    return {lo.data(), hi.data(), lo.size(), match_null};
  }
  bool MatchesNothing() const { return lo.empty() && !match_null; }
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
// Whole-tree lowering (DESIGN.md §13): any NOT/AND/OR tree of comparisons
// and IS [NOT] NULL (and, over a string column, LIKE) whose leaves all
// read one scan column reduces to an interval set over that column's
// domain plus the tri-state value the tree takes on a NULL input. For a
// non-NULL value every leaf is definitely true or false, so AND/OR on the
// value side are plain set intersection/union and NOT is the complement
// within the domain; only the NULL side needs Kleene logic, and under a
// WHERE conjunct NULL collapses to false.

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

using Interval = std::pair<int64_t, int64_t>;  // inclusive

/// Result of evaluating a predicate tree per domain value: the values it
/// matches (sorted, disjoint, inclusive intervals) and its tri-state
/// result when the column value is NULL.
struct ValueSet {
  std::vector<Interval> intervals;
  TriState on_null = TriState::kNull;
};

/// The one column a tree reads, pinned by its first leaf, and its domain
/// [lo, hi]: the codes [0, dictionary size - 1] of a string column, every
/// int64 of an integer-backed one.
struct TreeColumn {
  int idx = -1;
  const DataType* type = nullptr;
  const std::vector<std::string>* dict = nullptr;  // string columns only
  int64_t lo = 0;
  int64_t hi = -1;
};

/// Coalesces a sorted interval list in place (overlapping or adjacent
/// integer intervals merge: [0,2] ∪ [3,5] = [0,5]). `first - 1` runs only
/// when first > the previous end, so it cannot wrap at INT64_MIN.
void CoalesceIntervals(std::vector<Interval>* ivs) {
  size_t m = 0;
  for (size_t i = 0; i < ivs->size(); ++i) {
    const Interval& cur = (*ivs)[i];
    if (m > 0 && (cur.first <= (*ivs)[m - 1].second ||
                  cur.first - 1 == (*ivs)[m - 1].second)) {
      (*ivs)[m - 1].second = std::max((*ivs)[m - 1].second, cur.second);
    } else {
      (*ivs)[m++] = cur;
    }
  }
  ivs->resize(m);
}

std::vector<Interval> UnionIntervals(const std::vector<Interval>& a,
                                     const std::vector<Interval>& b) {
  std::vector<Interval> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  CoalesceIntervals(&out);
  return out;
}

std::vector<Interval> IntersectIntervals(const std::vector<Interval>& a,
                                         const std::vector<Interval>& b) {
  std::vector<Interval> out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t lo = std::max(a[i].first, b[j].first);
    const int64_t hi = std::min(a[i].second, b[j].second);
    if (lo <= hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

/// Complement within the domain [lo, hi]. Steps past an interval only
/// while it ends below hi, so neither end of the int64 range wraps.
std::vector<Interval> ComplementIntervals(const std::vector<Interval>& a,
                                          int64_t lo, int64_t hi) {
  std::vector<Interval> out;
  int64_t next = lo;  // smallest domain value not yet covered
  for (const Interval& iv : a) {
    if (iv.first > next) out.emplace_back(next, iv.first - 1);
    if (iv.second >= hi) return out;
    next = iv.second + 1;
  }
  if (next <= hi) out.emplace_back(next, hi);
  return out;
}

/// The domain values at or above `from` (none when from > hi).
std::vector<Interval> AtOrAbove(int64_t from, const TreeColumn& tc) {
  if (from > tc.hi) return {};
  return {{from, tc.hi}};
}

/// Interval form of `<col> <op> <literal>`, where `pos` is the literal's
/// place in the domain: the value itself when `present`, else the first
/// domain value above it (an absent string's dictionary lower bound).
/// `=`, `>=` and `>` are at most one interval; `<>`, `<` and `<=` are their
/// complements.
void CompareToIntervals(BinaryOpKind op, int64_t pos, bool present,
                        const TreeColumn& tc, ValueSet* set) {
  set->on_null = TriState::kNull;
  std::vector<Interval> eq;
  if (present) eq.emplace_back(pos, pos);
  std::vector<Interval> above;  // values > literal
  if (!present) {
    above = AtOrAbove(pos, tc);
  } else if (pos < tc.hi) {
    above = AtOrAbove(pos + 1, tc);
  }
  switch (op) {
    case BinaryOpKind::kEq:
      set->intervals = std::move(eq);
      break;
    case BinaryOpKind::kNotEq:
      set->intervals = ComplementIntervals(eq, tc.lo, tc.hi);
      break;
    case BinaryOpKind::kGreater:
      set->intervals = std::move(above);
      break;
    case BinaryOpKind::kGreaterEq:
      set->intervals = AtOrAbove(pos, tc);
      break;
    case BinaryOpKind::kLess:
      set->intervals = ComplementIntervals(AtOrAbove(pos, tc), tc.lo, tc.hi);
      break;
    default:  // kLessEq
      set->intervals = ComplementIntervals(above, tc.lo, tc.hi);
      break;
  }
}

/// Resolves a leaf's column reference: a scan column of string or
/// integer-backed type, and the same column for every leaf of the tree.
bool ResolveTreeColumn(const ColumnRefExpr* col, const ScanOp& scan,
                       const TableSnapshot& table, TreeColumn* tc) {
  if (col == nullptr) return false;
  const int idx = FindScanColumn(scan, col->name());
  if (idx < 0) return false;
  if (tc->idx >= 0) return tc->idx == idx;
  const DataType& type = table.schema->column(static_cast<size_t>(idx)).type;
  if (type.id == TypeId::kString) {
    tc->dict = table.main_column(static_cast<size_t>(idx)).dictionary.get();
    tc->lo = 0;
    tc->hi = static_cast<int64_t>(tc->dict->size()) - 1;
  } else if (type.IsIntegerBacked()) {
    tc->lo = std::numeric_limits<int64_t>::min();
    tc->hi = std::numeric_limits<int64_t>::max();
  } else {
    return false;
  }
  tc->idx = idx;
  tc->type = &type;
  return true;
}

/// Places a comparison literal in the tree column's domain. Only literals
/// EvalBinary compares without raising lower: non-NULL, and a string
/// against a string column or an integer-backed value of the column's
/// scale against an integer-backed column.
bool LocateLiteral(const LiteralExpr* lit, const TreeColumn& tc,
                   int64_t* pos, bool* present) {
  if (lit == nullptr || lit->value().is_null()) return false;
  const DataType& lt = lit->value().type();
  if (tc.dict != nullptr) {
    if (lt.id != TypeId::kString) return false;
    const std::string& s = lit->value().AsString();
    const auto it = std::lower_bound(tc.dict->begin(), tc.dict->end(), s);
    *pos = it - tc.dict->begin();
    *present = it != tc.dict->end() && *it == s;
    return true;
  }
  if (!lt.IsIntegerBacked() || lt.scale != tc.type->scale) return false;
  *pos = lit->value().AsInt64();  // raw storage for all integer-backed
  *present = true;
  return true;
}

/// Recursively lowers a boolean tree to a ValueSet. Returns false when any
/// node falls outside the supported shape (the conjunct then stays in the
/// residual). `tc` starts unpinned and is pinned by the first leaf.
bool BuildValueSet(const ExprRef& e, const ScanOp& scan,
                   const TableSnapshot& table, TreeColumn* tc,
                   ValueSet* set) {
  if (e->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*e);
    if (bin.op() == BinaryOpKind::kAnd || bin.op() == BinaryOpKind::kOr) {
      ValueSet lhs;
      ValueSet rhs;
      if (!BuildValueSet(bin.left(), scan, table, tc, &lhs) ||
          !BuildValueSet(bin.right(), scan, table, tc, &rhs)) {
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
    int64_t pos = 0;
    bool present = false;
    if (!ResolveTreeColumn(col, scan, table, tc) ||
        !LocateLiteral(lit, *tc, &pos, &present)) {
      return false;
    }
    CompareToIntervals(op, pos, present, *tc, set);
    return true;
  }
  if (e->kind() == ExprKind::kUnary) {
    const auto& un = static_cast<const UnaryExpr&>(*e);
    if (un.op() != UnaryOpKind::kNot) return false;
    ValueSet inner;
    if (!BuildValueSet(un.operand(), scan, table, tc, &inner)) return false;
    set->intervals = ComplementIntervals(inner.intervals, tc->lo, tc->hi);
    set->on_null = Not3(inner.on_null);
    return true;
  }
  if (e->kind() == ExprKind::kIsNull) {
    const auto& isn = static_cast<const IsNullExpr&>(*e);
    if (!ResolveTreeColumn(AsColumnRef(isn.operand()), scan, table, tc)) {
      return false;
    }
    if (isn.negated()) {
      set->intervals = AtOrAbove(tc->lo, *tc);  // every non-NULL value
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
    if (!ResolveTreeColumn(AsColumnRef(fn.children()[0]), scan, table, tc) ||
        tc->dict == nullptr) {
      return false;
    }
    const std::vector<std::string>& dict = *tc->dict;
    const std::string& pat = lit->value().AsString();
    const size_t wild = pat.find_first_of("%_");
    set->on_null = TriState::kNull;
    if (wild == std::string::npos) {
      int64_t pos = 0;
      bool present = false;
      LocateLiteral(lit, *tc, &pos, &present);
      CompareToIntervals(BinaryOpKind::kEq, pos, present, *tc, set);
      return true;
    }
    if (wild != pat.size() - 1 || pat.back() != '%') return false;
    // `x LIKE 'prefix%'`: the dictionary's prefix partition (every
    // non-NULL value for a bare '%').
    const std::string prefix = pat.substr(0, pat.size() - 1);
    auto begin_it = std::lower_bound(dict.begin(), dict.end(), prefix);
    auto end_it = std::partition_point(
        begin_it, dict.end(), [&](const std::string& s) {
          return s.compare(0, prefix.size(), prefix) == 0;
        });
    if (begin_it != end_it) {
      set->intervals.emplace_back(begin_it - dict.begin(),
                                  (end_it - dict.begin()) - 1);
    }
    return true;
  }
  return false;
}

/// Attempts to lower one conjunct to an interval set. Returns false to
/// leave it in the residual. Lowering must be *exactly* EvalBinary's
/// semantics (expr/eval.cc), so only trees whose every leaf cannot raise
/// are taken (see LocateLiteral); double columns, NULL literals and
/// mixed-scale comparisons stay residual — and the residual is evaluated
/// even for zero survivors, so row-independent type errors surface exactly
/// as on the generic path. Under a WHERE conjunct a NULL row matches only
/// when the tree is definitely true on NULL. The compressed path scans the
/// main fragment only, so an integer column without validity bytes has no
/// NULL to match, and a set covering its whole domain lowers to nothing.
bool LowerConjunct(const ExprRef& e, const ScanOp& scan,
                   const TableSnapshot& table,
                   std::vector<LoweredPred>* out) {
  TreeColumn tc;
  ValueSet set;
  if (!BuildValueSet(e, scan, table, &tc, &set) || tc.idx < 0) return false;
  LoweredPred p;
  p.schema_idx = static_cast<size_t>(tc.idx);
  p.codes = tc.dict != nullptr;
  const bool nulls =
      p.codes || !table.main_column(p.schema_idx).validity.empty();
  p.match_null = nulls && set.on_null == TriState::kTrue;
  const bool whole_domain =
      set.intervals.size() == 1 && set.intervals[0] == Interval(tc.lo, tc.hi);
  if (whole_domain && (p.match_null || !nulls)) return true;  // tautology
  for (const Interval& iv : set.intervals) {
    p.lo.push_back(iv.first);
    p.hi.push_back(iv.second);
  }
  out->push_back(std::move(p));
  return true;
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
    // The first set filters the morsel into `sel`; the rest refine it. A
    // set that matches nothing selects nothing.
    const bool none = std::any_of(cf.lowered.begin(), cf.lowered.end(),
                                  [](const LoweredPred& p) {
                                    return p.MatchesNothing();
                                  });
    for (size_t i = 0; i < cf.lowered.size() && !none; ++i) {
      const LoweredPred& p = cf.lowered[i];
      const bool first = i == 0;
      if (!first && sel.empty()) break;
      const MainColumn& mc = table.main_column(p.schema_idx);
      const kernels::IntervalSet set = p.Set();
      if (first) sel.resize(n);
      uint32_t* out = sel.data();
      const size_t k = sel.size();
      if (p.codes) {
        // Codes are stored as uint32 with kNullCode = 0xFFFFFFFF; the
        // kernels read them as int32 where negative means NULL (the
        // static_assert in table.cc pins the bit pattern).
        const int32_t* codes =
            reinterpret_cast<const int32_t*>(mc.codes.data()) + begin;
        sel.resize(first ? kernels::FilterCodes(codes, n, set, out)
                         : kernels::RefineCodes(codes, out, k, set));
      } else {
        const int64_t* ints = mc.ints.data() + begin;
        const uint8_t* valid =
            mc.validity.empty() ? nullptr : mc.validity.data() + begin;
        sel.resize(first ? kernels::FilterInt64(ints, valid, n, set, out)
                         : kernels::RefineInt64(ints, valid, out, k, set));
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
  // ranges. A morsel in flight is not a chunk but one 32-bit row-index
  // vector per source: the base, each join's build side (kInvalidIndex for
  // a NULL-extended row) and each Project's computed columns. Join keys
  // are read through the indexes, residuals and filters gather only the
  // columns they read, and the chain's top gathers each output column
  // once. A join emits its matches in waves of at most kWaveMatches, and
  // every level above consumes a wave before the next one is made.

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
    JoinHashTable::ProbeMap probe_map;
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
    const SortOp* top_k_sort = nullptr;
    int64_t top_k = kNoBudget;
    std::vector<size_t> top_k_inputs;  // top columns the sort keys read
  };

  /// One source of a morsel in flight.
  struct Source {
    SelectionVector rows;     // source row per batch row
    bool identity = false;    // rows[i] == i, not stored
    bool live = false;
    Chunk* owned = nullptr;   // a per-morsel source's columns
  };

  /// Rows in flight: `n` rows, each a row of every live source.
  struct Batch {
    size_t n = 0;
    std::vector<Source> src;

    explicit Batch(size_t num_sources) : src(num_sources) {}

    /// Batch rows `pick` (in that order) of every live source.
    Batch Composed(const SelectionVector& pick) const {
      Batch out(src.size());
      out.n = pick.size();
      for (size_t s = 0; s < src.size(); ++s) {
        if (!src[s].live) continue;
        Source& o = out.src[s];
        o.live = true;
        o.owned = src[s].owned;
        if (src[s].identity) {
          o.rows = pick;
          continue;
        }
        o.rows.resize(pick.size());
        for (size_t i = 0; i < o.rows.size(); ++i) {
          o.rows[i] = src[s].rows[pick[i]];
        }
      }
      return out;
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
      return bytes * sizeof(uint32_t);
    }
  };

  /// One morsel's chain output and the counts RunWaves and metrics read.
  struct ChainPiece {
    Chunk out;
    std::vector<size_t> level_rows;  // rows leaving the base and each step
    size_t index_bytes = 0;          // peak row-index bytes of one wave
    uint64_t gathered = 0;
    ScopedMemoryCharge out_mem;      // `out`, charged as it grows
  };

  /// One morsel's run through a chain.
  struct MorselRun {
    const Chain& chain;
    ChainPiece* piece;
    size_t filtered = 0;  // bottom Filter steps the scan already applied
    std::vector<int64_t> emitted = {};  // per step: rows a join has kept
    JoinHashTable::ProbeScratch scratch = {};
  };

  static const ColumnData& SourceColumn(const Chain& chain, const Batch& b,
                                        Slot slot) {
    const Chunk* chunk = chain.shared[slot.src];
    return (chunk != nullptr ? *chunk : *b.src[slot.src].owned)
        .columns[slot.col];
  }

  /// Column `slot` at the batch's rows.
  static ColumnData Take(MorselRun* run, const Batch& b, Slot slot) {
    const ColumnData& col = SourceColumn(run->chain, b, slot);
    run->piece->gathered += b.n;
    if (b.src[slot.src].identity) return col;
    return col.Gather(b.src[slot.src].rows);
  }

  /// The `cols` of `level` at the batch's rows, by name: the input chunk
  /// of an expression that reads only those columns.
  static Chunk View(MorselRun* run, const Level& level,
                    const std::vector<size_t>& cols, const Batch& b) {
    Chunk view;
    for (size_t c : cols) {
      view.names.push_back(level.names[c]);
      view.columns.push_back(Take(run, b, level.slots[c]));
    }
    return view;
  }

  /// Step i's batch is final: drops the sources no longer read, counts it.
  static void Advance(MorselRun* run, size_t i, Batch* b) {
    b->Retain(run->chain.steps[i].live);
    run->piece->level_rows[i + 1] += b->n;
    run->piece->index_bytes =
        std::max(run->piece->index_bytes, b->IndexBytes());
  }

  /// Runs chain steps [i, end) on `b`, then gathers the top into the
  /// morsel's piece. A join hands each of its waves on and returns.
  Status RunSteps(MorselRun* run, size_t i, Batch b) {
    const Chain& chain = run->chain;
    std::forward_list<Chunk> computed;  // this frame's Project columns
    for (; i < chain.steps.size(); ++i) {
      const ChainStep& step = chain.steps[i];
      const Level& in = i == 0 ? chain.base : chain.steps[i - 1].out;
      switch (i < run->filtered ? OpKind::kScan : step.op->kind()) {
        case OpKind::kScan:
          break;
        case OpKind::kJoin:
          return ProbeStep(run, i, in, std::move(b));
        case OpKind::kFilter: {
          const auto& filter = static_cast<const FilterOp&>(*step.op);
          VDM_ASSIGN_OR_RETURN(
              SelectionVector sel,
              SelectWhere(filter.predicate(), View(run, in, step.inputs, b)));
          if (sel.size() != b.n) b = b.Composed(sel);
          break;
        }
        default: {  // kProject
          if (step.computed.empty()) break;
          const Chunk view = View(run, in, step.inputs, b);
          Chunk& cols = computed.emplace_front();
          for (const ProjectOp::Item* item : step.computed) {
            VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(item->expr, view));
            cols.columns.push_back(std::move(col));
          }
          b.src[step.src] = Source{{}, true, true, &cols};
          break;
        }
      }
      Advance(run, i, &b);
    }
    // The top. With a top-k sort, only the batch's first `top_k` rows in
    // that order (kept in input order); each output column is gathered
    // once into the morsel's piece, which is cut back to its own top k
    // when it holds more than one wave.
    const Level& level =
        chain.steps.empty() ? chain.base : chain.steps.back().out;
    if (chain.top_k_sort != nullptr) {
      VDM_ASSIGN_OR_RETURN(
          SelectionVector keep,
          SortOrder(*chain.top_k_sort,
                    View(run, level, chain.top_k_inputs, b), chain.top_k));
      std::sort(keep.begin(), keep.end());
      if (keep.size() != b.n) b = b.Composed(keep);
    }
    // The breaker's gather: each output column once. A per-morsel column
    // read once at identity rows moves out instead.
    Chunk& out = run->piece->out;
    out.names = level.names;
    for (size_t c = 0; c < level.slots.size(); ++c) {
      const Slot slot = level.slots[c];
      const bool movable = chain.read_once[c] && b.src[slot.src].identity &&
                           chain.shared[slot.src] == nullptr;
      ColumnData col = movable
                           ? std::move(b.src[slot.src].owned->columns[slot.col])
                           : Take(run, b, slot);
      if (out.columns.size() == c) {
        out.columns.push_back(std::move(col));
      } else {
        out.columns[c].AppendColumn(std::move(col));
      }
    }
    VDM_RETURN_NOT_OK(run->piece->out_mem.Charge(
        static_cast<int64_t>(b.n * level.slots.size() * sizeof(int64_t))));
    if (chain.top_k_sort == nullptr || out.NumRows() == b.n) {
      return Status::OK();
    }
    VDM_ASSIGN_OR_RETURN(SelectionVector keep,
                         SortOrder(*chain.top_k_sort, out, chain.top_k));
    if (keep.size() == out.NumRows()) return Status::OK();
    std::sort(keep.begin(), keep.end());
    run->piece->gathered += keep.size() * out.NumColumns();
    for (ColumnData& col : out.columns) col = col.Gather(keep);
    return Status::OK();
  }

  /// Probes `b` through join step i in (probe row, ascending build row)
  /// order; without a hash table (no equi key) every build row matches.
  /// All chain heads are found first, then the chains are walked into
  /// waves of at most kWaveMatches pairs, each handed on before the next
  /// is made, ending at a probe-row boundary unless one row overflows one.
  /// A LEFT OUTER row whose candidates all fail the residual is
  /// null-extended once, and the step keeps at most its budget of rows
  /// over the morsel. Each wave polls the governor and charges its match
  /// vectors' growth.
  Status ProbeStep(MorselRun* run, size_t i, const Level& in, Batch b) {
    constexpr size_t kWaveMatches = size_t{1} << 16;
    constexpr uint32_t kEnd = JoinHashTable::kEnd;
    const ChainStep& step = run->chain.steps[i];
    const size_t n = b.n;
    const uint32_t build_rows = static_cast<uint32_t>(step.build.NumRows());
    std::vector<uint32_t> heads;
    if (step.table != nullptr) {
      std::vector<KeyColumn> keys;
      for (const auto& [lc, rc] : step.keys.cols) {
        const Slot slot = in.slots[lc];
        const Source& s = b.src[slot.src];
        keys.push_back({&SourceColumn(run->chain, b, slot),
                        s.identity ? nullptr : s.rows.data()});
      }
      step.table->FindHeads(step.probe_map, keys, n, &run->scratch, &heads);
    }
    // A LEFT OUTER join on a key with one build row emits its chain heads
    // as they are, kEnd as the NULL extension.
    int64_t& emitted = run->emitted[i];
    if (step.left_outer && step.table != nullptr && step.table->unique() &&
        step.keys.residual == nullptr && n <= kWaveMatches &&
        (step.budget < 0 || static_cast<int64_t>(n) <= step.budget - emitted)) {
      VDM_RETURN_NOT_OK(ctx_->CheckAlive());
      emitted += static_cast<int64_t>(n);
      b.src[step.src] = Source{std::move(heads), false, true, nullptr};
      Advance(run, i, &b);
      return RunSteps(run, i + 1, std::move(b));
    }
    auto head = [&](size_t l) {
      return step.table != nullptr ? heads[l] : (build_rows > 0 ? 0 : kEnd);
    };
    auto next = [&](uint32_t r) {
      return step.table != nullptr ? step.table->Next(r)
                                   : (r + 1 < build_rows ? r + 1 : kEnd);
    };
    ScopedMemoryCharge match_mem(&ctx_->memory());
    size_t charged = 0;  // match-vector entries charged
    SelectionVector lrows, rrows, kept, kept_r;
    // Keeps the prefix of a wave's pairs the step's budget still allows.
    auto keep_prefix = [&](SelectionVector* a, SelectionVector* c) {
      if (step.budget >= 0) {
        a->resize(std::min<size_t>(a->size(), step.budget - emitted));
      }
      c->resize(a->size());
      emitted += static_cast<int64_t>(a->size());
    };
    size_t l = 0;            // next probe row
    uint32_t resume = kEnd;  // where a split row's chain goes on
    bool carried = false;    // some candidate of the split row passed
    lrows.reserve(std::min(n, kWaveMatches));
    do {
      VDM_RETURN_NOT_OK(ctx_->CheckAlive());
      lrows.clear();
      rrows.clear();
      rrows.reserve(std::min(n, kWaveMatches));
      const bool continued = resume != kEnd;  // the wave starts mid-row
      bool split = false;                     // ... and ends mid-row
      while (l < n && lrows.size() < kWaveMatches) {
        const size_t start = lrows.size();
        const bool matched_before = resume != kEnd;
        uint32_t r = matched_before ? resume : head(l);
        resume = kEnd;
        for (; r != kEnd && lrows.size() < kWaveMatches; r = next(r)) {
          lrows.push_back(static_cast<uint32_t>(l));
          rrows.push_back(r);
        }
        if (r != kEnd) {  // the row's matches overflow the wave
          if (start > 0) {  // restart it in the next wave
            lrows.resize(start);
            rrows.resize(start);
          } else {
            resume = r;
            split = true;
          }
          break;
        }
        if (lrows.size() == start && !matched_before && step.left_outer) {
          lrows.push_back(static_cast<uint32_t>(l));
          rrows.push_back(ColumnData::kInvalidIndex);
        }
        ++l;
      }
      const size_t entries = lrows.capacity() + rrows.capacity();
      if (entries > charged) {
        VDM_RETURN_NOT_OK(match_mem.Charge(
            static_cast<int64_t>((entries - charged) * sizeof(uint32_t))));
        charged = entries;
      }
      const bool residual = step.keys.residual != nullptr;
      if (!residual) keep_prefix(&lrows, &rrows);
      Batch w = b.Composed(lrows);
      w.src[step.src] = Source{std::move(rrows), false, true, nullptr};
      if (residual) {
        // The residual is part of the join condition: it runs on every
        // candidate (even none, so type errors surface), and a LEFT OUTER
        // probe row whose candidates all fail reverts to null extension.
        VDM_ASSIGN_OR_RETURN(
            SelectionVector pass,
            SelectWhere(step.keys.residual,
                        View(run, step.out, step.inputs, w)));
        const SelectionVector& cand_r = w.src[step.src].rows;
        kept.clear();
        kept_r.clear();
        size_t p = 0;
        for (size_t c = 0; c < lrows.size();) {
          const size_t first = c;
          bool any = first == 0 && continued && carried;
          for (; c < lrows.size() && lrows[c] == lrows[first]; ++c) {
            const bool passed = p < pass.size() && pass[p] == c;
            if (passed) ++p;
            if (passed && cand_r[c] != ColumnData::kInvalidIndex) {
              kept.push_back(static_cast<uint32_t>(c));
              kept_r.push_back(cand_r[c]);
              any = true;
            }
          }
          if (c == lrows.size() && split) {
            carried = any;  // the row goes on in the next wave
          } else if (!any && step.left_outer) {
            kept.push_back(static_cast<uint32_t>(first));
            kept_r.push_back(ColumnData::kInvalidIndex);
          }
        }
        keep_prefix(&kept, &kept_r);
        w.src[step.src].live = false;
        w = w.Composed(kept);
        w.src[step.src] = Source{std::move(kept_r), false, true, nullptr};
      }
      Advance(run, i, &w);
      VDM_RETURN_NOT_OK(RunSteps(run, i + 1, std::move(w)));
    } while ((l < n || resume != kEnd) &&
             (step.budget < 0 || emitted < step.budget));
    return Status::OK();
  }

  /// Runs morsel(m, &(*pieces)[m]) for every morsel, in waves of morsels,
  /// and returns how many ran (always a prefix). `budgets` holds a row
  /// budget (or kNoBudget) per chain level. Without one, one wave holds
  /// every morsel. With one, a wave holds two pool-widths of morsels, and
  /// the waves stop once some level has produced its budget (the output is
  /// a prefix in morsel order, so a LIMIT keeps the same rows). Every
  /// morsel polls the governor first; the first failure in morsel order is
  /// returned. `charge` is charged each wave's row indexes.
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

  /// The chain's work for one morsel, gathered into piece->out.
  Status ChainMorsel(const Chain& chain, const ScanPrep* prep, size_t m,
                     ChainPiece* piece) {
    piece->out_mem = ScopedMemoryCharge(&ctx_->memory());
    MorselRun run{chain, piece};
    run.emitted.assign(chain.steps.size(), 0);
    Batch b(chain.num_sources);
    b.src[0].live = true;
    Chunk scanned;
    if (prep != nullptr) {
      VDM_RETURN_NOT_OK(
          ScanMorsel(*prep, m, &scanned, &run.filtered, &piece->gathered));
      b.src[0].identity = true;
      b.src[0].owned = &scanned;
      b.n = scanned.NumRows();
    } else {
      const size_t rows = chain.shared[0]->NumRows();
      const size_t begin = std::min(rows, m * morsel_size_);
      b.n = std::min(rows, begin + morsel_size_) - begin;
      b.src[0].rows.resize(b.n);
      for (size_t i = 0; i < b.n; ++i) {
        b.src[0].rows[i] = static_cast<uint32_t>(begin + i);
      }
    }
    piece->level_rows.assign(chain.steps.size() + 1, 0);
    piece->level_rows[0] = b.n;
    return RunSteps(&run, 0, std::move(b));
  }

  /// Builds join `step`'s hash table over its materialized build side.
  Status PrepareJoin(const JoinOp& join, ChainStep* step) {
    step->left_outer = join.join_type() == JoinType::kLeftOuter;
    step->keys = ResolveJoinKeys(join);
    VDM_ASSIGN_OR_RETURN(step->build, Run(join.right(), kNoBudget));
    if (metrics_ != nullptr) metrics_->rows_build_input += step->build.NumRows();
    VDM_CHECK(step->build.NumRows() < ColumnData::kInvalidIndex);
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

  /// A chain that is a bare Scan (every join build side over a table): its
  /// morsels, under the LIMIT budget, with no chain set up.
  Result<Chunk> RunScan(const ScanOp& scan, int64_t budget) {
    VDM_ASSIGN_OR_RETURN(ScanPrep prep, PrepareScan({}, scan));
    VDM_FAULT_POINT("exec.pipeline.morsel");
    std::vector<ChainPiece> pieces;
    ScopedMemoryCharge no_indexes;
    VDM_ASSIGN_OR_RETURN(
        size_t processed,
        RunWaves(prep.num_morsels,
                 {options_.enable_limit_early_exit ? budget : kNoBudget},
                 [&](size_t m, ChainPiece* piece) -> Status {
                   size_t filtered = 0;
                   VDM_RETURN_NOT_OK(ScanMorsel(prep, m, &piece->out,
                                                &filtered, &piece->gathered));
                   piece->level_rows = {piece->out.NumRows()};
                   return Status::OK();
                 },
                 &pieces, &no_indexes));
    return FinishChain(&prep, &pieces, processed);
  }

  /// Runs a chain and gathers its output. `budget` is the ancestor LIMIT's
  /// row budget; `top_k_sort`/`top_k` are the LIMIT-over-SORT breaker's
  /// (each morsel then gathers only its own top k rows).
  Result<Chunk> RunChain(const ChainShape& shape, int64_t budget,
                         const SortOp* top_k_sort, int64_t top_k) {
    if (shape.ops.empty() && top_k_sort == nullptr) {
      return RunScan(static_cast<const ScanOp&>(*shape.base), budget);
    }
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
      VDM_CHECK(base.NumRows() < ColumnData::kInvalidIndex);
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
      chain.top_k_sort = top_k_sort;
      chain.top_k = top_k;
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
    // Each join's probe-side code maps, before any morsel runs, from what
    // a key column may carry: a shared chunk's column exactly; a scan
    // column the main fragment's dictionary, and plain strings when a
    // delta exists; a computed column anything.
    for (size_t i = 0; i < num_steps; ++i) {
      ChainStep& step = chain.steps[i];
      if (step.table == nullptr) continue;
      const Level& in = i == 0 ? chain.base : chain.steps[i - 1].out;
      std::vector<JoinHashTable::ProbeSide> sides(step.keys.cols.size(),
                                                  {nullptr, true});
      for (size_t k = 0; k < sides.size(); ++k) {
        const Slot slot = in.slots[step.keys.cols[k].first];
        if (const Chunk* shared = chain.shared[slot.src]) {
          const ColumnData& col = shared->columns[slot.col];
          sides[k] = {col.dict().get(), !col.has_dict()};
        } else if (slot.src == 0 && prep.has_value()) {
          const size_t idx = prep->scan->column_indexes()[slot.col];
          sides[k] = {prep->snap.main_column(idx).dictionary.get(),
                      prep->n > prep->main_rows};
        }
      }
      step.probe_map = step.table->MapProbe(sides);
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
                   return ChainMorsel(chain, prep ? &*prep : nullptr, m,
                                      piece);
                 },
                 &pieces, &index_mem));
    for (size_t m = 0; m < processed && metrics_ != nullptr; ++m) {
      for (size_t i = 0; i < num_steps; ++i) {
        if (chain.steps[i].op->kind() != OpKind::kJoin) continue;
        metrics_->rows_probe_input += pieces[m].level_rows[i];
        if (m == 0) metrics_->morsels_probed += processed;
      }
    }
    return FinishChain(prep ? &*prep : nullptr, &pieces, processed);
  }

  /// Counts a chain run's scanned morsels and gathered values, and
  /// concatenates the outputs of its first `processed` pieces in morsel
  /// order. pieces[0] always exists and carries the names and column
  /// types, even when empty. The last wave may overshoot the budget; the
  /// ancestor LimitOp trims.
  Chunk FinishChain(const ScanPrep* prep, std::vector<ChainPiece>* pieces,
                    size_t processed) {
    if (metrics_ != nullptr && prep != nullptr) {
      metrics_->rows_scanned += std::min(prep->n, processed * morsel_size_);
      metrics_->morsels_scanned += processed;
    }
    Chunk out = std::move((*pieces)[0].out);
    for (size_t m = 0; m < processed; ++m) {
      if (metrics_ != nullptr) {
        metrics_->values_gathered += (*pieces)[m].gathered;
      }
      for (size_t c = 0; m > 0 && c < out.columns.size(); ++c) {
        out.columns[c].AppendColumn(std::move((*pieces)[m].out.columns[c]));
      }
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
    SelectionVector first_rows;
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
    VDM_CHECK(n < ColumnData::kInvalidIndex);
    if (metrics_ != nullptr) metrics_->rows_aggregated += n;

    // Evaluate group expressions (a bare column is borrowed, not copied).
    std::vector<ColumnData> group_storage(agg.group_by().size());
    std::vector<const ColumnData*> key_ptrs(agg.group_by().size());
    for (size_t gi = 0; gi < key_ptrs.size(); ++gi) {
      VDM_ASSIGN_OR_RETURN(key_ptrs[gi],
                           EvalExprBorrowed(agg.group_by()[gi].expr, input,
                                            &group_storage[gi]));
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
    std::vector<ColumnData> arg_storage(agg_nodes.size());
    std::vector<const ColumnData*> arg_cols(agg_nodes.size());
    std::vector<const AggregateExpr*> agg_exprs(agg_nodes.size());
    std::vector<DataType> result_types;
    result_types.reserve(agg_nodes.size());
    for (size_t k = 0; k < agg_nodes.size(); ++k) {
      const auto& a = static_cast<const AggregateExpr&>(*agg_nodes[k]);
      agg_exprs[k] = &a;
      arg_cols[k] = &arg_storage[k];
      if (a.has_arg()) {
        VDM_ASSIGN_OR_RETURN(arg_cols[k],
                             EvalExprBorrowed(a.arg(), input, &arg_storage[k]));
      }
      VDM_ASSIGN_OR_RETURN(DataType result_type, InferType(agg_nodes[k], env));
      result_types.push_back(result_type);
    }

    bool global = agg.group_by().empty();

    SelectionVector first_row;              // per group, in output order
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
      interim.columns.push_back(key_ptrs[gi]->Gather(first_row));
    }
    if (metrics_ != nullptr) {
      metrics_->values_gathered += n_groups * key_ptrs.size();
    }
    for (size_t k = 0; k < agg_nodes.size(); ++k) {
      interim.names.push_back(StrFormat("__agg_%zu", k));
      interim.columns.push_back(std::move(agg_results[k]));
    }

    // Final output: group items, then aggregate items (which may be scalar
    // expressions over aggregates — §7.2 expression macros rely on this).
    // A bare interim column (every group item, most aggregate items) is
    // borrowed, then moved into the output at its last use.
    const std::vector<AggregateOp::AggItem>& items = agg.aggregates();
    std::vector<ColumnData> computed(items.size());
    std::vector<ColumnData*> cols;
    Chunk out;
    for (size_t gi = 0; gi < agg.group_by().size(); ++gi) {
      cols.push_back(&interim.columns[gi]);
      out.names.push_back(agg.group_by()[gi].name);
    }
    for (size_t i = 0; i < items.size(); ++i) {
      ExprRef rewritten =
          TransformExpr(items[i].expr, [&](const ExprRef& node) -> ExprRef {
            if (node->kind() != ExprKind::kAggregate) return nullptr;
            for (size_t k = 0; k < agg_nodes.size(); ++k) {
              if (node->Equals(*agg_nodes[k])) {
                return Col(StrFormat("__agg_%zu", k));
              }
            }
            return nullptr;
          });
      VDM_ASSIGN_OR_RETURN(const ColumnData* col,
                           EvalExprBorrowed(rewritten, interim, &computed[i]));
      cols.push_back(col == &computed[i]
                         ? &computed[i]
                         : &interim.columns[col - interim.columns.data()]);
      out.names.push_back(items[i].name);
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      const bool reused =
          std::find(cols.begin() + c + 1, cols.end(), cols[c]) != cols.end();
      out.columns.push_back(reused ? *cols[c] : std::move(*cols[c]));
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
                       const std::vector<const ColumnData*>& arg_cols,
                       const std::vector<DataType>& result_types,
                       SelectionVector* first_row,
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
      part->first_rows.push_back(static_cast<uint32_t>(row));
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
      // Group ids a block of rows at a time; the governor is polled per
      // block.
      constexpr size_t kBlock = 4096;
      std::vector<uint32_t> ids(global ? 0 : std::min(kBlock, end - begin));
      for (size_t block = begin; block < end; block += kBlock) {
        part.status = ctx_->CheckAlive();
        if (part.status.ok() && !global) part.status = part.table->status();
        if (!part.status.ok()) return;
        const size_t stop = std::min(end, block + kBlock);
        if (!global) {
          part.table->GetOrAdd(nullptr, block, stop - block, ids.data());
        }
        for (size_t r = block; r < stop; ++r) {
          size_t g = 0;
          if (!global) {
            g = ids[r - block];
            if (g == part.first_rows.size()) add_group(&part, r);
          }
          for (size_t k = 0; k < num_aggs; ++k) {
            Accumulate(*aggs[k], *arg_cols[k], result_types[k], r, &key,
                       &part.states[k][g]);
          }
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
      std::vector<uint32_t> ids(global ? 0 : part.first_rows.size());
      if (!global) {
        merged.table->GetOrAdd(part.first_rows.data(), 0, ids.size(),
                               ids.data());
      }
      for (size_t lg = 0; lg < part.first_rows.size(); ++lg) {
        const uint32_t row = part.first_rows[lg];
        const size_t g = global ? 0 : ids[lg];
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
  static Result<SelectionVector> SortOrder(const SortOp& sort,
                                               const Chunk& input,
                                               int64_t top_k) {
    std::vector<ColumnData> key_storage(sort.keys().size());
    std::vector<const ColumnData*> key_cols(sort.keys().size());
    for (size_t k = 0; k < key_cols.size(); ++k) {
      VDM_ASSIGN_OR_RETURN(key_cols[k],
                           EvalExprBorrowed(sort.keys()[k].expr, input,
                                            &key_storage[k]));
    }
    VDM_CHECK(input.NumRows() < ColumnData::kInvalidIndex);
    SelectionVector order(input.NumRows());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    auto less = [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        const int cmp = CompareKeyRows(*key_cols[k], a, b);
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
  Chunk GatherChunk(const Chunk& input, const SelectionVector& rows) {
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
    VDM_ASSIGN_OR_RETURN(SelectionVector order,
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
      VDM_ASSIGN_OR_RETURN(SelectionVector order,
                           SortOrder(sort, candidates, top_k));
      input = GatherChunk(candidates, order);
    } else {
      VDM_ASSIGN_OR_RETURN(
          input, Run(limit.child(0),
                     options_.enable_limit_early_exit ? my_budget : kNoBudget));
    }
    SelectionVector rows;
    int64_t start = limit.offset();
    int64_t end = start + limit.limit();
    for (int64_t i = start;
         i < end && i < static_cast<int64_t>(input.NumRows()); ++i) {
      rows.push_back(static_cast<uint32_t>(i));
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
    SelectionVector rows;
    const size_t n = input.NumRows();
    VDM_CHECK(n < ColumnData::kInvalidIndex);
    constexpr size_t kBlock = 4096;
    std::vector<uint32_t> ids(std::min(n, kBlock));
    bool stopped = false;
    for (size_t begin = 0; begin < n && !stopped; begin += kBlock) {
      VDM_RETURN_NOT_OK(ctx_->CheckAlive());
      VDM_RETURN_NOT_OK(table.status());
      const size_t count = std::min(kBlock, n - begin);
      table.GetOrAdd(nullptr, begin, count, ids.data());
      for (size_t i = begin; i < begin + count && !stopped; ++i) {
        if (ids[i - begin] != rows.size()) continue;
        rows.push_back(static_cast<uint32_t>(i));
        stopped = limit_aware &&
                  rows.size() >= static_cast<uint64_t>(budget) && i + 1 < n;
      }
    }
    if (stopped && metrics_ != nullptr) ++metrics_->limit_early_exits;
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

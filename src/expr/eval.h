// Vectorized expression evaluation over Chunks, plus type inference.
//
// Decimal arithmetic follows fixed-point rules (add/sub rescale to the wider
// scale; multiply adds scales; divide falls back to double). round() on a
// decimal is exact (half-away-from-zero on the unscaled integer), which is
// what makes the §7.1 rounding-vs-aggregation ordering observable.
#ifndef VDMQO_EXPR_EVAL_H_
#define VDMQO_EXPR_EVAL_H_

#include <map>
#include <string>

#include "common/status.h"
#include "expr/expr.h"
#include "types/column.h"

namespace vdm {

/// Output-column-name → type environment for inference.
using TypeEnv = std::map<std::string, DataType>;

/// Infers the result type of a scalar expression. Aggregate nodes infer the
/// type of the aggregate result (sum of decimal keeps scale; avg is double;
/// counts are int64).
Result<DataType> InferType(const ExprRef& expr, const TypeEnv& env);

/// Evaluates a scalar expression against every row of the chunk.
/// The expression must not contain aggregate or macro nodes.
Result<ColumnData> EvalExpr(const ExprRef& expr, const Chunk& input);

/// EvalExpr without the copy of a bare column reference: the result points
/// at the input's column for a column reference, and at `*storage`, which
/// receives the evaluated column, for anything else.
Result<const ColumnData*> EvalExprBorrowed(const ExprRef& expr,
                                           const Chunk& input,
                                           ColumnData* storage);

/// Evaluates an expression on a single row (slow path; used by tests and by
/// constant folding with an empty chunk).
Result<Value> EvalExprOnRow(const ExprRef& expr, const Chunk& input,
                            size_t row);

/// Rounds an int64-unscaled decimal from `from_scale` to `to_scale`,
/// half away from zero. to_scale <= from_scale.
int64_t RoundUnscaled(int64_t unscaled, uint8_t from_scale, uint8_t to_scale);

/// Extracts calendar year / month (1-12) from days-since-1970.
int64_t YearFromDays(int64_t days);
int64_t MonthFromDays(int64_t days);

}  // namespace vdm

#endif  // VDMQO_EXPR_EVAL_H_

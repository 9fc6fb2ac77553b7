#include "ref/interpreter.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "expr/eval.h"
#include "expr/expr.h"

namespace vdm {

namespace {

// Serialized row key for grouping / DISTINCT / count(distinct). Two rows
// get equal encodings exactly when every column value is equal under the
// engine's grouping semantics: NULL groups with NULL, strings by bytes,
// doubles by bit pattern, int-backed types (int, bool, date, decimal) by
// their raw 64-bit payload.
void AppendRowKey(const ColumnData& col, size_t row, std::string* out) {
  if (col.IsNull(row)) {
    out->push_back('\0');
    return;
  }
  out->push_back('\1');
  switch (col.type().id) {
    case TypeId::kString: {
      const Value v = col.GetValue(row);
      const std::string& s = v.AsString();
      uint64_t len = s.size();
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
      break;
    }
    case TypeId::kDouble: {
      double d = col.doubles()[row];
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      out->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
      break;
    }
    default: {
      int64_t raw = col.ints()[row];
      out->append(reinterpret_cast<const char*>(&raw), sizeof(raw));
      break;
    }
  }
}

Chunk GatherRows(const Chunk& input, const std::vector<size_t>& rows) {
  Chunk out;
  out.names = input.names;
  for (const ColumnData& col : input.columns) {
    ColumnData picked(col.type());
    picked.Reserve(rows.size());
    for (size_t r : rows) picked.AppendFrom(col, r);
    out.columns.push_back(std::move(picked));
  }
  return out;
}

class Interp {
 public:
  Interp(const StorageManager* storage, const TxnSnapshot& snap)
      : storage_(storage), snap_(snap) {}

  Result<Chunk> Run(const PlanRef& plan) {
    switch (plan->kind()) {
      case OpKind::kScan:
        return RunScan(static_cast<const ScanOp&>(*plan));
      case OpKind::kFilter:
        return RunFilter(static_cast<const FilterOp&>(*plan));
      case OpKind::kProject:
        return RunProject(static_cast<const ProjectOp&>(*plan));
      case OpKind::kJoin:
        return RunJoin(static_cast<const JoinOp&>(*plan));
      case OpKind::kAggregate:
        return RunAggregate(static_cast<const AggregateOp&>(*plan));
      case OpKind::kUnionAll:
        return RunUnionAll(static_cast<const UnionAllOp&>(*plan));
      case OpKind::kSort:
        return RunSort(static_cast<const SortOp&>(*plan));
      case OpKind::kLimit:
        return RunLimit(static_cast<const LimitOp&>(*plan));
      case OpKind::kDistinct:
        return RunDistinct(static_cast<const DistinctOp&>(*plan));
    }
    return Status::Internal("reference interpreter: unknown operator");
  }

 private:
  // Scans read through a pinned TableSnapshot: one visibility pass over
  // all physical rows, then a gather per column. With the default
  // snapshot every committed row is visible and the gather is skipped.
  Result<Chunk> RunScan(const ScanOp& scan) {
    const Table* table = storage_->FindTable(scan.table_name());
    if (table == nullptr) {
      return Status::ExecutionError("reference interpreter: no table '" +
                                    scan.table_name() + "'");
    }
    TableSnapshot pinned = table->PinSnapshot(snap_);
    const size_t n = pinned.NumRows();
    const bool all = pinned.AllVisible(0, n);
    SelectionVector visible;
    if (!all) pinned.VisibleRows(0, n, &visible);
    Chunk out;
    for (size_t schema_idx : scan.column_indexes()) {
      ColumnData col = pinned.ScanColumnRange(schema_idx, 0, n);
      if (!all) col = col.GatherSelection(visible);
      out.names.push_back(scan.QualifiedName(schema_idx));
      out.columns.push_back(std::move(col));
    }
    return out;
  }

  Result<Chunk> RunFilter(const FilterOp& filter) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(filter.child(0)));
    VDM_ASSIGN_OR_RETURN(ColumnData mask,
                         EvalExpr(filter.predicate(), input));
    std::vector<size_t> kept;
    for (size_t r = 0; r < input.NumRows(); ++r) {
      if (!mask.IsNull(r) && mask.ints()[r] != 0) kept.push_back(r);
    }
    return GatherRows(input, kept);
  }

  Result<Chunk> RunProject(const ProjectOp& project) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(project.child(0)));
    Chunk out;
    for (const ProjectOp::Item& item : project.items()) {
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(item.expr, input));
      out.names.push_back(item.name);
      out.columns.push_back(std::move(col));
    }
    return out;
  }

  // Nested-loop join: for every left row, in order, evaluate the full join
  // condition against every right row and emit matches in ascending right
  // order; a LEFT OUTER row with no match (condition false OR NULL) is
  // null-extended. NULL never compares equal, so SQL equi-join NULL-key
  // semantics fall out of plain three-valued condition evaluation.
  Result<Chunk> RunJoin(const JoinOp& join) {
    VDM_ASSIGN_OR_RETURN(Chunk left, Run(join.child(0)));
    VDM_ASSIGN_OR_RETURN(Chunk right, Run(join.child(1)));
    bool left_outer = join.join_type() == JoinType::kLeftOuter;
    size_t ln = left.NumRows();
    size_t rn = right.NumRows();
    size_t lc = left.columns.size();

    Chunk out;
    out.names = left.names;
    out.names.insert(out.names.end(), right.names.begin(), right.names.end());
    for (const ColumnData& col : left.columns) {
      out.columns.emplace_back(col.type());
    }
    for (const ColumnData& col : right.columns) {
      out.columns.emplace_back(col.type());
    }

    // Scratch chunk for condition evaluation: the current left row
    // broadcast beside the full right side. The right half is copied once;
    // only the broadcast prefix is rebuilt per left row.
    Chunk scratch;
    scratch.names = out.names;
    scratch.columns.resize(lc);
    for (const ColumnData& col : right.columns) scratch.columns.push_back(col);

    for (size_t l = 0; l < ln; ++l) {
      std::vector<size_t> matches;
      if (rn > 0) {
        for (size_t c = 0; c < lc; ++c) {
          ColumnData broadcast(left.columns[c].type());
          broadcast.Reserve(rn);
          for (size_t r = 0; r < rn; ++r) {
            broadcast.AppendFrom(left.columns[c], l);
          }
          scratch.columns[c] = std::move(broadcast);
        }
        VDM_ASSIGN_OR_RETURN(ColumnData mask,
                             EvalExpr(join.condition(), scratch));
        for (size_t r = 0; r < rn; ++r) {
          if (!mask.IsNull(r) && mask.ints()[r] != 0) matches.push_back(r);
        }
      }
      if (matches.empty()) {
        if (!left_outer) continue;
        for (size_t c = 0; c < lc; ++c) {
          out.columns[c].AppendFrom(left.columns[c], l);
        }
        for (size_t c = 0; c < right.columns.size(); ++c) {
          out.columns[lc + c].AppendNull();
        }
        continue;
      }
      for (size_t r : matches) {
        for (size_t c = 0; c < lc; ++c) {
          out.columns[c].AppendFrom(left.columns[c], l);
        }
        for (size_t c = 0; c < right.columns.size(); ++c) {
          out.columns[lc + c].AppendFrom(right.columns[c], r);
        }
      }
    }
    return out;
  }

  // Serial grouping in first-occurrence order; a global aggregate is one
  // group even over zero input rows. Per-group aggregation follows the
  // engine's contract: sums accumulate int64 unscaled payloads exactly
  // (doubles in row order), DISTINCT reaches count/min/max only (the
  // parser rejects sum/avg DISTINCT; on min/max it is vacuous), min/max keep
  // the first occurrence among Compare-equal values, and sum/min/max of
  // zero non-null inputs is NULL.
  Result<Chunk> RunAggregate(const AggregateOp& agg) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(agg.child(0)));
    size_t n = input.NumRows();

    std::vector<ColumnData> group_cols;
    for (const AggregateOp::GroupItem& g : agg.group_by()) {
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(g.expr, input));
      group_cols.push_back(std::move(col));
    }

    // Distinct aggregate nodes across all output items.
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

    TypeEnv env;
    for (size_t c = 0; c < input.names.size(); ++c) {
      env[input.names[c]] = input.columns[c].type();
    }
    std::vector<ColumnData> arg_cols(agg_nodes.size());
    std::vector<const AggregateExpr*> agg_exprs(agg_nodes.size());
    std::vector<DataType> result_types;
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

    // Group rows. first-occurrence order; NULL keys form their own group.
    bool global = agg.group_by().empty();
    std::vector<size_t> first_row;
    std::vector<std::vector<size_t>> group_rows;
    if (global) {
      first_row.push_back(0);
      group_rows.emplace_back();
      for (size_t i = 0; i < n; ++i) group_rows[0].push_back(i);
    } else {
      std::unordered_map<std::string, size_t> group_of;
      std::string key;
      for (size_t i = 0; i < n; ++i) {
        key.clear();
        for (const ColumnData& col : group_cols) AppendRowKey(col, i, &key);
        auto [it, inserted] = group_of.emplace(key, group_rows.size());
        if (inserted) {
          first_row.push_back(i);
          group_rows.emplace_back();
        }
        group_rows[it->second].push_back(i);
      }
    }
    size_t n_groups = group_rows.size();

    std::vector<ColumnData> agg_results;
    for (size_t k = 0; k < agg_nodes.size(); ++k) {
      const AggregateExpr& a = *agg_exprs[k];
      ColumnData out(result_types[k]);
      out.Reserve(n_groups);
      for (size_t g = 0; g < n_groups; ++g) {
        const std::vector<size_t>& rows = group_rows[g];
        switch (a.agg()) {
          case AggKind::kCountStar: {
            if (a.distinct()) {
              return Status::ExecutionError("count(distinct *) unsupported");
            }
            out.AppendInt(static_cast<int64_t>(rows.size()));
            break;
          }
          case AggKind::kCount: {
            const ColumnData& arg = arg_cols[k];
            if (a.distinct()) {
              std::unordered_set<std::string> seen;
              std::string key;
              for (size_t r : rows) {
                if (arg.IsNull(r)) continue;
                key.clear();
                AppendRowKey(arg, r, &key);
                seen.insert(key);
              }
              out.AppendInt(static_cast<int64_t>(seen.size()));
            } else {
              int64_t count = 0;
              for (size_t r : rows) {
                if (!arg.IsNull(r)) ++count;
              }
              out.AppendInt(count);
            }
            break;
          }
          case AggKind::kSum: {
            const ColumnData& arg = arg_cols[k];
            bool any = false;
            if (result_types[k].id == TypeId::kDouble) {
              double sum = 0.0;
              for (size_t r : rows) {
                if (arg.IsNull(r)) continue;
                any = true;
                sum += arg.type().id == TypeId::kDouble
                           ? arg.doubles()[r]
                           : arg.GetValue(r).ToDouble();
              }
              if (any) {
                out.AppendDouble(sum);
              } else {
                out.AppendNull();
              }
            } else {
              int64_t sum = 0;
              for (size_t r : rows) {
                if (arg.IsNull(r)) continue;
                any = true;
                sum += arg.ints()[r];
              }
              if (any) {
                out.AppendInt(sum);
              } else {
                out.AppendNull();
              }
            }
            break;
          }
          case AggKind::kAvg: {
            const ColumnData& arg = arg_cols[k];
            double sum = 0.0;
            int64_t count = 0;
            for (size_t r : rows) {
              if (arg.IsNull(r)) continue;
              sum += arg.GetValue(r).ToDouble();
              ++count;
            }
            if (count == 0) {
              out.AppendNull();
            } else {
              out.AppendDouble(sum / static_cast<double>(count));
            }
            break;
          }
          case AggKind::kMin:
          case AggKind::kMax: {
            const ColumnData& arg = arg_cols[k];
            bool any = false;
            Value best;
            for (size_t r : rows) {
              if (arg.IsNull(r)) continue;
              Value v = arg.GetValue(r);
              if (!any) {
                best = v;
                any = true;
              } else {
                int cmp = v.Compare(best);
                if ((a.agg() == AggKind::kMin && cmp < 0) ||
                    (a.agg() == AggKind::kMax && cmp > 0)) {
                  best = v;
                }
              }
            }
            if (any) {
              out.AppendValue(best);
            } else {
              out.AppendNull();
            }
            break;
          }
        }
      }
      agg_results.push_back(std::move(out));
    }

    // Interim chunk (group columns + aggregate slots), then the output
    // items — aggregate items may be scalar expressions over aggregates.
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
      interim.names.push_back(StrFormat("__refagg_%zu", k));
      interim.columns.push_back(std::move(agg_results[k]));
    }

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
                return Col(StrFormat("__refagg_%zu", k));
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

  // Branch-order concatenation; the first child's column types define the
  // output types, later children coerce value-by-value when they differ.
  Result<Chunk> RunUnionAll(const UnionAllOp& u) {
    Chunk out;
    bool first = true;
    for (const PlanRef& child : u.children()) {
      VDM_ASSIGN_OR_RETURN(Chunk chunk, Run(child));
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
          for (size_t r = 0; r < src.size(); ++r) {
            dst.AppendValue(src.GetValue(r));
          }
        }
      }
    }
    return out;
  }

  // Stable sort: Value::Compare (a total order with NULLs first) per key,
  // input position as the final tie-break.
  Result<Chunk> RunSort(const SortOp& sort) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(sort.child(0)));
    std::vector<ColumnData> key_cols;
    for (const SortOp::SortKey& key : sort.keys()) {
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(key.expr, input));
      key_cols.push_back(std::move(col));
    }
    std::vector<size_t> order(input.NumRows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        int cmp = key_cols[k].GetValue(a).Compare(key_cols[k].GetValue(b));
        if (cmp != 0) return sort.keys()[k].ascending ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    return GatherRows(input, order);
  }

  Result<Chunk> RunLimit(const LimitOp& limit) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(limit.child(0)));
    std::vector<size_t> rows;
    int64_t start = limit.offset();
    int64_t end = start + limit.limit();
    for (int64_t i = start;
         i < end && i < static_cast<int64_t>(input.NumRows()); ++i) {
      rows.push_back(static_cast<size_t>(i));
    }
    return GatherRows(input, rows);
  }

  Result<Chunk> RunDistinct(const DistinctOp& distinct) {
    VDM_ASSIGN_OR_RETURN(Chunk input, Run(distinct.child(0)));
    if (input.columns.empty()) return input;
    std::unordered_set<std::string> seen;
    std::vector<size_t> kept;
    std::string key;
    for (size_t r = 0; r < input.NumRows(); ++r) {
      key.clear();
      for (const ColumnData& col : input.columns) AppendRowKey(col, r, &key);
      if (seen.insert(key).second) kept.push_back(r);
    }
    return GatherRows(input, kept);
  }

  const StorageManager* storage_;
  TxnSnapshot snap_;
};

}  // namespace

Result<Chunk> RefInterpreter::Execute(const PlanRef& plan) const {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  Interp interp(storage_, snap_);
  try {
    return interp.Run(plan);
  } catch (...) {
    return Status::ExecutionError("reference interpreter: exception");
  }
}

}  // namespace vdm

#include "analysis/stats/table_stats.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace vdm {

namespace {

/// Distinct/null/min-max over a fully materialized column (the gathered
/// visible rows). Exact, one pass.
void CollectFromColumn(const ColumnData& col, ColumnStatsEntry* entry) {
  const size_t rows = col.size();
  if (rows == 0) return;
  size_t nulls = 0;
  const DataType& type = col.type();
  if (type.IsIntegerBacked()) {
    std::unordered_set<int64_t> distinct;
    bool seen = false;
    int64_t lo = 0, hi = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (col.IsNull(r)) {
        ++nulls;
        continue;
      }
      const int64_t v = col.ints()[r];
      distinct.insert(v);
      if (!seen || v < lo) lo = v;
      if (!seen || v > hi) hi = v;
      seen = true;
    }
    entry->distinct_count = distinct.size();
    entry->has_minmax = seen;
    entry->min_i64 = lo;
    entry->max_i64 = hi;
  } else if (type.id == TypeId::kString) {
    std::unordered_set<std::string> distinct;
    for (size_t r = 0; r < rows; ++r) {
      if (col.IsNull(r)) {
        ++nulls;
        continue;
      }
      distinct.insert(col.StringAt(r));
    }
    entry->distinct_count = distinct.size();
  } else {
    // Doubles: null fraction only; distinct counts over floats are not
    // useful for equi-join estimation.
    for (size_t r = 0; r < rows; ++r) nulls += col.IsNull(r);
  }
  entry->null_fraction = static_cast<double>(nulls) / rows;
}

}  // namespace

TableStats CollectRowCountOnly(const Table& table) {
  TableStats stats;
  const TableSnapshot ts = table.PinSnapshot();
  SelectionVector visible;
  stats.physical_rows = ts.NumRows();
  ts.VisibleRows(0, stats.physical_rows, &visible);
  stats.row_count = visible.size();
  return stats;
}

TableStats CollectTableStats(const Table& table) {
  TableStats stats;
  // Stats describe the latest *committed* state: the collector pins a
  // snapshot once and works entirely off it, so a concurrent merge or
  // writer cannot race the pass (and uncommitted rows never skew it).
  const TableSnapshot ts = table.PinSnapshot();
  const size_t physical = ts.NumRows();
  SelectionVector visible;
  ts.VisibleRows(0, physical, &visible);
  const bool all_visible = visible.size() == physical;
  stats.row_count = visible.size();
  stats.physical_rows = physical;
  const TableSchema& schema = table.schema();
  stats.columns.resize(schema.NumColumns());
  const size_t rows = stats.row_count;
  if (rows == 0) return stats;
  const bool main_only = ts.delta.NumRows() == 0 && all_visible;
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    ColumnStatsEntry& entry = stats.columns[i];
    const DataType& type = schema.column(i).type;
    if (type.id == TypeId::kString && main_only) {
      // The sorted main dictionary is duplicate-free and rebuilt from the
      // surviving values on every merge: its size IS the distinct count.
      const MainColumn& mc = ts.main_column(i);
      size_t nulls = 0;
      for (uint32_t code : mc.codes) {
        nulls += (code == MainColumn::kNullCode) ? 1 : 0;
      }
      entry.distinct_count = mc.dictionary ? mc.dictionary->size() : 0;
      entry.null_fraction = static_cast<double>(nulls) / rows;
      continue;
    }
    ColumnData col = ts.ScanColumnRange(i, 0, physical);
    if (!all_visible) col = col.GatherSelection(visible);
    col.EnsureDecoded();
    CollectFromColumn(col, &entry);
  }
  return stats;
}

}  // namespace vdm

// Table statistics collection (DESIGN.md §14).
//
// Statistics ride the storage layout the engine already maintains: string
// distinct counts are the *size of the sorted main dictionary* (free —
// MergeDelta deduplicates), null fractions come from the code/validity
// vectors, and min/max are a single pass over the integer-backed main
// columns. Collection therefore costs one scan per non-string column and
// O(1) per string column when the delta is empty; tables with delta rows
// fall back to a materializing scan so the counts stay exact.
//
// Database::AnalyzeTables() writes the result into the catalog via
// SetTableStats, which bumps the table's Catalog::stats_version(): cached
// plans that scan the table recompile on their next hit.
#ifndef VDMQO_ANALYSIS_STATS_TABLE_STATS_H_
#define VDMQO_ANALYSIS_STATS_TABLE_STATS_H_

#include "catalog/catalog.h"
#include "storage/table.h"

namespace vdm {

/// Full statistics pass: row count, per-column distinct counts, null
/// fractions, and min/max for integer-backed (int/decimal/date) columns.
TableStats CollectTableStats(const Table& table);

/// Row count only (the VDM_STATS=0 degraded mode: join ordering still
/// sees table sizes, but no per-column estimation).
TableStats CollectRowCountOnly(const Table& table);

}  // namespace vdm

#endif  // VDMQO_ANALYSIS_STATS_TABLE_STATS_H_

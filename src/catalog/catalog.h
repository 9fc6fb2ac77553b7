// The catalog: metadata registry for tables, views, and expression macros.
//
// Views model the paper's VDM artifacts: each view carries its defining SQL
// text, its VDM layer (basic / composite / consumption, §2.3), optional
// expression macros (§7.2), and an optional data-access-control predicate
// that the binder injects on top of the view when it is queried (§3).
//
// The catalog stores metadata only; row data lives in storage::StorageManager.
#ifndef VDMQO_CATALOG_CATALOG_H_
#define VDMQO_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"

namespace vdm {

/// VDM layering (paper Fig. 2). kPlain marks non-VDM views.
enum class VdmLayer {
  kPlain = 0,
  kBasic,
  kComposite,
  kConsumption,
};

/// A named calculation formula over aggregates, attached to a view
/// (paper §7.2, "expression macros"). The body is SQL expression text that
/// the binder expands at the aggregation site referencing the macro.
struct ExpressionMacro {
  std::string name;
  std::string body_sql;
};

/// A CDS-style association (§2.3): a named, to-one link from a view to
/// another view or table. Queries use path notation — `v.assoc.column` —
/// and the binder injects the corresponding many-to-one LEFT OUTER join
/// on demand ("an easy and convenient way to join a view and project
/// columns from it"). In the ON condition, target columns are written
/// `<name>.<column>` and source columns bare.
struct AssociationDef {
  std::string name;
  std::string target;  // view or table name
  std::string condition_sql;
};

struct ViewDef {
  std::string name;
  /// Defining query; parsed and inlined by the binder on every reference.
  std::string sql;
  VdmLayer layer = VdmLayer::kPlain;
  std::vector<ExpressionMacro> macros;
  std::vector<AssociationDef> associations;
  /// Optional record-wise data access control filter (SQL boolean
  /// expression over the view's output columns). Injected per query.
  std::string dac_filter_sql;
  /// Cached views (§3): when materialized_table is non-empty, queries
  /// against this view read the named snapshot table instead of inlining
  /// the definition. kStatic snapshots are refreshed explicitly (SCV);
  /// kDynamic snapshots are kept up to date automatically (DCV) by
  /// checking the recorded base-table versions on access.
  enum class CacheMode { kStatic, kDynamic };
  std::string materialized_table;
  CacheMode cache_mode = CacheMode::kStatic;
  /// Base tables the snapshot was computed from, with their versions.
  std::vector<std::pair<std::string, uint64_t>> snapshot_dependencies;

  const ExpressionMacro* FindMacro(const std::string& macro_name) const;
  const AssociationDef* FindAssociation(const std::string& assoc_name) const;
};

/// Per-column statistics for cardinality estimation. Distinct counts for
/// string columns come straight from the sorted main dictionary (free to
/// maintain — DESIGN.md §14); min/max apply to integer-backed columns
/// (ints, decimals, dates) only.
struct ColumnStatsEntry {
  /// Distinct non-NULL values; 0 = unknown / never collected.
  uint64_t distinct_count = 0;
  /// Fraction of rows with a NULL value, in [0, 1].
  double null_fraction = 0.0;
  /// Value range for integer-backed columns (raw stored representation,
  /// i.e. scaled decimals / day numbers). Meaningless when !has_minmax.
  bool has_minmax = false;
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;
};

/// Per-table statistics for cost-based decisions (join ordering,
/// build-side selection, serial-vs-parallel execution). Collected by
/// Database::AnalyzeTables(); `columns` is schema-parallel and may be
/// empty when only row counts were gathered (VDM_STATS=0).
struct TableStats {
  /// Committed (visible) rows.
  uint64_t row_count = 0;
  std::vector<ColumnStatsEntry> columns;
  /// Physical rows of the collected snapshot (both fragments, superseded
  /// versions included): the baseline auto-analyze measures drift from.
  uint64_t physical_rows = 0;

  const ColumnStatsEntry* Column(size_t idx) const {
    return idx < columns.size() ? &columns[idx] : nullptr;
  }
};

class Catalog {
 public:
  Catalog() = default;
  // The catalog is referenced throughout; avoid accidental copies.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status RegisterTable(TableSchema schema);
  Status RegisterView(ViewDef view);
  /// Replaces an existing view (used by the custom-fields extension, §5,
  /// which redefines the consumption view while keeping interim views).
  Status ReplaceView(ViewDef view);
  Status DropView(const std::string& name);
  Status DropTable(const std::string& name);

  const TableSchema* FindTable(const std::string& name) const;
  const ViewDef* FindView(const std::string& name) const;
  bool Exists(const std::string& name) const {
    return FindTable(name) != nullptr || FindView(name) != nullptr;
  }

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ViewNames() const;

  /// Publishes fresh statistics for a table and bumps its stats_version():
  /// new statistics can change the plan shape, so cached plans scanning
  /// this table must recompile — but only those.
  /// Thread-safe: callable from a background merge task while queries
  /// plan concurrently.
  void SetTableStats(const std::string& name, TableStats stats) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_[ToLowerKey(name)] =
        std::make_shared<const TableStats>(std::move(stats));
    ++stats_versions_[ToLowerKey(name)];
  }
  /// Stats for a table, or nullptr when never analyzed. The returned
  /// snapshot stays valid (immutable) even if SetTableStats replaces it
  /// concurrently.
  std::shared_ptr<const TableStats> FindTableStats(
      const std::string& name) const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    auto it = stats_.find(ToLowerKey(name));
    return it == stats_.end() ? nullptr : it->second;
  }

  /// Monotonic *schema* version. Bumped by every mutation that can change
  /// what a statement binds to (DDL, view replacement). The plan cache
  /// keys on it, so any schema change invalidates all cached plans
  /// without explicit bookkeeping.
  uint64_t version() const { return version_; }

  /// Monotonic per-table *statistics* version, bumped only by
  /// SetTableStats (ANALYZE, a delta merge, the delta-heavy auto-analyze).
  /// A compiled plan depends on table contents only through statistics —
  /// the executor pins its MVCC snapshot and lowers predicates to
  /// dictionary codes at run time — so commits leave it alone. Cached
  /// plans record it for every base table they scan and are re-validated
  /// per hit. Unknown or never-analyzed tables report 0.
  uint64_t stats_version(const std::string& name) const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    auto it = stats_versions_.find(ToLowerKey(name));
    return it == stats_versions_.end() ? 0 : it->second;
  }

 private:
  static std::string ToLowerKey(const std::string& name);

  uint64_t version_ = 0;

  // Keyed by lower-cased name (SQL identifiers are case-insensitive here).
  std::map<std::string, TableSchema> tables_;
  std::map<std::string, ViewDef> views_;
  // Statistics and their versions are written by the background merge
  // worker and read by concurrent planners; both live behind stats_mu_.
  mutable std::mutex stats_mu_;
  std::map<std::string, std::shared_ptr<const TableStats>> stats_;
  std::map<std::string, uint64_t> stats_versions_;
};

}  // namespace vdm

#endif  // VDMQO_CATALOG_CATALOG_H_

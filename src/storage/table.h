// In-memory columnar table with a HANA-style two-fragment layout (§2.2 of
// the paper): a read-optimized, dictionary-compressed *main* fragment and a
// write-optimized, append-only *delta* fragment with MVCC row stamps.
//
// Concurrency model (DESIGN.md §15): the main fragment lives in an
// immutable TableVersion behind a shared_ptr — readers pin it and proceed
// lock-free while a merge installs a successor (refcount retirement). The
// delta fragment and all begin/end stamps are mutable state guarded by a
// shared_mutex; readers copy the (small) delta into a TableSnapshot under
// the shared lock once per pipeline, writers stamp under the unique lock.
//
// Scans decode both fragments into ColumnData vectors; the executor never
// sees fragments. Constraint enforcement is optional per table — the paper
// (§4.5, §7.3) stresses that SAP applications avoid enforced constraints,
// so enforcement defaults off and a separate verifier checks declared keys.
#ifndef VDMQO_STORAGE_TABLE_H_
#define VDMQO_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "txn/snapshot.h"
#include "types/column.h"
#include "types/value.h"

namespace vdm {

/// One column of the main fragment. Strings are dictionary-encoded;
/// integer-backed and double columns are stored as plain vectors.
struct MainColumn {
  // For string columns: dictionary + codes (code kNullCode = NULL). The
  // dictionary is *sorted and duplicate-free* (order-preserving encoding,
  // DESIGN.md §13): code order equals byte-lexicographic string order, so
  // equality predicates lower to one code compare and range / LIKE-prefix
  // predicates to a code-interval test. It is behind a shared_ptr so scans
  // can annotate the columns they materialize with it
  // (ColumnData::SetDictionary); a merge re-encodes into a *new* vector,
  // so outstanding annotations keep a consistent snapshot. Never null for
  // string columns — empty columns share EmptyDictionary().
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;
  std::shared_ptr<const std::vector<std::string>> dictionary;
  std::vector<uint32_t> codes;
  // For non-string columns.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> validity;  // empty = all valid

  /// The process-wide empty dictionary: all-NULL string columns share it
  /// instead of allocating one per merge/scan.
  static const std::shared_ptr<const std::vector<std::string>>&
  EmptyDictionary();
};

/// An immutable published state of the main fragment. Never mutated after
/// the installing merge publishes it; readers hold it alive by shared_ptr.
/// Every main row's begin stamp is committed at or below the merge
/// watermark, so begin-visibility for main rows is implied for any snapshot
/// that can pin this version — only end stamps (Table::main_end_, outside
/// this struct because in-flight deletes mutate them) can hide a main row.
struct TableVersion {
  size_t main_rows = 0;
  std::vector<MainColumn> main;
};

/// A pinned, self-contained read view of one table: the immutable main
/// version plus a point-in-time copy of the delta fragment and all row
/// stamps, taken under the shared lock. After Pin the reader never touches
/// the Table again — scans, visibility checks, and the compressed kernels
/// all run off this struct, so writers and the merge cannot race it.
struct TableSnapshot {
  std::shared_ptr<const TableVersion> version;
  Chunk delta;
  std::vector<uint64_t> delta_begin;
  std::vector<uint64_t> delta_end;
  std::vector<uint64_t> main_end;  // empty = no deletes among main rows
  TxnSnapshot snap;
  const TableSchema* schema = nullptr;

  size_t main_rows() const { return version->main_rows; }
  size_t NumRows() const { return version->main_rows + delta.NumRows(); }
  const MainColumn& main_column(size_t i) const { return version->main[i]; }

  /// True when every physical row of [row_begin, row_end) is visible to
  /// the pinned snapshot — the precondition for the compressed fast path,
  /// which evaluates kernels on raw fragment arrays with no row gaps.
  bool AllVisible(size_t row_begin, size_t row_end) const;

  /// Appends the morsel-local indexes of the visible rows in
  /// [row_begin, row_end) to `out`.
  void VisibleRows(size_t row_begin, size_t row_end,
                   SelectionVector* out) const;

  /// Materializes rows [row_begin, row_end) of one column, with the same
  /// lazy-string / raw-copy fast paths as Table::ScanColumnRange. Performs
  /// NO visibility filtering — pair with VisibleRows + GatherSelection.
  ColumnData ScanColumnRange(size_t column_index, size_t row_begin,
                             size_t row_end) const;
};

/// The row set and replacement values one DML statement wants to apply,
/// computed by the engine layer over the statement's visible chunk.
/// `selected` holds chunk-local row indexes; `replacements` is empty for
/// DELETE, else one full schema-arity row per selected row (UPDATE).
struct MutationPlan {
  SelectionVector selected;
  std::vector<std::vector<Value>> replacements;
};

/// Callback evaluating WHERE/SET over the visible rows. Keeps expression
/// evaluation out of the storage layer while the find-and-stamp step stays
/// atomic under the table's unique lock.
using MutationFn = std::function<Result<MutationPlan>(const Chunk& visible)>;

/// Knobs for the MVCC-aware merge. `watermark` is the highest commit
/// timestamp that is safely foldable (TxnManager::Watermark());
/// `check_alive` lets a governor cancel the build phase; the merge refuses
/// to install while `has_active_writers` reports true (write sets hold raw
/// row positions).
struct MergeOptions {
  uint64_t watermark = kMaxTs;
  std::function<Status()> check_alive;
  std::function<bool()> has_active_writers;
  bool inject_faults = true;  // false on the legacy synchronous path
};

class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  /// Monotonic modification counter; bumped on every append, stamp, and
  /// merge install. Used by dynamic cached views to detect staleness.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  size_t NumRows() const;      // physical rows, both fragments
  size_t NumMainRows() const;
  size_t NumDeltaRows() const;

  /// When enabled, AppendRow validates enforced unique keys and NOT NULL.
  void SetEnforceConstraints(bool enforce) { enforce_constraints_ = enforce; }

  /// Appends one row (into the delta fragment) with begin stamp 0 —
  /// visible to every snapshot. The loader / bulk path.
  Status AppendRow(const std::vector<Value>& row);

  // --- MVCC write path (engine/txn layers) -------------------------------

  /// Appends one row with the given in-flight begin marker (kTxnFlag |
  /// txn id) and records the WriteOp for commit/abort stamping.
  Status InsertRowTxn(const std::vector<Value>& row, uint64_t begin_marker,
                      std::vector<WriteOp>* ops);

  /// One UPDATE/DELETE statement: materializes the rows visible to `snap`,
  /// lets `fn` pick targets and replacements, then stamps end markers (and
  /// appends replacement rows) atomically under the unique lock. A target
  /// whose end stamp is no longer kInfinity was deleted by a concurrent
  /// transaction: every stamp this statement already applied is reverted
  /// and kSerializationFailure returned (first-updater-wins). Returns the
  /// number of rows affected.
  Result<size_t> Mutate(const TxnSnapshot& snap, uint64_t marker,
                        const MutationFn& fn, std::vector<WriteOp>* ops);

  /// Rewrites the in-flight markers of `ops` to the commit timestamp.
  void FinalizeWrites(const std::vector<WriteOp>& ops, uint64_t commit_ts);
  /// Reverts `ops`: inserted rows become never-visible, deletions undo.
  void AbortWrites(const std::vector<WriteOp>& ops);

  /// Pins a read view for `snap` (default: latest committed state).
  TableSnapshot PinSnapshot(const TxnSnapshot& snap = TxnSnapshot()) const;

  /// Folds committed-at-or-below-watermark delta rows into a freshly built
  /// main version (dictionary rebuilt from surviving rows only), purges
  /// rows whose deletion is below the watermark, and installs the new
  /// version while readers proceed on the old one. Returns
  /// kResourceExhausted when installation would race an active writer or a
  /// concurrently installed merge — callers retry. Fault points:
  /// storage.merge.remap (build phase), storage.merge.abort (pre-publish).
  Status MergeDeltaMvcc(const MergeOptions& opts);

  /// Legacy synchronous full fold (loader / tests): everything committed,
  /// no concurrency, no fault points.
  void MergeDelta();

  /// Materializes one column (both fragments, all physical rows) by schema
  /// index.
  ColumnData ScanColumn(size_t column_index) const;

  /// Materializes rows [row_begin, row_end) of one column — the morsel
  /// unit. The range may span the main/delta boundary. String ranges that
  /// lie entirely in the main fragment come back *lazy*
  /// (ColumnData::is_lazy): dictionary + codes only (late
  /// materialization). No visibility filtering (all loader rows are
  /// visible); the executor uses TableSnapshot instead.
  ColumnData ScanColumnRange(size_t column_index, size_t row_begin,
                             size_t row_end) const;

  /// Materializes the named columns; empty list means all columns.
  Result<Chunk> Scan(const std::vector<std::string>& column_names) const;

  /// Scan restricted to the rows visible to `snap`, decoded.
  Result<Chunk> ScanVisible(const std::vector<std::string>& column_names,
                            const TxnSnapshot& snap) const;

  /// Checks an arbitrary column set for uniqueness against the data —
  /// the §7.3 verification tool for declared join cardinalities.
  Result<bool> VerifyUnique(const std::vector<std::string>& columns) const;

 private:
  Status CheckRow(const std::vector<Value>& row) const;
  // Unlocked internals: callers hold mu_ (shared for reads, unique for
  // writes). shared_mutex is non-recursive, so the public wrappers lock
  // exactly once and delegate here.
  size_t NumRowsLocked() const {
    return main_version_->main_rows + delta_.NumRows();
  }
  ColumnData ScanRangeLocked(size_t column_index, size_t row_begin,
                             size_t row_end) const;
  Status AppendRowLocked(const std::vector<Value>& row, uint64_t begin,
                         std::vector<WriteOp>* ops);
  void BuildKeySets();

  std::string SerializeKey(const UniqueKeyDef& key,
                           const std::vector<Value>& row) const;

  TableSchema schema_;
  bool enforce_constraints_ = false;
  std::atomic<uint64_t> version_{0};

  mutable std::shared_mutex mu_;
  std::shared_ptr<const TableVersion> main_version_;
  Chunk delta_;  // plain ColumnData per column
  // Per-delta-row begin/end stamps (see txn/snapshot.h). Loader rows get
  // begin 0 / end kInfinity.
  std::vector<uint64_t> delta_begin_;
  std::vector<uint64_t> delta_end_;
  // Per-main-row end stamps; empty = no main row was ever deleted. Begin
  // stamps for main rows are implied (see TableVersion).
  std::vector<uint64_t> main_end_;

  // Uniqueness enforcement state: one hash set per enforced key, keyed by
  // serialized key tuples. Only maintained when enforcement is on.
  mutable std::vector<std::unordered_map<std::string, size_t>> key_sets_;
  bool key_sets_built_ = false;
};

/// Name → Table registry; the executor's data source. Tables are held by
/// unique_ptr (a Table owns a shared_mutex and is immovable); pointers
/// stay stable across rehash and table creation.
class StorageManager {
 public:
  StorageManager() = default;
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  Status CreateTable(TableSchema schema);
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;
  Status DropTable(const std::string& name);

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace vdm

#endif  // VDMQO_STORAGE_TABLE_H_

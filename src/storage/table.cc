#include "storage/table.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace vdm {

const std::shared_ptr<const std::vector<std::string>>&
MainColumn::EmptyDictionary() {
  static const std::shared_ptr<const std::vector<std::string>> kEmpty =
      std::make_shared<const std::vector<std::string>>();
  return kEmpty;
}

namespace {

#ifndef NDEBUG
// Debug invariants of the order-preserving encoding: the dictionary is
// strictly sorted (duplicate-free) and every code addresses it or is
// kNullCode.
void CheckSortedDictInvariants(const MainColumn& main) {
  const std::vector<std::string>& dict = *main.dictionary;
  for (size_t i = 1; i < dict.size(); ++i) {
    VDM_DCHECK(dict[i - 1] < dict[i]);
  }
  for (uint32_t code : main.codes) {
    VDM_DCHECK(code == MainColumn::kNullCode || code < dict.size());
  }
}
#endif

/// True when `ts` is a committed stamp at or below `watermark` (in-flight
/// markers never qualify).
bool CommittedAtOrBelow(uint64_t ts, uint64_t watermark) {
  return (ts & kTxnFlag) == 0 && ts <= watermark;
}

/// Shared range-scan implementation over one (main version, delta) pair:
/// used by Table under its lock and by TableSnapshot lock-free.
ColumnData ScanRangeImpl(const TableSchema& schema, const TableVersion& ver,
                         const Chunk& delta, size_t column_index,
                         size_t row_begin, size_t row_end) {
  VDM_CHECK(column_index < schema.NumColumns());
  const size_t main_rows = ver.main_rows;
  VDM_CHECK(row_begin <= row_end && row_end <= main_rows + delta.NumRows());
  const DataType& type = schema.column(column_index).type;
  const MainColumn& main = ver.main[column_index];
  // A string range entirely inside the main fragment stays compressed: a
  // lazy column carrying the shared dictionary plus per-row codes.
  // kNullCode bit-casts to the annotation's -1 NULL code, so the copy is
  // a straight memcpy.
  if (type.id == TypeId::kString && row_end <= main_rows) {
    static_assert(static_cast<int32_t>(MainColumn::kNullCode) == -1);
    std::vector<int32_t> codes(row_end - row_begin);
    if (!codes.empty()) {
      std::memcpy(codes.data(), main.codes.data() + row_begin,
                  codes.size() * sizeof(int32_t));
    }
    return ColumnData::LazyStrings(type, main.dictionary, std::move(codes));
  }
  // Numeric ranges inside the main fragment bulk-copy the raw arrays: the
  // main fragment stores 0 at NULL positions, so values + validity
  // subranges transfer verbatim (no per-row branching).
  if (type.id != TypeId::kString && row_end <= main_rows) {
    const size_t count = row_end - row_begin;
    std::vector<uint8_t> validity;
    if (!main.validity.empty()) {
      validity.assign(main.validity.begin() + static_cast<ptrdiff_t>(row_begin),
                      main.validity.begin() + static_cast<ptrdiff_t>(row_end));
    }
    if (type.id == TypeId::kDouble) {
      std::vector<double> vals(count);
      if (count > 0) {
        std::memcpy(vals.data(), main.doubles.data() + row_begin,
                    count * sizeof(double));
      }
      return ColumnData::TakeDoubles(type, std::move(vals),
                                     std::move(validity));
    }
    std::vector<int64_t> vals(count);
    if (count > 0) {
      std::memcpy(vals.data(), main.ints.data() + row_begin,
                  count * sizeof(int64_t));
    }
    return ColumnData::TakeInts(type, std::move(vals), std::move(validity));
  }
  ColumnData out(type);
  out.Reserve(row_end - row_begin);
  // Decode the main-fragment part of the range.
  size_t main_begin = std::min(row_begin, main_rows);
  size_t main_end = std::min(row_end, main_rows);
  if (type.id == TypeId::kString) {
    for (size_t r = main_begin; r < main_end; ++r) {
      uint32_t code = main.codes[r];
      if (code == MainColumn::kNullCode) {
        out.AppendNull();
      } else {
        out.AppendString((*main.dictionary)[code]);
      }
    }
  } else if (type.id == TypeId::kDouble) {
    for (size_t r = main_begin; r < main_end; ++r) {
      if (!main.validity.empty() && main.validity[r] == 0) {
        out.AppendNull();
      } else {
        out.AppendDouble(main.doubles[r]);
      }
    }
  } else {
    for (size_t r = main_begin; r < main_end; ++r) {
      if (!main.validity.empty() && main.validity[r] == 0) {
        out.AppendNull();
      } else {
        out.AppendInt(main.ints[r]);
      }
    }
  }
  // Append the delta-fragment part of the range.
  const ColumnData& dcol = delta.columns[column_index];
  size_t delta_begin = row_begin > main_rows ? row_begin - main_rows : 0;
  size_t delta_end = row_end > main_rows ? row_end - main_rows : 0;
  for (size_t r = delta_begin; r < delta_end; ++r) {
    out.AppendFrom(dcol, r);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// TableSnapshot

bool TableSnapshot::AllVisible(size_t row_begin, size_t row_end) const {
  const size_t m = version->main_rows;
  if (!main_end.empty()) {
    const size_t me = std::min(row_end, m);
    for (size_t r = std::min(row_begin, m); r < me; ++r) {
      if (EndHides(main_end[r], snap)) return false;
    }
  }
  for (size_t r = std::max(row_begin, m); r < row_end; ++r) {
    const size_t d = r - m;
    if (!RowVisible(delta_begin[d], delta_end[d], snap)) return false;
  }
  return true;
}

void TableSnapshot::VisibleRows(size_t row_begin, size_t row_end,
                                SelectionVector* out) const {
  const size_t m = version->main_rows;
  const size_t me = std::min(row_end, m);
  for (size_t r = std::min(row_begin, m); r < me; ++r) {
    if (main_end.empty() || !EndHides(main_end[r], snap)) {
      out->push_back(static_cast<uint32_t>(r - row_begin));
    }
  }
  for (size_t r = std::max(row_begin, m); r < row_end; ++r) {
    const size_t d = r - m;
    if (RowVisible(delta_begin[d], delta_end[d], snap)) {
      out->push_back(static_cast<uint32_t>(r - row_begin));
    }
  }
}

ColumnData TableSnapshot::ScanColumnRange(size_t column_index,
                                          size_t row_begin,
                                          size_t row_end) const {
  return ScanRangeImpl(*schema, *version, delta, column_index, row_begin,
                       row_end);
}

// ---------------------------------------------------------------------------
// Table

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  auto ver = std::make_shared<TableVersion>();
  ver->main.resize(schema_.NumColumns());
  delta_.names.reserve(schema_.NumColumns());
  delta_.columns.reserve(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    const ColumnDef& col = schema_.column(c);
    delta_.names.push_back(col.name);
    delta_.columns.emplace_back(col.type);
    if (col.type.id == TypeId::kString) {
      ver->main[c].dictionary = MainColumn::EmptyDictionary();
    }
  }
  main_version_ = std::move(ver);
}

size_t Table::NumRows() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return NumRowsLocked();
}

size_t Table::NumMainRows() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return main_version_->main_rows;
}

size_t Table::NumDeltaRows() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return delta_.NumRows();
}

Status Table::CheckRow(const std::vector<Value>& row) const {
  for (size_t i = 0; i < schema_.NumColumns(); ++i) {
    const ColumnDef& col = schema_.column(i);
    if (row[i].is_null() && !col.nullable) {
      return Status::ConstraintViolation("NULL in NOT NULL column " +
                                         col.name + " of " + schema_.name());
    }
  }
  return Status::OK();
}

std::string Table::SerializeKey(const UniqueKeyDef& key,
                                const std::vector<Value>& row) const {
  std::string out;
  for (const std::string& kc : key.columns) {
    int idx = schema_.FindColumn(kc);
    VDM_CHECK(idx >= 0);
    out += row[static_cast<size_t>(idx)].ToString();
    out += '\x1f';
  }
  return out;
}

void Table::BuildKeySets() {
  key_sets_.clear();
  size_t enforced = 0;
  for (const UniqueKeyDef& key : schema_.unique_keys()) {
    if (key.enforced) ++enforced;
  }
  key_sets_.resize(enforced);
  // Replay the rows visible in the latest committed state: physically
  // deleted / aborted rows must not block a key from being reused.
  const TxnSnapshot latest;
  const size_t m = main_version_->main_rows;
  const size_t n = NumRowsLocked();
  std::vector<ColumnData> all;
  all.reserve(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    ColumnData col = ScanRangeLocked(c, 0, n);
    col.EnsureDecoded();
    all.push_back(std::move(col));
  }
  for (size_t r = 0; r < n; ++r) {
    const bool visible =
        r < m ? (main_end_.empty() || !EndHides(main_end_[r], latest))
              : RowVisible(delta_begin_[r - m], delta_end_[r - m], latest);
    if (!visible) continue;
    std::vector<Value> row;
    row.reserve(all.size());
    for (const ColumnData& col : all) row.push_back(col.GetValue(r));
    size_t ki = 0;
    for (const UniqueKeyDef& key : schema_.unique_keys()) {
      if (!key.enforced) continue;
      key_sets_[ki][SerializeKey(key, row)] = r;
      ++ki;
    }
  }
  key_sets_built_ = true;
}

Status Table::AppendRowLocked(const std::vector<Value>& row, uint64_t begin,
                              std::vector<WriteOp>* ops) {
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu != schema arity %zu for table %s", row.size(),
                  schema_.NumColumns(), schema_.name().c_str()));
  }
  if (enforce_constraints_) {
    VDM_RETURN_NOT_OK(CheckRow(row));
    if (!key_sets_built_) BuildKeySets();
    size_t ki = 0;
    for (const UniqueKeyDef& key : schema_.unique_keys()) {
      if (!key.enforced) continue;
      std::string serialized = SerializeKey(key, row);
      auto [it, inserted] = key_sets_[ki].emplace(serialized, NumRowsLocked());
      if (!inserted) {
        return Status::ConstraintViolation("duplicate key in table " +
                                           schema_.name());
      }
      ++ki;
    }
  }
  const size_t delta_row = delta_.NumRows();
  for (size_t i = 0; i < row.size(); ++i) {
    delta_.columns[i].AppendValue(row[i]);
  }
  delta_begin_.push_back(begin);
  delta_end_.push_back(kInfinity);
  if (ops != nullptr) {
    ops->push_back(WriteOp{/*in_main=*/false, delta_row, /*is_insert=*/true});
  }
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& row) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return AppendRowLocked(row, /*begin=*/0, /*ops=*/nullptr);
}

Status Table::InsertRowTxn(const std::vector<Value>& row,
                           uint64_t begin_marker, std::vector<WriteOp>* ops) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return AppendRowLocked(row, begin_marker, ops);
}

Result<size_t> Table::Mutate(const TxnSnapshot& snap, uint64_t marker,
                             const MutationFn& fn, std::vector<WriteOp>* ops) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  const size_t n = NumRowsLocked();
  const size_t m = main_version_->main_rows;
  // Physical indexes of the rows this statement can see.
  SelectionVector phys;
  for (size_t r = 0; r < n; ++r) {
    const bool visible =
        r < m ? (main_end_.empty() || !EndHides(main_end_[r], snap))
              : RowVisible(delta_begin_[r - m], delta_end_[r - m], snap);
    if (visible) phys.push_back(static_cast<uint32_t>(r));
  }
  Chunk visible;
  visible.names.reserve(schema_.NumColumns());
  visible.columns.reserve(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    visible.names.push_back(schema_.column(c).name);
    ColumnData col = ScanRangeLocked(c, 0, n);
    if (phys.size() != n) col = col.Gather(phys);
    col.EnsureDecoded();
    visible.columns.push_back(std::move(col));
  }
  VDM_ASSIGN_OR_RETURN(MutationPlan plan, fn(visible));
  if (!plan.replacements.empty() &&
      plan.replacements.size() != plan.selected.size()) {
    return Status::Internal("mutation plan: replacement/selection mismatch");
  }
  // First pass: stamp every target's end marker. A target whose end is no
  // longer kInfinity was deleted by a concurrent transaction (its own
  // uncommitted delete would have hidden the row from `snap`), so revert
  // this statement's stamps and fail — first-updater-wins.
  std::vector<std::pair<bool, size_t>> stamped;
  stamped.reserve(plan.selected.size());
  for (uint32_t li : plan.selected) {
    VDM_CHECK(li < phys.size());
    const size_t p = phys[li];
    const bool in_main = p < m;
    uint64_t* slot;
    if (in_main) {
      if (main_end_.empty()) main_end_.assign(m, kInfinity);
      slot = &main_end_[p];
    } else {
      slot = &delta_end_[p - m];
    }
    if (*slot != kInfinity) {
      for (const auto& [was_main, row] : stamped) {
        (was_main ? main_end_[row] : delta_end_[row]) = kInfinity;
      }
      return Status::SerializationFailure(
          "row concurrently updated in table " + schema_.name());
    }
    *slot = marker;
    stamped.emplace_back(in_main, in_main ? p : p - m);
  }
  if (ops != nullptr) {
    for (const auto& [in_main, row] : stamped) {
      ops->push_back(WriteOp{in_main, row, /*is_insert=*/false});
    }
  }
  // Second pass: append replacement rows (UPDATE). Appends cannot fail, so
  // the statement is all-or-nothing.
  for (const std::vector<Value>& row : plan.replacements) {
    VDM_CHECK(row.size() == schema_.NumColumns());
    const size_t delta_row = delta_.NumRows();
    for (size_t c = 0; c < row.size(); ++c) {
      delta_.columns[c].AppendValue(row[c]);
    }
    delta_begin_.push_back(marker);
    delta_end_.push_back(kInfinity);
    if (ops != nullptr) {
      ops->push_back(WriteOp{/*in_main=*/false, delta_row,
                             /*is_insert=*/true});
    }
  }
  if (!plan.selected.empty()) {
    key_sets_built_ = false;
    version_.fetch_add(1, std::memory_order_release);
  }
  return plan.selected.size();
}

void Table::FinalizeWrites(const std::vector<WriteOp>& ops,
                           uint64_t commit_ts) {
  if (ops.empty()) return;
  std::unique_lock<std::shared_mutex> lk(mu_);
  for (const WriteOp& op : ops) {
    if (op.is_insert) {
      delta_begin_[op.row] = commit_ts;
    } else if (op.in_main) {
      main_end_[op.row] = commit_ts;
    } else {
      delta_end_[op.row] = commit_ts;
    }
  }
  key_sets_built_ = false;
  version_.fetch_add(1, std::memory_order_release);
}

void Table::AbortWrites(const std::vector<WriteOp>& ops) {
  if (ops.empty()) return;
  std::unique_lock<std::shared_mutex> lk(mu_);
  for (const WriteOp& op : ops) {
    if (op.is_insert) {
      delta_begin_[op.row] = kNeverVisible;
    } else if (op.in_main) {
      main_end_[op.row] = kInfinity;
    } else {
      delta_end_[op.row] = kInfinity;
    }
  }
  key_sets_built_ = false;
  version_.fetch_add(1, std::memory_order_release);
}

TableSnapshot Table::PinSnapshot(const TxnSnapshot& snap) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  TableSnapshot out;
  out.version = main_version_;
  out.delta = delta_;
  out.delta_begin = delta_begin_;
  out.delta_end = delta_end_;
  out.main_end = main_end_;
  out.snap = snap;
  out.schema = &schema_;
  return out;
}

Status Table::MergeDeltaMvcc(const MergeOptions& opts) {
  // Phase 1 — prepare: pin the current version and copy the delta plus all
  // stamps under the shared lock. Everything below reads only the copies.
  std::shared_ptr<const TableVersion> base;
  Chunk delta;
  std::vector<uint64_t> dbegin, dend, mend;
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    base = main_version_;
    delta = delta_;
    dbegin = delta_begin_;
    dend = delta_end_;
    mend = main_end_;
  }
  const uint64_t wm = opts.watermark;
  const size_t base_main = base->main_rows;
  const size_t base_delta = delta.NumRows();
  bool purgeable_main = false;
  for (uint64_t e : mend) {
    if (CommittedAtOrBelow(e, wm)) {
      purgeable_main = true;
      break;
    }
  }
  if (base_delta == 0 && !purgeable_main) return Status::OK();
  if (opts.check_alive) VDM_RETURN_NOT_OK(opts.check_alive());

  // Phase 2 — build (no lock): classify every row, then assemble a fresh
  // TableVersion. Main rows survive unless their deletion committed at or
  // below the watermark. Delta rows fold into the new main when their
  // insertion committed at or below the watermark (so every snapshot that
  // can pin the new version is guaranteed to see them begin-visible),
  // stay in the delta when in-flight or too new, and are purged when both
  // their birth and death are below the watermark or their inserting
  // transaction aborted.
  enum : uint8_t { kDrop = 0, kFold = 1, kKeepDelta = 2 };
  std::vector<uint8_t> main_keep(base_main, 1);
  size_t kept_main = 0;
  for (size_t r = 0; r < base_main; ++r) {
    if (!mend.empty() && CommittedAtOrBelow(mend[r], wm)) {
      main_keep[r] = 0;
    } else {
      ++kept_main;
    }
  }
  std::vector<uint8_t> delta_kind(base_delta, kKeepDelta);
  size_t fold_count = 0;
  for (size_t r = 0; r < base_delta; ++r) {
    const uint64_t b = dbegin[r];
    if (b == kNeverVisible) {
      delta_kind[r] = kDrop;
    } else if ((b & kTxnFlag) != 0 || b > wm) {
      delta_kind[r] = kKeepDelta;
    } else if (CommittedAtOrBelow(dend[r], wm)) {
      delta_kind[r] = kDrop;
    } else {
      delta_kind[r] = kFold;
      ++fold_count;
    }
  }
  // Output order: surviving main rows, then folded delta rows, each in
  // their original order (so the legacy full fold is order-identical to
  // the pre-MVCC MergeDelta).
  struct SrcRow {
    uint32_t row;
    bool from_delta;
  };
  std::vector<SrcRow> src;
  src.reserve(kept_main + fold_count);
  for (size_t r = 0; r < base_main; ++r) {
    if (main_keep[r]) src.push_back({static_cast<uint32_t>(r), false});
  }
  for (size_t r = 0; r < base_delta; ++r) {
    if (delta_kind[r] == kFold) src.push_back({static_cast<uint32_t>(r), true});
  }

  if (opts.inject_faults) VDM_FAULT_POINT("storage.merge.remap");

  auto next = std::make_shared<TableVersion>();
  next->main_rows = src.size();
  next->main.resize(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    if (opts.check_alive) VDM_RETURN_NOT_OK(opts.check_alive());
    const MainColumn& old_main = base->main[c];
    const ColumnData& dcol = delta.columns[c];
    const DataType& type = schema_.column(c).type;
    MainColumn& out = next->main[c];
    std::vector<uint8_t> validity(src.size(), 1);
    bool any_null = false;
    if (type.id == TypeId::kString) {
      // Rebuild the dictionary from *surviving* rows only: purged rows
      // no longer pin their strings, so the dictionary size is once again
      // an exact distinct count for the main fragment. The surviving old
      // codes enumerate their strings in sorted order, so one set_union
      // with the sorted incoming strings yields the new dictionary, one
      // forward walk the old→new remap.
      const std::vector<std::string>& old_dict = *old_main.dictionary;
      std::vector<uint8_t> used(old_dict.size(), 0);
      for (size_t r = 0; r < base_main; ++r) {
        if (main_keep[r] && old_main.codes[r] != MainColumn::kNullCode) {
          used[old_main.codes[r]] = 1;
        }
      }
      std::vector<std::string> used_strings;
      for (size_t i = 0; i < old_dict.size(); ++i) {
        if (used[i]) used_strings.push_back(old_dict[i]);
      }
      std::vector<std::string> incoming;
      for (size_t r = 0; r < base_delta; ++r) {
        if (delta_kind[r] == kFold && !dcol.IsNull(r)) {
          incoming.push_back(dcol.StringAt(r));
        }
      }
      std::sort(incoming.begin(), incoming.end());
      incoming.erase(std::unique(incoming.begin(), incoming.end()),
                     incoming.end());
      auto merged = std::make_shared<std::vector<std::string>>();
      merged->reserve(used_strings.size() + incoming.size());
      std::set_union(used_strings.begin(), used_strings.end(),
                     incoming.begin(), incoming.end(),
                     std::back_inserter(*merged));
      std::vector<uint32_t> remap(old_dict.size(), MainColumn::kNullCode);
      size_t j = 0;
      for (size_t i = 0; i < old_dict.size(); ++i) {
        if (!used[i]) continue;
        while ((*merged)[j] != old_dict[i]) ++j;
        remap[i] = static_cast<uint32_t>(j);
      }
      out.codes.reserve(src.size());
      for (size_t i = 0; i < src.size(); ++i) {
        const SrcRow& s = src[i];
        if (!s.from_delta) {
          const uint32_t code = old_main.codes[s.row];
          if (code == MainColumn::kNullCode) {
            out.codes.push_back(MainColumn::kNullCode);
            validity[i] = 0;
            any_null = true;
          } else {
            out.codes.push_back(remap[code]);
          }
        } else if (dcol.IsNull(s.row)) {
          out.codes.push_back(MainColumn::kNullCode);
          validity[i] = 0;
          any_null = true;
        } else {
          auto it = std::lower_bound(merged->begin(), merged->end(),
                                     dcol.StringAt(s.row));
          out.codes.push_back(static_cast<uint32_t>(it - merged->begin()));
        }
      }
      out.dictionary = merged->empty()
                           ? MainColumn::EmptyDictionary()
                           : std::shared_ptr<const std::vector<std::string>>(
                                 std::move(merged));
#ifndef NDEBUG
      CheckSortedDictInvariants(out);
#endif
    } else if (type.id == TypeId::kDouble) {
      out.doubles.reserve(src.size());
      for (size_t i = 0; i < src.size(); ++i) {
        const SrcRow& s = src[i];
        if (!s.from_delta) {
          out.doubles.push_back(old_main.doubles[s.row]);
          if (!old_main.validity.empty() && old_main.validity[s.row] == 0) {
            validity[i] = 0;
            any_null = true;
          }
        } else if (dcol.IsNull(s.row)) {
          out.doubles.push_back(0.0);
          validity[i] = 0;
          any_null = true;
        } else {
          out.doubles.push_back(dcol.doubles()[s.row]);
        }
      }
    } else {
      out.ints.reserve(src.size());
      for (size_t i = 0; i < src.size(); ++i) {
        const SrcRow& s = src[i];
        if (!s.from_delta) {
          out.ints.push_back(old_main.ints[s.row]);
          if (!old_main.validity.empty() && old_main.validity[s.row] == 0) {
            validity[i] = 0;
            any_null = true;
          }
        } else if (dcol.IsNull(s.row)) {
          out.ints.push_back(0);
          validity[i] = 0;
          any_null = true;
        } else {
          out.ints.push_back(dcol.ints()[s.row]);
        }
      }
    }
    if (any_null) out.validity = std::move(validity);
  }

  // Phase 3 — install, under the unique lock. The pinned version must
  // still be current (otherwise another merge won) and no transaction may
  // hold uncommitted writes on this table (write sets reference raw row
  // positions that installation would remap). Both conditions surface as
  // retryable kResourceExhausted; nothing has been published yet, so a
  // failed install leaves the table exactly as it was.
  std::unique_lock<std::shared_mutex> lk(mu_);
  if (main_version_ != base) {
    return Status::ResourceExhausted("merge: a concurrent merge installed");
  }
  if (opts.has_active_writers && opts.has_active_writers()) {
    return Status::ResourceExhausted("merge: active writers on table " +
                                     schema_.name());
  }
  if (opts.inject_faults) VDM_FAULT_POINT("storage.merge.abort");
  // Re-read the CURRENT end stamp of every surviving row: a transaction
  // that committed between prepare and install may have stamped deletions
  // the prepared copies predate. (Row positions are stable: appends only
  // grow the delta, and no other merge installed.)
  std::vector<uint64_t> new_main_end;
  for (size_t i = 0; i < src.size(); ++i) {
    const SrcRow& s = src[i];
    const uint64_t cur = s.from_delta
                             ? delta_end_[s.row]
                             : (main_end_.empty() ? kInfinity
                                                  : main_end_[s.row]);
    if (cur != kInfinity) {
      if (new_main_end.empty()) new_main_end.assign(src.size(), kInfinity);
      new_main_end[i] = cur;
    }
  }
  // Rebuild the delta: rows classified keep-in-delta (original order, with
  // their current stamps — an in-flight begin seen at prepare may have
  // committed since), then rows appended after the prepare copy was taken.
  Chunk new_delta;
  new_delta.names = delta_.names;
  new_delta.columns.reserve(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    new_delta.columns.emplace_back(schema_.column(c).type);
  }
  std::vector<uint64_t> new_dbegin, new_dend;
  auto carry_row = [&](size_t r) {
    for (size_t c = 0; c < schema_.NumColumns(); ++c) {
      new_delta.columns[c].AppendFrom(delta_.columns[c], r);
    }
    new_dbegin.push_back(delta_begin_[r]);
    new_dend.push_back(delta_end_[r]);
  };
  for (size_t r = 0; r < base_delta; ++r) {
    if (delta_kind[r] == kKeepDelta) carry_row(r);
  }
  for (size_t r = base_delta; r < delta_.NumRows(); ++r) {
    carry_row(r);
  }
  // Publish.
  main_version_ = std::move(next);
  delta_ = std::move(new_delta);
  delta_begin_ = std::move(new_dbegin);
  delta_end_ = std::move(new_dend);
  main_end_ = std::move(new_main_end);
  key_sets_built_ = false;
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

void Table::MergeDelta() {
  MergeOptions opts;
  opts.watermark = kMaxTs;
  opts.inject_faults = false;
  const Status st = MergeDeltaMvcc(opts);
  // The synchronous path has no concurrent writers or merges and no fault
  // points, so installation cannot fail.
  VDM_CHECK(st.ok());
}

ColumnData Table::ScanColumn(size_t column_index) const {
  // The convenience full-column API stays eager: callers outside the
  // executor (tests, verifiers, the reference interpreter) read strings()
  // directly.
  ColumnData out;
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    out = ScanRangeLocked(column_index, 0, NumRowsLocked());
  }
  out.EnsureDecoded();
  return out;
}

ColumnData Table::ScanColumnRange(size_t column_index, size_t row_begin,
                                  size_t row_end) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return ScanRangeLocked(column_index, row_begin, row_end);
}

ColumnData Table::ScanRangeLocked(size_t column_index, size_t row_begin,
                                  size_t row_end) const {
  return ScanRangeImpl(schema_, *main_version_, delta_, column_index,
                       row_begin, row_end);
}

Result<Chunk> Table::Scan(const std::vector<std::string>& column_names) const {
  Chunk out;
  if (column_names.empty()) {
    for (size_t c = 0; c < schema_.NumColumns(); ++c) {
      out.names.push_back(schema_.column(c).name);
      out.columns.push_back(ScanColumn(c));
    }
    return out;
  }
  for (const std::string& name : column_names) {
    int idx = schema_.FindColumn(name);
    if (idx < 0) {
      return Status::NotFound("column " + name + " not in table " +
                              schema_.name());
    }
    out.names.push_back(schema_.column(static_cast<size_t>(idx)).name);
    out.columns.push_back(ScanColumn(static_cast<size_t>(idx)));
  }
  return out;
}

Result<Chunk> Table::ScanVisible(const std::vector<std::string>& column_names,
                                 const TxnSnapshot& snap) const {
  const TableSnapshot ts = PinSnapshot(snap);
  const size_t n = ts.NumRows();
  SelectionVector sel;
  ts.VisibleRows(0, n, &sel);
  const bool all = sel.size() == n;
  std::vector<size_t> indexes;
  Chunk out;
  if (column_names.empty()) {
    for (size_t c = 0; c < schema_.NumColumns(); ++c) indexes.push_back(c);
  } else {
    for (const std::string& name : column_names) {
      int idx = schema_.FindColumn(name);
      if (idx < 0) {
        return Status::NotFound("column " + name + " not in table " +
                                schema_.name());
      }
      indexes.push_back(static_cast<size_t>(idx));
    }
  }
  for (size_t idx : indexes) {
    out.names.push_back(schema_.column(idx).name);
    ColumnData col = ts.ScanColumnRange(idx, 0, n);
    if (!all) col = col.Gather(sel);
    col.EnsureDecoded();
    out.columns.push_back(std::move(col));
  }
  return out;
}

Result<bool> Table::VerifyUnique(
    const std::vector<std::string>& columns) const {
  // Verify against the latest committed state: physically present but
  // deleted / aborted rows must not produce phantom duplicates.
  VDM_ASSIGN_OR_RETURN(Chunk chunk, ScanVisible(columns, TxnSnapshot()));
  std::unordered_map<std::string, size_t> seen;
  const size_t n = chunk.NumRows();
  seen.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    std::string key;
    for (const ColumnData& col : chunk.columns) {
      key += col.GetValue(r).ToString();
      key += '\x1f';
    }
    auto [it, inserted] = seen.emplace(std::move(key), r);
    if (!inserted) return false;
  }
  return true;
}

Status StorageManager::CreateTable(TableSchema schema) {
  VDM_RETURN_NOT_OK(schema.Validate());
  std::string key = ToLower(schema.name());
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table already exists: " + schema.name());
  }
  tables_.emplace(std::move(key), std::make_unique<Table>(std::move(schema)));
  return Status::OK();
}

Table* StorageManager::FindTable(const std::string& name) {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* StorageManager::FindTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Status StorageManager::DropTable(const std::string& name) {
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("table not found: " + name);
  }
  return Status::OK();
}

}  // namespace vdm

// ColumnData: a materialized column vector with validity (null) tracking.
// This is the unit of data flow in the executor: every operator consumes and
// produces vectors of ColumnData.
#ifndef VDMQO_TYPES_COLUMN_H_
#define VDMQO_TYPES_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "types/type.h"
#include "types/value.h"

namespace vdm {

/// Row indexes into a column (the morsel-driven executor's alternative to
/// materializing filtered or joined intermediates). 32-bit on purpose:
/// chunks stay below 2^32 rows, and half-width indexes keep selection
/// vectors in cache. ColumnData::kInvalidIndex marks a NULL row.
using SelectionVector = std::vector<uint32_t>;

class ColumnData {
 public:
  ColumnData() : type_(DataType::Int64()) {}
  explicit ColumnData(DataType type) : type_(type) {}

  const DataType& type() const { return type_; }
  size_t size() const { return size_; }

  void Reserve(size_t n);

  /// Raw storage accessors. Integer-backed types (bool/int64/decimal/date)
  /// use ints(); double uses doubles(); string uses strings(). strings()
  /// requires a decoded column — call StringAt() (or EnsureDecoded()) on
  /// columns that may be lazy.
  std::vector<int64_t>& ints() { return ints_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  std::vector<double>& doubles() { return doubles_; }
  const std::vector<double>& doubles() const { return doubles_; }
  std::vector<std::string>& strings() {
    VDM_DCHECK(!lazy_);
    return strings_;
  }
  const std::vector<std::string>& strings() const {
    VDM_DCHECK(!lazy_);
    return strings_;
  }

  /// Reads one string element regardless of representation: the decoded
  /// strings() slot, or a dictionary lookup on a lazy column. NULL rows
  /// read as "" either way (the eager layout leaves an empty slot).
  /// Thread-safe — never materializes.
  const std::string& StringAt(size_t i) const {
    VDM_DCHECK(i < size_ && type_.id == TypeId::kString);
    if (!lazy_) return strings_[i];
    const int32_t c = dict_codes_[i];
    return c < 0 ? EmptyStringSlot() : (*dict_)[static_cast<size_t>(c)];
  }

  bool IsNull(size_t i) const {
    VDM_DCHECK(i < size_);
    return !validity_.empty() && validity_[i] == 0;
  }
  bool HasNulls() const { return !validity_.empty(); }
  /// 1 = valid, 0 = NULL per row; empty when no row is NULL.
  const std::vector<uint8_t>& validity() const { return validity_; }

  /// Appends a raw non-null integer-backed value.
  void AppendInt(int64_t v) {
    VDM_DCHECK(type_.IsIntegerBacked());
    InvalidateDict();
    ints_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
    ++size_;
  }
  void AppendDouble(double v) {
    VDM_DCHECK(type_.id == TypeId::kDouble);
    doubles_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
    ++size_;
  }
  void AppendString(std::string v) {
    VDM_DCHECK(type_.id == TypeId::kString);
    InvalidateDict();
    strings_.push_back(std::move(v));
    if (!validity_.empty()) validity_.push_back(1);
    ++size_;
  }
  /// Appends a NULL (materializing the validity vector lazily).
  void AppendNull();

  /// Appends any Value of a compatible type (slow path; tests/builders).
  void AppendValue(const Value& v);

  /// Reads element i as a Value (slow path; tests/printing/grouping).
  Value GetValue(size_t i) const;

  /// Appends element i of other (same type) to this column.
  void AppendFrom(const ColumnData& other, size_t i);

  /// Gathers rows by index into a new column; index kInvalidIndex appends
  /// NULL (the null-extended side of outer joins). Preserves the
  /// shared-dictionary annotation, and a lazy column stays lazy.
  static constexpr uint32_t kInvalidIndex = 0xFFFFFFFFu;
  ColumnData Gather(const SelectionVector& rows) const;

  /// Appends every row of `other` (same type), stealing its string
  /// storage. `other` is left empty.
  void AppendColumn(ColumnData&& other);

  /// A column of n NULLs of the given type.
  static ColumnData Nulls(DataType type, size_t n);

  // -------------------------------------------------------------------
  // Shared-dictionary annotation (string columns only).
  //
  // Storage scans of the dictionary-compressed main fragment attach the
  // fragment's dictionary plus per-row codes. Two columns whose `dict()`
  // pointers compare equal encode equal strings as equal codes, which
  // lets hash joins and group-bys run on 32-bit codes instead of strings
  // (the paper's augmentation self-joins always hit this path). The
  // annotation is advisory: `strings()` stays fully materialized, and
  // any mutation drops the annotation.

  // -------------------------------------------------------------------
  // Late materialization (string columns only).
  //
  // A *lazy* string column carries only the dictionary annotation — codes
  // plus the shared dictionary — and leaves strings() empty. Storage scans
  // of the compressed main fragment produce lazy columns; gathers and
  // same-dictionary concatenations stay lazy, so strings flow through
  // filters, joins, and LIMIT as 32-bit codes. EnsureDecoded() pays the
  // per-row dictionary copy exactly once, for rows that survived.

  bool is_lazy() const { return lazy_; }
  /// Builds a lazy column: size/validity derive from `codes` (negative =
  /// NULL). `dict` must be non-null.
  static ColumnData LazyStrings(
      DataType type, std::shared_ptr<const std::vector<std::string>> dict,
      std::vector<int32_t> codes);
  /// Materializes strings() on a lazy column (keeps the dictionary
  /// annotation). Returns the number of rows decoded (0 when already
  /// decoded — the executor's rows_decoded metric sums this).
  size_t EnsureDecoded();

  /// Wraps pre-gathered raw storage (the compressed pipeline's typed
  /// gather kernels write flat vectors). Empty `validity` = all valid.
  static ColumnData TakeInts(DataType type, std::vector<int64_t> vals,
                             std::vector<uint8_t> validity = {});
  static ColumnData TakeDoubles(DataType type, std::vector<double> vals,
                                std::vector<uint8_t> validity = {});

  bool has_dict() const { return dict_ != nullptr; }
  const std::shared_ptr<const std::vector<std::string>>& dict() const {
    return dict_;
  }
  /// Per-row dictionary codes; -1 encodes NULL. Aligned with size().
  const std::vector<int32_t>& dict_codes() const { return dict_codes_; }
  /// Attaches a dictionary annotation; codes.size() must equal size().
  void SetDictionary(std::shared_ptr<const std::vector<std::string>> dict,
                     std::vector<int32_t> codes) {
    VDM_DCHECK(codes.size() == size_);
    dict_ = std::move(dict);
    dict_codes_ = std::move(codes);
  }

 private:
  void EnsureValidity() {
    if (validity_.empty()) validity_.assign(size_, 1);
  }
  void InvalidateDict() {
    // Appending to a lazy column would desynchronize codes and strings;
    // decode first (executor paths never hit this).
    VDM_DCHECK(!lazy_);
    if (dict_ != nullptr) {
      dict_.reset();
      dict_codes_.clear();
    }
  }
  static const std::string& EmptyStringSlot();

  DataType type_;
  size_t size_ = 0;
  bool lazy_ = false;  // strings_ deferred; dict_ + dict_codes_ authoritative
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  // Empty means "all valid"; otherwise 1 = valid, 0 = null.
  std::vector<uint8_t> validity_;
  // Optional shared-dictionary annotation; see accessors above.
  std::shared_ptr<const std::vector<std::string>> dict_;
  std::vector<int32_t> dict_codes_;
};

/// A batch of equal-length columns: the executor's table representation.
struct Chunk {
  std::vector<std::string> names;
  std::vector<ColumnData> columns;

  size_t NumRows() const { return columns.empty() ? 0 : columns[0].size(); }
  size_t NumColumns() const { return columns.size(); }

  /// Index of a column by name; returns -1 if absent.
  int FindColumn(const std::string& name) const;

  /// Renders the chunk as an aligned text table (debugging/examples).
  std::string ToString(size_t max_rows = 20) const;
};

}  // namespace vdm

#endif  // VDMQO_TYPES_COLUMN_H_

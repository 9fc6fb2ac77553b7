#include "types/column.h"

#include <algorithm>

#include "common/string_util.h"

namespace vdm {

void ColumnData::Reserve(size_t n) {
  if (type_.id == TypeId::kString) {
    strings_.reserve(n);
  } else if (type_.id == TypeId::kDouble) {
    doubles_.reserve(n);
  } else {
    ints_.reserve(n);
  }
}

void ColumnData::AppendNull() {
  EnsureValidity();
  InvalidateDict();
  if (type_.id == TypeId::kString) {
    strings_.emplace_back();
  } else if (type_.id == TypeId::kDouble) {
    doubles_.push_back(0.0);
  } else {
    ints_.push_back(0);
  }
  validity_.push_back(0);
  ++size_;
}

void ColumnData::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_.id) {
    case TypeId::kBool:
      AppendInt(v.AsBool() ? 1 : 0);
      break;
    case TypeId::kInt64:
    case TypeId::kDate:
      AppendInt(v.AsInt64());
      break;
    case TypeId::kDecimal:
      if (v.type().id == TypeId::kDecimal) {
        VDM_DCHECK(v.type().scale == type_.scale);
        AppendInt(v.AsUnscaled());
      } else {
        // Promote integers to this decimal's scale.
        AppendInt(v.AsInt64() * DecimalPow10(type_.scale));
      }
      break;
    case TypeId::kDouble:
      AppendDouble(v.ToDouble());
      break;
    case TypeId::kString:
      AppendString(v.AsString());
      break;
  }
}

Value ColumnData::GetValue(size_t i) const {
  VDM_DCHECK(i < size_);
  if (IsNull(i)) return Value::Null();
  switch (type_.id) {
    case TypeId::kBool:
      return Value::Bool(ints_[i] != 0);
    case TypeId::kInt64:
      return Value::Int64(ints_[i]);
    case TypeId::kDouble:
      return Value::Double(doubles_[i]);
    case TypeId::kDecimal:
      return Value::Decimal(ints_[i], type_.scale);
    case TypeId::kString:
      return Value::String(StringAt(i));
    case TypeId::kDate:
      return Value::Date(ints_[i]);
  }
  return Value::Null();
}

void ColumnData::AppendFrom(const ColumnData& other, size_t i) {
  VDM_DCHECK(type_.id == other.type_.id);
  if (other.IsNull(i)) {
    AppendNull();
    return;
  }
  if (type_.id == TypeId::kString) {
    AppendString(other.StringAt(i));
  } else if (type_.id == TypeId::kDouble) {
    AppendDouble(other.doubles_[i]);
  } else {
    AppendInt(other.ints_[i]);
  }
}

ColumnData ColumnData::Gather(const SelectionVector& rows) const {
  ColumnData out(type_);
  const size_t m = rows.size();
  // NULL rows (including kInvalidIndex) leave the zero-initialized value
  // slot in place, exactly as the append path would.
  auto null_at = [&](size_t i) {
    const uint32_t idx = rows[i];
    if (idx != kInvalidIndex && !IsNull(idx)) return false;
    if (out.validity_.empty()) out.validity_.assign(m, 1);
    out.validity_[i] = 0;
    return true;
  };
  if (type_.id == TypeId::kString && lazy_) {
    // Lazy columns gather codes only; the strings stay in the dictionary.
    for (size_t i = 0; i < m; ++i) null_at(i);
  } else if (type_.id == TypeId::kString) {
    out.strings_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      if (!null_at(i)) out.strings_[i] = strings_[rows[i]];
    }
  } else if (type_.id == TypeId::kDouble) {
    out.doubles_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      if (!null_at(i)) out.doubles_[i] = doubles_[rows[i]];
    }
  } else {
    out.ints_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      if (!null_at(i)) out.ints_[i] = ints_[rows[i]];
    }
  }
  out.size_ = m;
  if (dict_ != nullptr) {
    std::vector<int32_t> codes(m);
    for (size_t i = 0; i < m; ++i) {
      codes[i] = rows[i] == kInvalidIndex ? -1 : dict_codes_[rows[i]];
    }
    out.SetDictionary(dict_, std::move(codes));
    out.lazy_ = lazy_;
  }
  return out;
}

void ColumnData::AppendColumn(ColumnData&& other) {
  VDM_DCHECK(type_.id == other.type_.id);
  if (size_ == 0) {
    // Wholesale adoption keeps other's representation (including lazy);
    // this column's declared type (e.g. decimal scale) wins.
    const DataType t = type_;
    const DataType ot = other.type_;
    *this = std::move(other);
    type_ = t;
    other = ColumnData(ot);
    return;
  }
  // Mixed lazy/eager pieces (or different dictionaries) decode first;
  // morsels of one storage scan share a dictionary and stay lazy.
  const bool both_lazy = lazy_ && other.lazy_ && dict_ == other.dict_;
  if (!both_lazy) {
    EnsureDecoded();
    other.EnsureDecoded();
  }
  // Dictionary annotation survives concatenation only when every piece
  // shares the same dictionary (morsels of one storage scan do).
  bool keep_dict =
      other.dict_ != nullptr && (size_ == 0 || dict_ == other.dict_);
  std::vector<int32_t> merged_codes;
  if (keep_dict) {
    merged_codes = std::move(dict_codes_);
    merged_codes.insert(merged_codes.end(), other.dict_codes_.begin(),
                        other.dict_codes_.end());
  }
  if (!validity_.empty() || other.HasNulls()) {
    EnsureValidity();
    if (other.validity_.empty()) {
      validity_.insert(validity_.end(), other.size_, 1);
    } else {
      validity_.insert(validity_.end(), other.validity_.begin(),
                       other.validity_.end());
    }
  }
  if (type_.id == TypeId::kString) {
    strings_.insert(strings_.end(),
                    std::make_move_iterator(other.strings_.begin()),
                    std::make_move_iterator(other.strings_.end()));
  } else if (type_.id == TypeId::kDouble) {
    doubles_.insert(doubles_.end(), other.doubles_.begin(),
                    other.doubles_.end());
  } else {
    ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
  }
  size_ += other.size_;
  if (keep_dict) {
    dict_ = other.dict_;
    dict_codes_ = std::move(merged_codes);
  } else {
    InvalidateDict();
  }
  other = ColumnData(other.type_);
}

ColumnData ColumnData::LazyStrings(
    DataType type, std::shared_ptr<const std::vector<std::string>> dict,
    std::vector<int32_t> codes) {
  VDM_DCHECK(type.id == TypeId::kString);
  VDM_DCHECK(dict != nullptr);
  ColumnData out(type);
  out.size_ = codes.size();
  bool any_null = false;
  for (int32_t c : codes) {
    if (c < 0) {
      any_null = true;
      break;
    }
  }
  if (any_null) {
    out.validity_.resize(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      out.validity_[i] = codes[i] >= 0 ? 1 : 0;
    }
  }
  out.dict_ = std::move(dict);
  out.dict_codes_ = std::move(codes);
  out.lazy_ = true;
  return out;
}

size_t ColumnData::EnsureDecoded() {
  if (!lazy_) return 0;
  strings_.resize(size_);
  const std::vector<std::string>& d = *dict_;
  for (size_t i = 0; i < size_; ++i) {
    const int32_t c = dict_codes_[i];
    if (c >= 0) strings_[i] = d[static_cast<size_t>(c)];
  }
  lazy_ = false;
  return size_;
}

ColumnData ColumnData::TakeInts(DataType type, std::vector<int64_t> vals,
                                std::vector<uint8_t> validity) {
  VDM_DCHECK(type.IsIntegerBacked());
  VDM_DCHECK(validity.empty() || validity.size() == vals.size());
  ColumnData out(type);
  out.size_ = vals.size();
  out.ints_ = std::move(vals);
  out.validity_ = std::move(validity);
  return out;
}

ColumnData ColumnData::TakeDoubles(DataType type, std::vector<double> vals,
                                   std::vector<uint8_t> validity) {
  VDM_DCHECK(type.id == TypeId::kDouble);
  VDM_DCHECK(validity.empty() || validity.size() == vals.size());
  ColumnData out(type);
  out.size_ = vals.size();
  out.doubles_ = std::move(vals);
  out.validity_ = std::move(validity);
  return out;
}

const std::string& ColumnData::EmptyStringSlot() {
  static const std::string kEmpty;
  return kEmpty;
}

ColumnData ColumnData::Nulls(DataType type, size_t n) {
  ColumnData out(type);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) out.AppendNull();
  return out;
}

int Chunk::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Chunk::ToString(size_t max_rows) const {
  std::vector<size_t> widths(names.size());
  size_t rows = std::min(NumRows(), max_rows);
  std::vector<std::vector<std::string>> cells(rows);
  for (size_t c = 0; c < names.size(); ++c) widths[c] = names[c].size();
  for (size_t r = 0; r < rows; ++r) {
    cells[r].resize(names.size());
    for (size_t c = 0; c < names.size(); ++c) {
      cells[r][c] = columns[c].GetValue(r).ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::string out;
  for (size_t c = 0; c < names.size(); ++c) {
    out += names[c];
    out.append(widths[c] - names[c].size() + 2, ' ');
  }
  out += "\n";
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < names.size(); ++c) {
      out += cells[r][c];
      out.append(widths[c] - cells[r][c].size() + 2, ' ');
    }
    out += "\n";
  }
  if (NumRows() > rows) {
    out += StrFormat("... (%zu rows total)\n", NumRows());
  }
  return out;
}

}  // namespace vdm

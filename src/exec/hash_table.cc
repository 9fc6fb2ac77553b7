#include "exec/hash_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/thread_pool.h"

namespace vdm {

namespace {

/// Charges `bytes` to `tracker` (when set), accumulating into *charged so
/// the owner can release everything on destruction.
Status ChargeTo(MemoryTracker* tracker, int64_t bytes, int64_t* charged) {
  if (tracker == nullptr || bytes <= 0) return Status::OK();
  VDM_RETURN_NOT_OK(tracker->TryCharge(bytes));
  *charged += bytes;
  return Status::OK();
}

}  // namespace

const char* KeyLayoutName(KeyLayout layout) {
  switch (layout) {
    case KeyLayout::kInt64:
      return "int64";
    case KeyLayout::kDict32:
      return "dict32";
    case KeyLayout::kPacked16:
      return "packed16";
    case KeyLayout::kSerialized:
      return "serialized";
  }
  return "?";
}

void AppendKeyBytes(const ColumnData& col, size_t row, std::string* out) {
  if (col.IsNull(row)) {
    out->push_back('\x00');
    return;
  }
  out->push_back('\x01');
  if (col.type().id == TypeId::kString) {
    const std::string& s = col.StringAt(row);
    uint32_t len = static_cast<uint32_t>(s.size());
    out->append(reinterpret_cast<const char*>(&len), sizeof(len));
    out->append(s);
  } else if (col.type().id == TypeId::kDouble) {
    double v = col.doubles()[row];
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  } else {
    int64_t v = col.ints()[row];
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
}

namespace {

/// Raw 64-bit image of a fixed-width column value (doubles bit-cast, so
/// equality matches the legacy byte encoding).
inline int64_t RawValue64(const ColumnData& col, size_t row) {
  if (col.type().id == TypeId::kDouble) {
    return std::bit_cast<int64_t>(col.doubles()[row]);
  }
  return col.ints()[row];
}

inline bool IsFixed64(const ColumnData& col) {
  return col.type().id != TypeId::kString;
}

inline uint64_t Hash128(uint64_t lo, uint64_t hi) {
  return HashInt64(lo) ^ (HashInt64(hi) * 0x9E3779B97F4A7C15ull);
}

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

KeyLayout ChooseKeyLayout(const std::vector<const ColumnData*>& key_cols) {
  VDM_CHECK(!key_cols.empty());
  if (key_cols.size() == 1) {
    if (IsFixed64(*key_cols[0])) return KeyLayout::kInt64;
    return key_cols[0]->has_dict() ? KeyLayout::kDict32
                                   : KeyLayout::kSerialized;
  }
  if (key_cols.size() == 2 && IsFixed64(*key_cols[0]) &&
      IsFixed64(*key_cols[1])) {
    return KeyLayout::kPacked16;
  }
  return KeyLayout::kSerialized;
}

// ---------------------------------------------------------------------------
// JoinHashTable

JoinHashTable::JoinHashTable(std::vector<const ColumnData*> build_cols)
    : layout_(ChooseKeyLayout(build_cols)), build_cols_(std::move(build_cols)) {
  build_rows_ = build_cols_[0]->size();
  VDM_CHECK(build_rows_ < kEnd);
}

JoinHashTable::~JoinHashTable() {
  if (tracker_ != nullptr) tracker_->Release(charged_bytes_);
}

bool JoinHashTable::Key64(const std::vector<const ColumnData*>& cols,
                          size_t row, int64_t* key) const {
  const ColumnData& col = *cols[0];
  if (layout_ == KeyLayout::kDict32) {
    int32_t code = col.dict_codes()[row];
    if (code < 0) return false;
    *key = code;
    return true;
  }
  if (col.IsNull(row)) return false;
  *key = RawValue64(col, row);
  return true;
}

bool JoinHashTable::Key128(const std::vector<const ColumnData*>& cols,
                           size_t row, uint64_t* lo, uint64_t* hi) const {
  if (cols[0]->IsNull(row) || cols[1]->IsNull(row)) return false;
  *lo = static_cast<uint64_t>(RawValue64(*cols[0], row));
  *hi = static_cast<uint64_t>(RawValue64(*cols[1], row));
  return true;
}

bool JoinHashTable::KeyBytes(const std::vector<const ColumnData*>& cols,
                             size_t row, std::string* key) const {
  key->clear();
  for (const ColumnData* col : cols) {
    if (col->IsNull(row)) return false;  // join keys exclude NULLs
    AppendKeyBytes(*col, row, key);
  }
  return true;
}

Status JoinHashTable::Build(ThreadPool* pool, QueryContext* ctx) {
  VDM_FAULT_POINT("exec.hash_build.oom");
  size_t n = build_rows_;
  tracker_ = ctx != nullptr ? &ctx->memory() : nullptr;
  // Charge the per-row build arrays before allocating them. Fixed layouts
  // are exact; the serialized layout is estimated (header + typical short
  // key) because the actual key bytes are only known after phase 0.
  int64_t per_row = sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint64_t);
  switch (layout_) {
    case KeyLayout::kInt64:
    case KeyLayout::kDict32:
      per_row += sizeof(int64_t);
      break;
    case KeyLayout::kPacked16:
      per_row += 2 * sizeof(uint64_t);
      break;
    case KeyLayout::kSerialized:
      per_row += static_cast<int64_t>(sizeof(std::string)) + 16;
      break;
  }
  VDM_RETURN_NOT_OK(
      ChargeTo(tracker_, per_row * static_cast<int64_t>(n), &charged_bytes_));

  next_.assign(n, kEnd);
  key_valid_.assign(n, 0);
  hashes_.resize(n);
  size_t threads = pool == nullptr ? 1 : pool->size();

  // Phase 0: extract keys and hashes for every build row (parallel over
  // morsels; each task writes a disjoint row range).
  switch (layout_) {
    case KeyLayout::kInt64:
    case KeyLayout::kDict32:
      keys64_.resize(n);
      break;
    case KeyLayout::kPacked16:
      keys_lo_.resize(n);
      keys_hi_.resize(n);
      break;
    case KeyLayout::kSerialized:
      keys_ser_.resize(n);
      break;
  }
  constexpr size_t kHashMorsel = 8192;
  size_t num_morsels = (n + kHashMorsel - 1) / kHashMorsel;
  auto hash_morsel = [&](size_t m) {
    // Governor check once per morsel: a cancelled/expired query stops
    // hashing within one morsel on every worker.
    if (ctx != nullptr && !ctx->CheckAlive().ok()) return;
    size_t begin = m * kHashMorsel;
    size_t end = std::min(n, begin + kHashMorsel);
    for (size_t r = begin; r < end; ++r) {
      switch (layout_) {
        case KeyLayout::kInt64:
        case KeyLayout::kDict32: {
          int64_t key;
          if (!Key64(build_cols_, r, &key)) continue;
          keys64_[r] = key;
          hashes_[r] = HashInt64(static_cast<uint64_t>(key));
          key_valid_[r] = 1;
          break;
        }
        case KeyLayout::kPacked16: {
          uint64_t lo, hi;
          if (!Key128(build_cols_, r, &lo, &hi)) continue;
          keys_lo_[r] = lo;
          keys_hi_[r] = hi;
          hashes_[r] = Hash128(lo, hi);
          key_valid_[r] = 1;
          break;
        }
        case KeyLayout::kSerialized: {
          if (!KeyBytes(build_cols_, r, &keys_ser_[r])) continue;
          hashes_[r] = std::hash<std::string>{}(keys_ser_[r]);
          key_valid_[r] = 1;
          break;
        }
      }
    }
  };
  if (pool != nullptr && threads > 1 && num_morsels > 1) {
    VDM_RETURN_NOT_OK(pool->ParallelFor(num_morsels, hash_morsel));
  } else {
    for (size_t m = 0; m < num_morsels; ++m) hash_morsel(m);
  }
  if (ctx != nullptr) VDM_RETURN_NOT_OK(ctx->CheckAlive());

  // Phase 1: insert into hash-space partitions; each partition's slot
  // array is owned by exactly one task, so the build is race-free. The
  // shared next_ array is safe because every row lands in one partition.
  size_t num_partitions =
      (threads > 1 && n >= 4 * kHashMorsel) ? NextPow2(threads) : 1;
  // Slot reservation: the normal build leaves the open-addressing arrays
  // half empty (load ~0.5) for probe speed; a degraded (serial-retry)
  // query trades probe time for footprint and packs them to load ~0.8.
  bool tight = ctx != nullptr && ctx->degraded();
  partitions_.resize(num_partitions);
  size_t expected = n / num_partitions + 16;
  size_t cap = NextPow2(tight ? expected + expected / 4 : expected * 2);
  int64_t slot_bytes = 0;
  if (layout_ == KeyLayout::kSerialized) {
    // unordered_map node + bucket estimate per expected key.
    slot_bytes = static_cast<int64_t>(num_partitions * expected) * 64;
  } else if (layout_ == KeyLayout::kPacked16) {
    slot_bytes = static_cast<int64_t>(num_partitions * cap) * sizeof(Slot128);
  } else {
    slot_bytes = static_cast<int64_t>(num_partitions * cap) * sizeof(Slot64);
  }
  VDM_RETURN_NOT_OK(ChargeTo(tracker_, slot_bytes, &charged_bytes_));
  for (Partition& part : partitions_) {
    part.mask = cap - 1;
    if (layout_ == KeyLayout::kSerialized) {
      part.serialized.reserve(expected);
    } else if (layout_ == KeyLayout::kPacked16) {
      part.slots128.assign(cap, Slot128{0, 0, kEnd});
    } else {
      part.slots64.assign(cap, Slot64{0, kEnd});
    }
  }
  if (num_partitions > 1) {
    std::vector<Status> part_status(num_partitions);
    VDM_RETURN_NOT_OK(pool->ParallelFor(
        num_partitions, [&](size_t p) { part_status[p] = BuildPartition(p, ctx); }));
    for (Status& s : part_status) VDM_RETURN_NOT_OK(std::move(s));
  } else {
    VDM_RETURN_NOT_OK(BuildPartition(0, ctx));
  }
  entries_ = 0;
  for (size_t r = 0; r < n; ++r) entries_ += key_valid_[r];
  return Status::OK();
}

Status JoinHashTable::BuildPartition(size_t p, QueryContext* ctx) {
  Partition& part = partitions_[p];
  size_t n = build_rows_;
  bool multi = partitions_.size() > 1;
  // Insert in descending row order so chains list build rows ascending.
  for (size_t i = n; i-- > 0;) {
    if (ctx != nullptr && (i & 8191) == 0) {
      VDM_RETURN_NOT_OK(ctx->CheckAlive());
    }
    if (!key_valid_[i]) continue;
    uint64_t hash = hashes_[i];
    if (multi && PartitionOf(hash) != p) continue;
    uint32_t row = static_cast<uint32_t>(i);
    switch (layout_) {
      case KeyLayout::kInt64:
      case KeyLayout::kDict32: {
        int64_t key = keys64_[i];
        uint64_t slot = hash & part.mask;
        while (true) {
          Slot64& s = part.slots64[slot];
          if (s.head == kEnd) {
            s.key = key;
            s.head = row;
            break;
          }
          if (s.key == key) {
            next_[i] = s.head;
            s.head = row;
            break;
          }
          slot = (slot + 1) & part.mask;
        }
        break;
      }
      case KeyLayout::kPacked16: {
        uint64_t lo = keys_lo_[i], hi = keys_hi_[i];
        uint64_t slot = hash & part.mask;
        while (true) {
          Slot128& s = part.slots128[slot];
          if (s.head == kEnd) {
            s.lo = lo;
            s.hi = hi;
            s.head = row;
            break;
          }
          if (s.lo == lo && s.hi == hi) {
            next_[i] = s.head;
            s.head = row;
            break;
          }
          slot = (slot + 1) & part.mask;
        }
        break;
      }
      case KeyLayout::kSerialized: {
        auto [it, inserted] = part.serialized.emplace(keys_ser_[i], row);
        if (!inserted) {
          next_[i] = it->second;
          it->second = row;
        }
        break;
      }
    }
  }
  return Status::OK();
}

size_t JoinHashTable::ProbeKey64(int64_t key, std::vector<size_t>* out) const {
  uint64_t hash = HashInt64(static_cast<uint64_t>(key));
  const Partition& part =
      partitions_[partitions_.size() > 1 ? PartitionOf(hash) : 0];
  uint32_t head = kEnd;
  uint64_t slot = hash & part.mask;
  while (true) {
    const Slot64& s = part.slots64[slot];
    if (s.head == kEnd) break;
    if (s.key == key) {
      head = s.head;
      break;
    }
    slot = (slot + 1) & part.mask;
  }
  size_t count = 0;
  for (uint32_t r = head; r != kEnd; r = next_[r]) {
    out->push_back(r);
    ++count;
  }
  return count;
}

size_t JoinHashTable::ProbeKey128(uint64_t lo, uint64_t hi,
                                  std::vector<size_t>* out) const {
  uint64_t hash = Hash128(lo, hi);
  const Partition& part =
      partitions_[partitions_.size() > 1 ? PartitionOf(hash) : 0];
  uint32_t head = kEnd;
  uint64_t slot = hash & part.mask;
  while (true) {
    const Slot128& s = part.slots128[slot];
    if (s.head == kEnd) break;
    if (s.lo == lo && s.hi == hi) {
      head = s.head;
      break;
    }
    slot = (slot + 1) & part.mask;
  }
  size_t count = 0;
  for (uint32_t r = head; r != kEnd; r = next_[r]) {
    out->push_back(r);
    ++count;
  }
  return count;
}

size_t JoinHashTable::ProbeSerialized(const std::string& key,
                                      std::vector<size_t>* out) const {
  uint64_t hash = std::hash<std::string>{}(key);
  const Partition& part =
      partitions_[partitions_.size() > 1 ? PartitionOf(hash) : 0];
  auto it = part.serialized.find(key);
  uint32_t head = it != part.serialized.end() ? it->second : kEnd;
  size_t count = 0;
  for (uint32_t r = head; r != kEnd; r = next_[r]) {
    out->push_back(r);
    ++count;
  }
  return count;
}

const std::vector<int32_t>* JoinHashTable::TranslationFor(
    const std::vector<std::string>* probe_dict) const {
  if (probe_dict == build_cols_[0]->dict().get()) return nullptr;
  std::lock_guard<std::mutex> lock(stream_mu_);
  auto it = stream_maps_.find(probe_dict);
  if (it != stream_maps_.end()) return &it->second;
  std::vector<int32_t>& map = stream_maps_[probe_dict];
  const std::vector<std::string>& pd = *probe_dict;
  map.assign(pd.size(), -1);
  for (size_t p = 0; p < pd.size(); ++p) {
    map[p] = BuildCodeOf(pd[p]);
  }
  return &map;
}

int32_t JoinHashTable::BuildCodeOf(const std::string& s) const {
  // Called with stream_mu_ held (from TranslationFor) or from Bind on the
  // string-lookup path — Bind takes the lock itself before the first use.
  const std::vector<std::string>& bd = *build_cols_[0]->dict();
  if (!build_code_index_ready_) {
    build_code_index_.reserve(bd.size());
    for (size_t c = 0; c < bd.size(); ++c) {
      build_code_index_.emplace(bd[c], static_cast<int32_t>(c));
    }
    build_code_index_ready_ = true;
  }
  auto it = build_code_index_.find(s);
  return it != build_code_index_.end() ? it->second : -1;
}

void JoinHashTable::Prober::Bind(
    const std::vector<const ColumnData*>* cols) {
  cols_ = cols;
  code_map_ = nullptr;
  lookup_strings_ = false;
  never_match_ = false;
  for (size_t i = 0; i < t_.build_cols_.size(); ++i) {
    bool build_str = t_.build_cols_[i]->type().id == TypeId::kString;
    bool probe_str = (*cols_)[i]->type().id == TypeId::kString;
    if (build_str != probe_str) {
      never_match_ = true;
      return;
    }
  }
  if (t_.layout_ != KeyLayout::kDict32) return;
  const ColumnData& probe = *(*cols_)[0];
  if (probe.has_dict()) {
    code_map_ = t_.TranslationFor(probe.dict().get());
  } else {
    // Plain strings (e.g. delta-overlapping morsels): resolve each row
    // against the build dictionary. Warm the index once under the lock so
    // concurrent probes only read it.
    lookup_strings_ = true;
    std::lock_guard<std::mutex> lock(t_.stream_mu_);
    if (!t_.build_code_index_ready_) t_.BuildCodeOf(std::string());
  }
}

size_t JoinHashTable::Prober::ProbeRow(size_t row,
                                             std::vector<size_t>* out) {
  if (never_match_) return 0;
  const std::vector<const ColumnData*>& cols = *cols_;
  switch (t_.layout_) {
    case KeyLayout::kInt64: {
      const ColumnData& col = *cols[0];
      if (col.IsNull(row)) return 0;
      return t_.ProbeKey64(RawValue64(col, row), out);
    }
    case KeyLayout::kDict32: {
      const ColumnData& col = *cols[0];
      int32_t code;
      if (lookup_strings_) {
        if (col.IsNull(row)) return 0;
        code = t_.BuildCodeOf(col.StringAt(row));
      } else {
        code = col.dict_codes()[row];
        if (code >= 0 && code_map_ != nullptr) {
          code = (*code_map_)[static_cast<size_t>(code)];
        }
      }
      if (code < 0) return 0;
      return t_.ProbeKey64(code, out);
    }
    case KeyLayout::kPacked16: {
      uint64_t lo, hi;
      if (!t_.Key128(cols, row, &lo, &hi)) return 0;
      return t_.ProbeKey128(lo, hi, out);
    }
    case KeyLayout::kSerialized: {
      if (!t_.KeyBytes(cols, row, &scratch_)) return 0;
      return t_.ProbeSerialized(scratch_, out);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// GroupKeyTable

GroupKeyTable::GroupKeyTable(std::vector<const ColumnData*> key_cols)
    : layout_(ChooseKeyLayout(key_cols)), key_cols_(std::move(key_cols)) {
  // The packed layout cannot represent NULL group keys in-band; fall back
  // to the serialized encoding (which NULL-marks every component).
  if (layout_ == KeyLayout::kPacked16) layout_ = KeyLayout::kSerialized;
  if (layout_ != KeyLayout::kSerialized) {
    slots_.assign(1024, Slot{0, kEmpty});
    mask_ = slots_.size() - 1;
  }
}

GroupKeyTable::~GroupKeyTable() {
  if (tracker_ != nullptr) tracker_->Release(charged_bytes_);
}

void GroupKeyTable::GrowIfNeeded() {
  if (used_ * 10 < slots_.size() * 7) return;
  // The growth must happen even when the charge is refused — a table that
  // stops growing would fill up and probe forever. The refusal is latched
  // into status_ instead; callers poll it at morsel granularity and abort
  // the query long before accounting drift matters.
  if (tracker_ != nullptr && status_.ok()) {
    int64_t bytes = static_cast<int64_t>(slots_.size()) * sizeof(Slot);
    Status charged = ChargeTo(tracker_, bytes, &charged_bytes_);
    if (!charged.ok()) status_ = std::move(charged);
  }
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{0, kEmpty});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.group == kEmpty) continue;
    uint64_t slot = HashInt64(static_cast<uint64_t>(s.key)) & mask_;
    while (slots_[slot].group != kEmpty) slot = (slot + 1) & mask_;
    slots_[slot] = s;
  }
}

size_t GroupKeyTable::GetOrAdd(size_t row) {
  if (layout_ == KeyLayout::kSerialized) {
    scratch_.clear();
    for (const ColumnData* col : key_cols_) {
      AppendKeyBytes(*col, row, &scratch_);
    }
    auto [it, inserted] = serialized_.emplace(
        scratch_, static_cast<uint32_t>(num_groups_));
    if (inserted) {
      ++num_groups_;
      if (tracker_ != nullptr && status_.ok()) {
        int64_t bytes = static_cast<int64_t>(scratch_.size()) + 64;
        Status charged = ChargeTo(tracker_, bytes, &charged_bytes_);
        if (!charged.ok()) status_ = std::move(charged);
      }
    }
    return it->second;
  }
  const ColumnData& col = *key_cols_[0];
  int64_t key;
  if (layout_ == KeyLayout::kDict32) {
    key = col.dict_codes()[row];  // -1 encodes NULL, distinct in-band
  } else if (col.IsNull(row)) {
    // NULLs form one group, out of band (any int64 is a valid key).
    if (null_group_ == kEmpty) {
      null_group_ = static_cast<uint32_t>(num_groups_++);
    }
    return null_group_;
  } else {
    key = RawValue64(col, row);
  }
  GrowIfNeeded();
  uint64_t slot = HashInt64(static_cast<uint64_t>(key)) & mask_;
  while (true) {
    Slot& s = slots_[slot];
    if (s.group == kEmpty) {
      s.key = key;
      s.group = static_cast<uint32_t>(num_groups_++);
      ++used_;
      return s.group;
    }
    if (s.key == key) return s.group;
    slot = (slot + 1) & mask_;
  }
}

}  // namespace vdm

#include "exec/hash_table.h"

#include <algorithm>
#include <bit>
#include <utility>

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

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

bool IsString(const ColumnData& col) {
  return col.type().id == TypeId::kString;
}

constexpr uint32_t kNullRow = ColumnData::kInvalidIndex;

/// How one key column's rows become words.
struct WordSource {
  KeyColumn key;
  const int32_t* codes = nullptr;      // strings: the code of each row
  const int32_t* translate = nullptr;  // then: code -> build code
  const StringCodes* index = nullptr;  // plain strings: value -> code
  bool never = false;                  // a string against a number
};

/// Writes the word of each of n key rows to out[i * stride] and flags
/// NULL rows in nulls[i]: a fixed-width value's raw image (0 when NULL), a
/// string's code, or -1 for a NULL string or one the code space lacks.
/// Every input is read through locals: the byte stores to `nulls` may
/// alias anything else.
void WriteWords(const WordSource& s, size_t n, uint64_t* out, size_t stride,
                uint8_t* nulls) {
  const ColumnData& col = *s.key.col;
  const KeyColumn key = s.key;
  if (s.never) {
    std::fill(nulls, nulls + n, 1);
  } else if (s.codes != nullptr) {
    const int32_t* codes = s.codes;
    const int32_t* translate = s.translate;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = key.Row(i);
      int32_t c = r == kNullRow ? -1 : codes[r];
      if (c >= 0 && translate != nullptr) c = translate[c];
      out[i * stride] = static_cast<uint64_t>(static_cast<int64_t>(c));
      nulls[i] |= c < 0;
    }
  } else if (s.index != nullptr) {
    const StringCodes& index = *s.index;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = key.Row(i);
      int32_t c = -1;
      if (r != kNullRow && !col.IsNull(r)) {
        auto it = index.find(col.StringAt(r));
        if (it != index.end()) c = it->second;
      }
      out[i * stride] = static_cast<uint64_t>(static_cast<int64_t>(c));
      nulls[i] |= c < 0;
    }
  } else {
    const bool dbl = col.type().id == TypeId::kDouble;
    const int64_t* ints = col.ints().data();
    const double* doubles = col.doubles().data();
    const uint8_t* valid = col.HasNulls() ? col.validity().data() : nullptr;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = key.Row(i);
      const bool null = r == kNullRow || (valid != nullptr && valid[r] == 0);
      out[i * stride] = null  ? 0
                        : dbl ? std::bit_cast<uint64_t>(doubles[r])
                              : static_cast<uint64_t>(ints[r]);
      nulls[i] |= null;
    }
  }
}

/// Codes of n key rows of a plain string column in `index`, each new
/// value interned as the next code (NULL: -1). Returns the bytes added.
int64_t Intern(const KeyColumn& key, size_t n, StringCodes* index,
               int32_t* codes) {
  int64_t bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = key.Row(i);
    if (key.col->IsNull(r)) {
      codes[i] = -1;
      continue;
    }
    auto [it, added] = index->try_emplace(
        key.col->StringAt(r), static_cast<int32_t>(index->size()));
    codes[i] = it->second;
    if (added) bytes += static_cast<int64_t>(it->first.size()) + 64;
  }
  return bytes;
}

/// Value -> code of every entry of a dictionary.
StringCodes IndexOf(const std::vector<std::string>& dict) {
  StringCodes index;
  index.reserve(dict.size());
  for (size_t c = 0; c < dict.size(); ++c) {
    index.emplace(dict[c], static_cast<int32_t>(c));
  }
  return index;
}

}  // namespace

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

// ---------------------------------------------------------------------------
// KeySlots

void KeySlots::Reset(size_t width, size_t capacity) {
  width_ = width;
  mask_ = capacity - 1;
  data_.assign(capacity * (width + 1), 0);
  for (size_t i = 0; i < capacity; ++i) data_[i * (width + 1) + width] = kEmpty;
}

void KeySlots::Grow() {
  KeySlots old = std::move(*this);
  Reset(old.width_, old.capacity() * 2);
  for (size_t i = 0; i < old.capacity(); ++i) {
    const uint64_t* s = &old.data_[i * (width_ + 1)];
    if (s[width_] == kEmpty) continue;
    uint64_t* d = Find(HashWords(s, width_), s);
    std::copy(s, s + width_ + 1, d);
  }
}

// ---------------------------------------------------------------------------
// JoinHashTable

JoinHashTable::JoinHashTable(std::vector<const ColumnData*> build_cols)
    : build_cols_(std::move(build_cols)) {
  VDM_CHECK(!build_cols_.empty());
  build_rows_ = build_cols_[0]->size();
  VDM_CHECK(build_rows_ < kEnd);
  interned_.resize(build_cols_.size());
}

JoinHashTable::~JoinHashTable() {
  if (tracker_ != nullptr) tracker_->Release(charged_bytes_);
}

Status JoinHashTable::Build(ThreadPool* pool, QueryContext* ctx) {
  VDM_FAULT_POINT("exec.hash_build.oom");
  const size_t n = build_rows_;
  const size_t w = build_cols_.size();
  tracker_ = ctx != nullptr ? &ctx->memory() : nullptr;
  // Charge the per-row arrays before allocating them: the key words, hash
  // and NULL flag live while building, the chain link as long as the table.
  const int64_t transient = static_cast<int64_t>((8 * w + 9) * n);
  VDM_RETURN_NOT_OK(ChargeTo(
      tracker_, transient + static_cast<int64_t>(4 * n), &charged_bytes_));

  // A string column without a dictionary gets a code space of its own:
  // its values interned in first-occurrence order.
  std::vector<std::vector<int32_t>> interned_rows(w);
  for (size_t k = 0; k < w; ++k) {
    const ColumnData& col = *build_cols_[k];
    if (!IsString(col) || col.has_dict()) continue;
    interned_rows[k].resize(n);
    const int64_t bytes = Intern(KeyColumn{&col}, n, &interned_[k],
                                 interned_rows[k].data());
    VDM_RETURN_NOT_OK(ChargeTo(tracker_, bytes + static_cast<int64_t>(4 * n),
                               &charged_bytes_));
  }

  next_.assign(n, kEnd);
  std::vector<uint64_t> words(n * w);
  std::vector<uint64_t> hashes(n);
  std::vector<uint8_t> nulls(n, 0);
  size_t threads = pool == nullptr ? 1 : pool->size();

  // Phase 0: every build row's key words and hash (parallel over morsels;
  // each task writes a disjoint row range).
  constexpr size_t kHashMorsel = 8192;
  size_t num_morsels = (n + kHashMorsel - 1) / kHashMorsel;
  auto hash_morsel = [&](size_t m) {
    // Governor check once per morsel: a cancelled/expired query stops
    // hashing within one morsel on every worker.
    if (ctx != nullptr && !ctx->CheckAlive().ok()) return;
    const size_t begin = m * kHashMorsel;
    const size_t end = std::min(n, begin + kHashMorsel);
    for (size_t k = 0; k < w; ++k) {
      const ColumnData& col = *build_cols_[k];
      WordSource src{KeyColumn{&col, nullptr, begin}};
      if (IsString(col)) {
        src.codes = col.has_dict() ? col.dict_codes().data()
                                   : interned_rows[k].data();
      }
      WriteWords(src, end - begin, &words[begin * w + k], w, &nulls[begin]);
    }
    for (size_t r = begin; r < end; ++r) {
      hashes[r] = HashWords(&words[r * w], w);
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
  VDM_RETURN_NOT_OK(ChargeTo(
      tracker_, static_cast<int64_t>(num_partitions * cap * (w + 1) * 8),
      &charged_bytes_));
  for (KeySlots& slots : partitions_) slots.Reset(w, cap);
  auto build_partition = [&](size_t p) -> Status {
    KeySlots& slots = partitions_[p];
    // Insert in descending row order so chains list build rows ascending.
    for (size_t i = n; i-- > 0;) {
      if (ctx != nullptr && (i & 8191) == 0) {
        VDM_RETURN_NOT_OK(ctx->CheckAlive());
      }
      if (nulls[i] || (num_partitions > 1 && PartitionOf(hashes[i]) != p)) {
        continue;
      }
      const uint64_t* key = &words[i * w];
      uint64_t* s = slots.Find(hashes[i], key);
      if (s[w] == KeySlots::kEmpty) {
        std::copy(key, key + w, s);
      } else {
        next_[i] = static_cast<uint32_t>(s[w]);
      }
      s[w] = i;
    }
    return Status::OK();
  };
  if (num_partitions > 1) {
    std::vector<Status> part_status(num_partitions);
    VDM_RETURN_NOT_OK(pool->ParallelFor(num_partitions, [&](size_t p) {
      part_status[p] = build_partition(p);
    }));
    for (Status& s : part_status) VDM_RETURN_NOT_OK(std::move(s));
  } else {
    VDM_RETURN_NOT_OK(build_partition(0));
  }
  entries_ = static_cast<size_t>(std::count(nulls.begin(), nulls.end(), 0));
  unique_ = std::count(next_.begin(), next_.end(), kEnd) ==
            static_cast<std::ptrdiff_t>(n);
  if (tracker_ != nullptr) {
    tracker_->Release(transient);
    charged_bytes_ -= transient;
  }
  return Status::OK();
}

JoinHashTable::ProbeMap JoinHashTable::MapProbe(
    const std::vector<ProbeSide>& sides) const {
  ProbeMap map;
  map.cols.resize(build_cols_.size());
  for (size_t k = 0; k < build_cols_.size(); ++k) {
    const ColumnData& build = *build_cols_[k];
    if (!IsString(build)) continue;
    const std::vector<std::string>* bd = build.dict().get();
    const ProbeSide& side = sides[k];
    ProbeMap::Column& mc = map.cols[k];
    const bool translate = side.dict != nullptr && side.dict != bd;
    if (bd != nullptr && (side.plain || translate)) mc.index = IndexOf(*bd);
    if (translate) {
      const StringCodes& index = bd != nullptr ? mc.index : interned_[k];
      mc.dict = side.dict;
      mc.codes.resize(side.dict->size());
      for (size_t c = 0; c < side.dict->size(); ++c) {
        auto it = index.find((*side.dict)[c]);
        mc.codes[c] = it != index.end() ? it->second : -1;
      }
    }
  }
  return map;
}

void JoinHashTable::FindHeads(const ProbeMap& map,
                              const std::vector<KeyColumn>& keys, size_t n,
                              ProbeScratch* scratch,
                              std::vector<uint32_t>* heads) const {
  const size_t w = build_cols_.size();
  std::vector<uint64_t>& words = scratch->words;
  std::vector<uint64_t>& hashes = scratch->hashes;
  std::vector<uint8_t>& nulls = scratch->nulls;
  words.resize(n * w);
  hashes.resize(n);
  nulls.assign(n, 0);
  StringCodes unforeseen;  // a build index no probe side asked for
  for (size_t k = 0; k < w; ++k) {
    const ColumnData& build = *build_cols_[k];
    const ColumnData& probe = *keys[k].col;
    WordSource src{keys[k]};
    src.never = IsString(build) != IsString(probe);
    if (IsString(build) && !src.never) {
      const std::vector<std::string>* bd = build.dict().get();
      const std::vector<std::string>* pd = probe.dict().get();
      const ProbeMap::Column& mc = map.cols[k];
      if (pd != nullptr && (pd == bd || pd == mc.dict)) {
        src.codes = probe.dict_codes().data();
        if (pd != bd) src.translate = mc.codes.data();
      } else if (bd == nullptr) {
        src.index = &interned_[k];
      } else {
        if (mc.index.empty()) unforeseen = IndexOf(*bd);
        src.index = mc.index.empty() ? &unforeseen : &mc.index;
      }
    }
    WriteWords(src, n, words.data() + k, w, nulls.data());
  }
  // Hash every key and prefetch its slot, then find every chain head.
  const uint64_t* key = words.data();
  uint64_t* hash = hashes.data();
  for (size_t i = 0; i < n; ++i) {
    hash[i] = HashWords(key + i * w, w);
    SlotsFor(hash[i]).Prefetch(hash[i]);
  }
  heads->resize(n);
  uint32_t* head = heads->data();
  for (size_t i = 0; i < n; ++i) {
    head[i] = nulls[i] ? kEnd
                       : static_cast<uint32_t>(
                             SlotsFor(hash[i]).Find(hash[i], key + i * w)[w]);
  }
}

// ---------------------------------------------------------------------------
// GroupKeyTable

GroupKeyTable::GroupKeyTable(std::vector<const ColumnData*> key_cols)
    : key_cols_(std::move(key_cols)) {
  VDM_CHECK(!key_cols_.empty());
  size_t nullable = 0;
  for (const ColumnData* col : key_cols_) {
    nullable += !IsString(*col) && col->HasNulls();
  }
  width_ = key_cols_.size() + (nullable + 63) / 64;
  interned_.resize(key_cols_.size());
  slots_.Reset(width_, 1024);
}

GroupKeyTable::~GroupKeyTable() {
  if (tracker_ != nullptr) tracker_->Release(charged_bytes_);
}

void GroupKeyTable::Charge(int64_t bytes) {
  // The table must keep working when the charge is refused — a table that
  // stops growing would fill up and probe forever. The refusal is latched
  // into status_ instead; callers poll it at morsel granularity and abort
  // the query long before accounting drift matters.
  if (tracker_ == nullptr || !status_.ok()) return;
  Status charged = ChargeTo(tracker_, bytes, &charged_bytes_);
  if (!charged.ok()) status_ = std::move(charged);
}

void GroupKeyTable::GetOrAdd(const uint32_t* rows, size_t first, size_t n,
                             uint32_t* ids) {
  const size_t w = width_;
  const size_t cols = key_cols_.size();
  words_.assign(n * w, 0);
  nulls_.resize(n);
  size_t null_bit = 0;  // next null-mask bit
  for (size_t k = 0; k < cols; ++k) {
    const ColumnData& col = *key_cols_[k];
    WordSource src{KeyColumn{&col, rows, first}};
    if (IsString(col) && col.has_dict()) {
      src.codes = col.dict_codes().data();
    } else if (IsString(col)) {
      // Plain strings: codes in this table's own code space.
      codes_.resize(n);
      Charge(Intern(src.key, n, &interned_[k], codes_.data()));
      src = WordSource{KeyColumn{&col}, codes_.data()};
    }
    std::fill(nulls_.begin(), nulls_.end(), 0);
    WriteWords(src, n, words_.data() + k, w, nulls_.data());
    if (IsString(col) || !col.HasNulls()) continue;  // NULL is code -1
    for (size_t i = 0; i < n; ++i) {
      words_[i * w + cols + null_bit / 64] |=
          static_cast<uint64_t>(nulls_[i]) << (null_bit % 64);
    }
    ++null_bit;
  }
  hashes_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    hashes_[i] = HashWords(&words_[i * w], w);
    slots_.Prefetch(hashes_[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* key = &words_[i * w];
    uint64_t* s = slots_.Find(hashes_[i], key);
    if (s[w] == KeySlots::kEmpty) {
      std::copy(key, key + w, s);
      s[w] = num_groups_++;
    }
    ids[i] = static_cast<uint32_t>(s[w]);
    if (num_groups_ * 10 >= slots_.capacity() * 7) {
      Charge(static_cast<int64_t>(slots_.capacity() * (w + 1) * 8));
      slots_.Grow();
    }
  }
}

}  // namespace vdm

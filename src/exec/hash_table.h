// Hash tables for the executor's joins, group-bys, and DISTINCT.
//
// One key form: every key column contributes one 64-bit word — an
// integer-backed value's raw int64, a double's bits (byte equality: -0.0
// and 0.0 differ, NaNs match by bit pattern), or a string's code in the
// build column's code space: its dictionary (ColumnData::dict()), or
// codes interned from its values at Build when it has none. Slots hold the
// words inline with a 32-bit payload, so a one-word key is a 16-byte slot
// and a wider one (JEIB's four-column document key) compares all its
// words. Probe strings reach build codes before any key is hashed: the
// build dictionary's codes directly, another dictionary's through a
// translation computed once per run (JoinHashTable::MapProbe), plain
// strings by lookup. A string never equals a number.
//
// Join tables exclude NULL keys and list each key's build rows ascending.
// Group tables give NULL its own group (code -1 in-band for strings, a
// null-mask bit otherwise) and assign ids in first-occurrence order. Both
// work a batch of rows at a time: every key's words, then every hash,
// then every slot.
#ifndef VDMQO_EXEC_HASH_TABLE_H_
#define VDMQO_EXEC_HASH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "types/column.h"

namespace vdm {

class ThreadPool;

/// Appends a byte encoding of column[row] to *out (length-prefixed,
/// null-marked, so concatenations never collide). COUNT(DISTINCT) dedups
/// its values with it.
void AppendKeyBytes(const ColumnData& col, size_t row, std::string* out);

/// splitmix64 finalizer.
inline uint64_t HashInt64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Hash of a key of `width` words; a one-word key hashes as HashInt64.
inline uint64_t HashWords(const uint64_t* words, size_t width) {
  uint64_t h = HashInt64(words[0]);
  for (size_t k = 1; k < width; ++k) h = HashInt64(h ^ words[k]);
  return h;
}

/// One key column read through row indexes: key row i is column row
/// rows[i], or first + i when `rows` is null. kInvalidIndex reads as NULL
/// (a row null-extended by an earlier LEFT OUTER join).
struct KeyColumn {
  const ColumnData* col = nullptr;
  const uint32_t* rows = nullptr;
  size_t first = 0;

  uint32_t Row(size_t i) const {
    return rows != nullptr ? rows[i] : static_cast<uint32_t>(first + i);
  }
};

using StringCodes = std::unordered_map<std::string, int32_t>;

/// Open addressing over keys of `width` words, each slot the key inline
/// followed by a 32-bit payload word (kEmpty marks a free slot).
class KeySlots {
 public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  void Reset(size_t width, size_t capacity);  // capacity: a power of two
  size_t capacity() const { return mask_ + 1; }

  /// The slot holding `key`, or the free slot where it belongs.
  uint64_t* Find(uint64_t hash, const uint64_t* key) {
    return const_cast<uint64_t*>(std::as_const(*this).Find(hash, key));
  }
  const uint64_t* Find(uint64_t hash, const uint64_t* key) const {
    for (uint64_t i = hash & mask_;; i = (i + 1) & mask_) {
      const uint64_t* s = &data_[i * (width_ + 1)];
      if (s[width_] == kEmpty) return s;
      if (width_ == 1 ? s[0] == key[0] : std::equal(key, key + width_, s)) {
        return s;
      }
    }
  }
  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(&data_[(hash & mask_) * (width_ + 1)]);
  }
  /// Moves every used slot into a table of twice the capacity.
  void Grow();

 private:
  std::vector<uint64_t> data_;
  uint64_t mask_ = 0;
  size_t width_ = 1;
};

// ---------------------------------------------------------------------------

/// Hash-join build table: maps key -> chain of build rows. Chains are
/// threaded through a shared `next` array; rows are inserted in
/// descending order so every chain lists build rows ascending (legacy
/// match order). Builds can be partitioned across a thread pool: each
/// partition owns a disjoint slice of the hash space, so workers never
/// touch the same slot array. After Build the table is read-only.
class JoinHashTable {
 public:
  /// A chain's end, and a missing head: kInvalidIndex, so a head doubles
  /// as the build row of a NULL-extended probe row.
  static constexpr uint32_t kEnd = ColumnData::kInvalidIndex;

  explicit JoinHashTable(std::vector<const ColumnData*> build_cols);
  ~JoinHashTable();

  /// Hashes and inserts all build rows with non-NULL keys; `pool` may be
  /// nullptr. `ctx`, when given, governs the build: allocations are
  /// charged to ctx->memory() (slots until the table dies, per-row key
  /// words until Build returns), cancellation/deadline are checked per
  /// morsel/partition, and ctx->degraded() packs the slot arrays to load
  /// ~0.8 instead of ~0.5 (the engine's serial-retry rung). Returns
  /// kResourceExhausted / kCancelled / kDeadlineExceeded instead of
  /// allocating past the budget.
  Status Build(ThreadPool* pool, QueryContext* ctx = nullptr);

  /// Rows actually inserted (build rows minus NULL keys).
  size_t num_entries() const { return entries_; }
  /// Whether every key has at most one build row: a chain head is then the
  /// key's only match.
  bool unique() const { return unique_; }

  /// What a probe key column may carry: `dict`, a dictionary its morsels
  /// use, and `plain`, whether strings without that dictionary (plain
  /// ones, or another dictionary) may appear too.
  struct ProbeSide {
    const std::vector<std::string>* dict = nullptr;
    bool plain = false;
  };

  /// How probe string columns reach the build codes, computed once per run
  /// before the probe morsels (MapProbe) and read-only while they run.
  struct ProbeMap {
    struct Column {
      const std::vector<std::string>* dict = nullptr;  // translated
      std::vector<int32_t> codes;  // dict code -> build code (-1: absent)
      StringCodes index;           // value -> build dictionary code
    };
    std::vector<Column> cols;  // per key column
  };
  ProbeMap MapProbe(const std::vector<ProbeSide>& sides) const;

  /// Buffers FindHeads reuses from call to call (one per thread).
  struct ProbeScratch {
    std::vector<uint64_t> words, hashes;
    std::vector<uint8_t> nulls;
  };

  /// The chain head of each of n probe keys (kEnd: a NULL key or no
  /// match). `keys` are parallel to the build columns. Every key's words
  /// are built first, then every hash, then every slot is found.
  void FindHeads(const ProbeMap& map, const std::vector<KeyColumn>& keys,
                 size_t n, ProbeScratch* scratch,
                 std::vector<uint32_t>* heads) const;

  /// The build row after `row` in its key's chain, or kEnd.
  uint32_t Next(uint32_t row) const { return next_[row]; }

 private:
  size_t PartitionOf(uint64_t hash) const {
    // fastrange: maps the high hash bits uniformly onto partitions.
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(hash) * partitions_.size()) >> 64);
  }
  const KeySlots& SlotsFor(uint64_t hash) const {
    return partitions_[partitions_.size() > 1 ? PartitionOf(hash) : 0];
  }

  std::vector<const ColumnData*> build_cols_;
  // Per string key column without a dictionary: its values interned at
  // Build.
  std::vector<StringCodes> interned_;
  size_t build_rows_ = 0;
  size_t entries_ = 0;
  bool unique_ = true;
  // Governor accounting for the build-side arrays; released on destruction.
  MemoryTracker* tracker_ = nullptr;
  int64_t charged_bytes_ = 0;

  std::vector<KeySlots> partitions_;  // each a disjoint slice of hashes
  std::vector<uint32_t> next_;  // chain links, indexed by build row
};

// ---------------------------------------------------------------------------

/// Group-by / DISTINCT key table: maps a row's key to a dense group id
/// assigned in first-occurrence order (the legacy output order). NULL
/// keys are valid group keys.
class GroupKeyTable {
 public:
  explicit GroupKeyTable(std::vector<const ColumnData*> key_cols);
  ~GroupKeyTable();

  /// Group ids of key rows [0, n) of `rows` (KeyColumn's row mapping)
  /// into ids[0, n), assigning the next id on each first occurrence, in
  /// row order.
  void GetOrAdd(const uint32_t* rows, size_t first, size_t n, uint32_t* ids);
  uint32_t GetOrAdd(size_t row) {
    uint32_t id;
    GetOrAdd(nullptr, row, 1, &id);
    return id;
  }

  size_t num_groups() const { return num_groups_; }

  /// Attaches a memory tracker: slot-array growth and interned strings
  /// are charged to it (released on destruction). GetOrAdd cannot fail
  /// mid-insert, so a failed charge is latched into status() — callers
  /// poll it at morsel granularity and abort the aggregation.
  void set_tracker(MemoryTracker* tracker) { tracker_ = tracker; }
  const Status& status() const { return status_; }

 private:
  void Charge(int64_t bytes);

  std::vector<const ColumnData*> key_cols_;
  size_t width_ = 0;  // key columns plus null-mask words
  std::vector<StringCodes> interned_;  // per plain string column
  KeySlots slots_;
  size_t num_groups_ = 0;
  // Per-batch scratch.
  std::vector<uint64_t> words_;
  std::vector<uint64_t> hashes_;
  std::vector<uint8_t> nulls_;
  std::vector<int32_t> codes_;
  // Governor accounting (see set_tracker).
  MemoryTracker* tracker_ = nullptr;
  int64_t charged_bytes_ = 0;
  Status status_;
};

}  // namespace vdm

#endif  // VDMQO_EXEC_HASH_TABLE_H_

// Typed hash tables for the executor's joins, group-bys, and distinct.
//
// The seed executor serialized every key into a length-prefixed
// std::string and hashed that — one heap-backed string per build row,
// probe row, and group-by row. These tables pick the cheapest layout the
// key columns support:
//
//   kInt64      one integer-backed or double column; the raw 64-bit value
//               is the key (doubles are bit-cast, matching the byte
//               equality of the legacy serialized encoding).
//   kDict32     one string column that carries a fragment dictionary
//               (ColumnData::dict()); the table runs on 32-bit dictionary
//               codes, and probe morsels with another dictionary or plain
//               strings are translated to build codes. Augmentation
//               self-joins — the paper's UAJ/ASJ patterns — share one
//               dictionary and probe codes directly.
//   kPacked16   two integer-backed/double columns packed into a 16-byte
//               key.
//   kSerialized anything else: the legacy byte-string encoding.
//
// Join tables exclude NULL keys (SQL equi-join semantics); group tables
// give NULLs their own group. Probe results are emitted in ascending
// build-row order and group ids in first-occurrence order, so results are
// byte-for-byte identical to the legacy executor.
#ifndef VDMQO_EXEC_HASH_TABLE_H_
#define VDMQO_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "types/column.h"

namespace vdm {

class ThreadPool;

enum class KeyLayout {
  kInt64,
  kDict32,
  kPacked16,
  kSerialized,
};

const char* KeyLayoutName(KeyLayout layout);

/// Appends a hash-key encoding of column[row] to *out (length-prefixed,
/// null-marked — collision-free across rows). The serialized-fallback
/// encoding, shared with DISTINCT-aggregate deduplication.
void AppendKeyBytes(const ColumnData& col, size_t row, std::string* out);

/// splitmix64 finalizer — the hash for all fixed-width layouts.
inline uint64_t HashInt64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Chooses the cheapest layout supported by the key columns of a join's
/// build side or a group table. The layout depends on this side alone:
/// join probes adapt to it (JoinHashTable::Prober).
KeyLayout ChooseKeyLayout(const std::vector<const ColumnData*>& key_cols);

// ---------------------------------------------------------------------------

/// Hash-join build table: maps key -> chain of build rows. Chains are
/// threaded through a shared `next` array; rows are inserted in
/// descending order so every chain lists build rows ascending (legacy
/// match order). Builds can be partitioned across a thread pool: each
/// partition owns a disjoint slice of the hash space, so workers never
/// touch the same slot array.
class JoinHashTable {
 public:
  static constexpr uint32_t kEnd = 0xFFFFFFFFu;

  explicit JoinHashTable(std::vector<const ColumnData*> build_cols);
  ~JoinHashTable();

  KeyLayout layout() const { return layout_; }

  /// Hashes and inserts all build rows with non-NULL keys. `pool` may be
  /// nullptr for a serial build. `ctx`, when given, governs the build:
  /// every allocation is charged to ctx->memory() (released when the
  /// table dies), cancellation/deadline are checked at morsel/partition
  /// granularity, and ctx->degraded() switches the slot arrays to tight
  /// reservations (load factor ~0.8 instead of ~0.5 — the engine's
  /// serial-retry rung). Returns kResourceExhausted / kCancelled /
  /// kDeadlineExceeded instead of allocating past the budget.
  Status Build(ThreadPool* pool, QueryContext* ctx = nullptr);

  /// Rows actually inserted (build rows minus NULL keys).
  size_t num_entries() const { return entries_; }
  size_t num_build_rows() const { return build_rows_; }

  /// Per-thread probe cursor over caller-supplied key columns, bound one
  /// probe morsel (or materialized chunk) at a time. Bind() never fails:
  /// fixed-width layouts read the keys directly, and the dictionary layout
  /// accepts code-carrying columns (codes of another dictionary go through
  /// a translation map, cached on the table per dictionary) as well as
  /// plain strings (each resolves to a build code). Matches equal those of
  /// comparing the key values themselves.
  class Prober {
   public:
    explicit Prober(const JoinHashTable& table) : t_(table) {}
    /// Binds one morsel's key columns (column-wise parallel to the build
    /// columns; not owned, must outlive the probes).
    void Bind(const std::vector<const ColumnData*>* cols);
    /// Appends build rows matching morsel row `row` to *out in ascending
    /// order; returns the number appended (0 for NULL keys).
    size_t ProbeRow(size_t row, std::vector<size_t>* out);

   private:
    const JoinHashTable& t_;
    const std::vector<const ColumnData*>* cols_ = nullptr;
    // String/non-string mismatch against the build columns: a string
    // never equals a number, so every probe misses (0 matches, like NULL
    // keys) instead of reading the keys in the wrong layout.
    bool never_match_ = false;
    // kDict32 binding state: exactly one of these is used per morsel.
    const std::vector<int32_t>* code_map_ = nullptr;  // probe -> build code
    bool lookup_strings_ = false;  // materialized strings: resolve per row
    std::string scratch_;
  };

 private:
  friend class Prober;

  // Shared probe tail: walks the chain for an extracted key.
  size_t ProbeKey64(int64_t key, std::vector<size_t>* out) const;
  size_t ProbeKey128(uint64_t lo, uint64_t hi,
                     std::vector<size_t>* out) const;
  size_t ProbeSerialized(const std::string& key,
                         std::vector<size_t>* out) const;

  /// kDict32 probing: code translation map for `probe_dict` (cached per
  /// dictionary; nullptr = same dictionary, no translation).
  const std::vector<int32_t>* TranslationFor(
      const std::vector<std::string>* probe_dict) const;
  /// kDict32 probing from plain strings: the build code of `s`, or -1
  /// when absent (never matches, like a NULL key).
  int32_t BuildCodeOf(const std::string& s) const;
  struct Slot64 {
    int64_t key;
    uint32_t head;  // kEnd marks an empty slot
  };
  struct Slot128 {
    uint64_t lo, hi;
    uint32_t head;
  };
  struct Partition {
    std::vector<Slot64> slots64;
    std::vector<Slot128> slots128;
    std::unordered_map<std::string, uint32_t> serialized;
    uint64_t mask = 0;
  };

  // Key extraction; returns false for NULL keys.
  bool Key64(const std::vector<const ColumnData*>& cols, size_t row,
             int64_t* key) const;
  bool Key128(const std::vector<const ColumnData*>& cols, size_t row,
              uint64_t* lo, uint64_t* hi) const;
  bool KeyBytes(const std::vector<const ColumnData*>& cols, size_t row,
                std::string* key) const;
  size_t PartitionOf(uint64_t hash) const {
    // fastrange: maps the high hash bits uniformly onto partitions.
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(hash) * partitions_.size()) >> 64);
  }
  Status BuildPartition(size_t p, QueryContext* ctx);

  KeyLayout layout_;
  std::vector<const ColumnData*> build_cols_;
  // kDict32 probing caches, built lazily under a lock — Probers bind
  // morsels concurrently across workers.
  mutable std::mutex stream_mu_;
  mutable std::map<const std::vector<std::string>*, std::vector<int32_t>>
      stream_maps_;
  mutable std::unordered_map<std::string, int32_t> build_code_index_;
  mutable bool build_code_index_ready_ = false;
  size_t build_rows_ = 0;
  size_t entries_ = 0;
  // Governor accounting for the build-side arrays; released on destruction.
  MemoryTracker* tracker_ = nullptr;
  int64_t charged_bytes_ = 0;

  // Phase 0: per-row hashes (fixed layouts) or serialized keys.
  std::vector<uint64_t> hashes_;
  std::vector<int64_t> keys64_;
  std::vector<uint64_t> keys_lo_, keys_hi_;
  std::vector<std::string> keys_ser_;
  std::vector<uint8_t> key_valid_;

  std::vector<Partition> partitions_;
  std::vector<uint32_t> next_;  // chain links, indexed by build row
};

// ---------------------------------------------------------------------------

/// Group-by / DISTINCT key table: maps a row's key to a dense group id
/// assigned in first-occurrence order (the legacy output order). NULL
/// keys are valid group keys. Only the single-column fixed layouts and
/// the serialized fallback apply (NULLs cannot be encoded in-band in the
/// packed layout).
class GroupKeyTable {
 public:
  explicit GroupKeyTable(std::vector<const ColumnData*> key_cols);
  ~GroupKeyTable();

  KeyLayout layout() const { return layout_; }

  /// Group id for the key at `row`, assigning the next id on first
  /// occurrence.
  size_t GetOrAdd(size_t row);

  size_t num_groups() const { return num_groups_; }

  /// Attaches a memory tracker: slot-array growth and new serialized keys
  /// are charged to it (released on destruction). GetOrAdd cannot fail
  /// mid-insert, so a failed charge is latched into status() — callers
  /// poll it at morsel granularity and abort the aggregation.
  void set_tracker(MemoryTracker* tracker) { tracker_ = tracker; }
  const Status& status() const { return status_; }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  struct Slot {
    int64_t key;
    uint32_t group;  // kEmpty marks a free slot
  };
  void GrowIfNeeded();

  KeyLayout layout_;
  std::vector<const ColumnData*> key_cols_;
  size_t num_groups_ = 0;
  // kInt64 / kDict32: open addressing + an out-of-band NULL group.
  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  size_t used_ = 0;
  uint32_t null_group_ = kEmpty;
  // kSerialized fallback.
  std::unordered_map<std::string, uint32_t> serialized_;
  std::string scratch_;
  // Governor accounting (see set_tracker).
  MemoryTracker* tracker_ = nullptr;
  int64_t charged_bytes_ = 0;
  Status status_;
};

}  // namespace vdm

#endif  // VDMQO_EXEC_HASH_TABLE_H_

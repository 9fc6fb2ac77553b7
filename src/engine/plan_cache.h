// Parameterized plan cache (paper §8 "compile-time matters for VDM").
//
// Enterprise VDM statements are machine-generated and highly repetitive;
// with deep view stacks the parse + bind (view inlining) + optimize path
// dominates short transactional queries. The cache stores fully optimized
// plans keyed on the parameterized statement text (sql/parameterize.h)
// plus an optimizer-config fingerprint and the catalog version, so a hit
// skips compilation entirely and only rebinds parameter values.
//
// Cached plans contain ParamExpr slots where literals were lifted and
// sentinel LIMIT/OFFSET values (kLimitSentinel / kOffsetSentinel) where
// the real paging window goes. BindCachedPlan substitutes both and then
// re-derives JoinOp::limit_hint so the executor's early-exit budgets match
// the real window, not the sentinel.
//
// Invalidation: the catalog schema version is part of the key, so any DDL
// makes every old entry unreachable; a statistics refresh retires only the
// entries that scan the refreshed table (CachedPlan::table_stats_versions);
// profile and optimizer-config changes clear the cache outright. Commits
// invalidate nothing — a plan's correctness does not depend on the data.
#ifndef VDMQO_ENGINE_PLAN_CACHE_H_
#define VDMQO_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "optimizer/optimizer.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace vdm {

/// One cached, optimized, verified plan. Immutable after insertion; shared
/// by concurrent readers.
struct CachedPlan {
  PlanRef plan;
  std::vector<DataType> param_types;
  bool has_limit = false;
  bool has_offset = false;
  /// Catalog::stats_version() of every base table the bound plan scans,
  /// recorded at compile time. A hit is only served while all of them
  /// still match: fresh statistics on one table recompile the plans that
  /// scan it and leave plans over *other* tables warm.
  std::vector<std::pair<std::string, uint64_t>> table_stats_versions;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
};

/// Bounded, thread-safe LRU map from cache-key text to CachedPlan.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the entry (moving it to most-recently-used) or nullptr.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key);

  /// Inserts (or replaces) the entry, evicting the least recently used
  /// entry when over capacity.
  void Insert(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  /// Drops one entry whose recorded table stats versions no longer match
  /// (counted as an invalidation, not an eviction). No-op when absent.
  void Invalidate(const std::string& key);

  /// Drops every entry (profile / optimizer-config change).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;
  void ResetStats();

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const CachedPlan>>;

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
};

/// Stable hash of every plan-shaping OptimizerConfig field. Pointer-valued
/// fields (stats_catalog, verification_hook) are excluded: statistics are
/// covered by each entry's table_stats_versions, and hooks do not change
/// the produced plan.
uint64_t FingerprintConfig(const OptimizerConfig& config);

/// Composes the full cache key for a parameterized statement.
std::string ComposePlanCacheKey(const std::string& normalized_sql,
                                uint64_t config_fingerprint,
                                uint64_t catalog_version);

/// Insert-time safety check on the *bound* (pre-optimization) plan: the
/// sentinel limit values must appear in exactly the one LimitOp the
/// parameterizer introduced — a view-inlined LIMIT whose limit, offset, or
/// limit+offset collides with a sentinel combination would make hit-time
/// rebinding ambiguous, so such statements are not cached.
bool LimitSentinelsUnambiguous(const PlanRef& bound_plan, bool has_limit,
                               bool has_offset);

/// Rebinds a cached plan to concrete values: replaces every ParamExpr slot
/// with a literal, rewrites sentinel LimitOps to the real (limit, offset)
/// window, clears stale JoinOp::limit_hint annotations and re-derives them.
/// Fails (caller falls back to uncached compilation) on any slot/sentinel
/// mismatch.
Result<PlanRef> BindCachedPlan(const CachedPlan& cached,
                               const std::vector<Value>& params,
                               int64_t limit, int64_t offset);

}  // namespace vdm

#endif  // VDMQO_ENGINE_PLAN_CACHE_H_

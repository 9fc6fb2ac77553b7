// Database facade: catalog + storage + binder + optimizer + executor.
//
// This is the public entry point a downstream user works with:
//
//   vdm::Database db;
//   db.Execute("create table t (k int primary key, v varchar)");
//   db.Insert("t", {{Value::Int64(1), Value::String("x")}});
//   auto result = db.Query("select * from t");
//   std::cout << result->ToString();
//
// Query optimization runs under a configurable capability profile (see
// optimizer.h); Explain() shows the optimized plan, ExplainRaw() the plan
// as bound (all views inlined, nothing removed — the paper's Fig. 3 form).
#ifndef VDMQO_ENGINE_DATABASE_H_
#define VDMQO_ENGINE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/query_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/plan_cache.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "sql/parameterize.h"
#include "storage/table.h"
#include "txn/transaction.h"
#include "types/column.h"

namespace vdm {

/// Per-query time breakdown (nanoseconds). Populated by Query() when a
/// timing sink is passed; rendered by ExplainAnalyze() and the benchmark
/// JSON reports. On a plan-cache hit, parse/bind/optimize are zero and
/// rebind_ns carries the parameter-rebinding cost.
/// Per-query resource limits — the query lifecycle governor's contract.
/// Zero or negative fields disable that limit. Database's session defaults
/// come from the environment at construction: VDM_TIMEOUT_MS,
/// VDM_MEM_LIMIT_MB, and VDM_MAX_QUEUED_MS (per-call values override).
struct ExecLimits {
  /// Wall-clock execution deadline; exceeding it returns
  /// kDeadlineExceeded within one morsel.
  int64_t timeout_ms = 0;
  /// Bytes of tracked allocation (hash tables, probe buffers) this query
  /// may hold. Exceeding it triggers the degradation ladder: retry
  /// serially with tight hash tables, and only then kResourceExhausted.
  int64_t memory_budget = 0;
  /// Longest a query waits at the admission gate (VDM_MAX_CONCURRENT)
  /// before giving up with kResourceExhausted. Queueing, not rejection.
  int64_t max_queued_ms = 10000;
};

/// Session-level transaction counters (rendered by ExplainAnalyze and the
/// vdmsql `.analyze` output).
struct TxnStats {
  uint64_t commits = 0;
  uint64_t rollbacks = 0;
  /// kSerializationFailure conflicts observed (statement- or commit-time).
  uint64_t conflicts = 0;
  /// Auto-commit DML statements re-run after a conflict.
  uint64_t retries = 0;
  /// Background / explicit MVCC delta merges completed.
  uint64_t merges = 0;
};

/// A prepared statement (server EXECUTE-BOUND path): one SELECT's
/// parameterization, captured once at Prepare. Execution goes through the
/// parameterized plan cache with the caller's values, so DML-driven
/// invalidation transparently recompiles ("rebind across invalidation") —
/// the handle itself never goes stale. Immutable after Prepare; safe to
/// share across threads and sessions.
struct PreparedStatement {
  /// Original statement text (also the direct-mode execution form).
  std::string sql;
  /// Parameterized form; `parameterized.params` are the prepare-time
  /// literal values, used as defaults when EXECUTE passes none.
  ParameterizedStatement parameterized;
  /// False = not parameterizable (or limit-sentinel-ambiguous): EXECUTE
  /// re-runs the original text and accepts no parameter overrides.
  bool parameterized_ok = false;
};

struct QueryTiming {
  int64_t parameterize_ns = 0;
  int64_t parse_ns = 0;
  int64_t bind_ns = 0;
  int64_t optimize_ns = 0;
  int64_t rebind_ns = 0;
  int64_t execute_ns = 0;
  /// Fixpoint iterations of the last optimize run (0 = nothing was
  /// optimized, e.g. a plan-cache hit) and whether it converged before
  /// OptimizerConfig::max_passes.
  int optimize_passes = 0;
  bool optimize_converged = false;
  /// That run's inference-engine counters: node derivations computed and
  /// served from the run's memo (OptimizeResult::props_computed/reused).
  size_t props_computed = 0;
  size_t props_reused = 0;
  /// The plan-cache path was eligible for this statement.
  bool used_cache = false;
  bool cache_hit = false;
  int64_t compile_ns() const {
    return parameterize_ns + parse_ns + bind_ns + optimize_ns + rebind_ns;
  }
};

class Database {
 public:
  /// Default plan-cache capacity (entries) when enabled without an
  /// explicit size.
  static constexpr size_t kDefaultPlanCacheCapacity = 64;

  /// Honors VDM_PLAN_CACHE / VDM_PLAN_CACHE_CAPACITY environment knobs.
  Database();
  /// Drains the worker pool (queued merges are cancelled) and rolls back
  /// open transactions.
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  StorageManager& storage() { return storage_; }
  const StorageManager& storage() const { return storage_; }

  /// Sets the optimizer capability profile for subsequent queries.
  /// Invalidates the plan cache.
  void SetProfile(SystemProfile profile);
  void SetOptimizerConfig(OptimizerConfig config);
  const OptimizerConfig& optimizer_config() const {
    return optimizer_config_;
  }

  /// Sets executor options (thread count, morsel size, limit early-exit)
  /// for subsequent queries, growing the worker pool to
  /// `options.num_threads` workers when that is larger. Must not race with
  /// queries.
  void SetExecOptions(ExecOptions options);
  const ExecOptions& exec_options() const { return exec_options_; }

  /// The one worker pool: server statements, query morsels and background
  /// merges all run on it. It starts with ThreadPool::DefaultThreads()
  /// workers, grows on demand and lives as long as the Database.
  ThreadPool& thread_pool() { return *pool_; }

  /// Executes a DDL, DML, or query statement. For SELECT, returns the
  /// result chunk; for DML, a one-row `rows_affected` chunk; for DDL, an
  /// empty chunk. DML auto-commits (with bounded retry on serialization
  /// failures — VDM_TXN_RETRIES); transaction control statements require
  /// ExecuteSession. The overload taking ExecLimits applies them to
  /// SELECTs (DDL and DML are not governed).
  Result<Chunk> Execute(const std::string& sql);
  Result<Chunk> Execute(const std::string& sql, const ExecLimits& limits);

  // --- transactions (DESIGN.md §15) ---
  /// Opens an explicit snapshot-isolation transaction. The handle stays
  /// valid until CommitTxn or RollbackTxn finishes it (Database teardown
  /// rolls back any still-open transaction).
  Transaction* BeginTxn();
  /// Commits. On a serialization failure (including the injected
  /// `txn.commit.conflict` fault) the transaction is rolled back before
  /// kSerializationFailure is returned, so the handle is consumed either
  /// way — never reuse it after CommitTxn returns.
  Status CommitTxn(Transaction* txn);
  /// Rolls back. Under the injected `txn.rollback` fault this returns the
  /// injected error with the transaction STILL OPEN — the call is
  /// retryable, and teardown cleans up if the caller gives up.
  Status RollbackTxn(Transaction* txn);

  /// Session-statement entry point: like Execute, but BEGIN / COMMIT /
  /// ROLLBACK manage `*session`, and while `*session` is non-null every
  /// SELECT reads the transaction's snapshot and every DML statement
  /// joins its write set (conflicts surface immediately — the caller owns
  /// retry; auto-commit retry applies only outside a transaction).
  Result<Chunk> ExecuteSession(const std::string& sql, Transaction** session);
  /// Server variant: explicit limits, an optional caller-owned governor
  /// context (cross-thread CANCEL; its memory tracker may charge into a
  /// tenant class), and an optional timing sink (the server's RESULT frame
  /// reports the plan-cache outcome).
  Result<Chunk> ExecuteSession(const std::string& sql, Transaction** session,
                               const ExecLimits& limits,
                               QueryContext* ctx = nullptr,
                               QueryTiming* timing = nullptr);

  // --- prepared statements (server EXECUTE-BOUND path) ---
  /// Parameterizes and trial-compiles one SELECT. Statements that cannot
  /// be parameterized still prepare (direct mode: EXECUTE re-runs the
  /// text); non-SELECT statements are rejected.
  Result<std::shared_ptr<const PreparedStatement>> Prepare(
      const std::string& sql);
  /// Executes a prepared statement with `params` (empty = prepare-time
  /// values; count and types must otherwise match). `limit` / `offset`
  /// < 0 keep the prepare-time values. Plans come from the parameterized
  /// plan cache when enabled (DML invalidation forces a recompile), or
  /// are recompiled from the stored token stream per call.
  Result<Chunk> ExecutePrepared(const PreparedStatement& stmt,
                                const std::vector<Value>& params,
                                int64_t limit, int64_t offset,
                                const ExecLimits& limits,
                                ExecMetrics* metrics = nullptr,
                                QueryTiming* timing = nullptr,
                                QueryContext* ctx = nullptr);

  TxnManager& txn_manager() { return txn_mgr_; }
  TxnStats txn_stats() const;

  /// Sets the delta-rows threshold at which a commit or rollback submits a
  /// background MVCC merge of the written table to the worker pool (0
  /// disables; also settable via VDM_MERGE_THRESHOLD at construction).
  void SetMergeThreshold(size_t rows);
  /// Runs one MVCC delta-to-main merge of `table` synchronously at the
  /// current transaction watermark, then refreshes its statistics and data
  /// version. kResourceExhausted = concurrent writers or a racing version
  /// publish; retry later. Fault points: storage.merge.remap,
  /// storage.merge.abort.
  Status MergeTableMvcc(const std::string& table);

  /// Executes a SELECT and returns its result. Refreshes any stale
  /// dynamic cached views first (DCV semantics, §3). With the plan cache
  /// enabled, repeated statements that differ only in eligible literals
  /// (see sql/parameterize.h) skip parse + bind + optimize and only rebind
  /// values. `timing`, when given, receives the compile/execute breakdown.
  /// The first overload runs under the session default limits.
  Result<Chunk> Query(const std::string& sql, ExecMetrics* metrics = nullptr,
                      QueryTiming* timing = nullptr);
  /// Governed variant: `limits` set the deadline / memory budget /
  /// admission wait for this call. `ctx`, when given, is the caller-owned
  /// governor handle — RequestCancel() on it from any thread cancels the
  /// running query; it also carries the limits, so reusing one context
  /// across calls accumulates its counters.
  Result<Chunk> Query(const std::string& sql, const ExecLimits& limits,
                      ExecMetrics* metrics = nullptr,
                      QueryTiming* timing = nullptr,
                      QueryContext* ctx = nullptr);

  /// Session default limits (seeded from the environment; see ExecLimits).
  const ExecLimits& default_limits() const { return default_limits_; }
  void set_default_limits(const ExecLimits& limits) {
    default_limits_ = limits;
  }

  // --- plan cache (engine/plan_cache.h) ---
  /// Enables the parameterized plan cache for subsequent queries.
  void EnablePlanCache(size_t capacity = kDefaultPlanCacheCapacity);
  void DisablePlanCache();
  bool plan_cache_enabled() const { return plan_cache_enabled_; }
  PlanCacheStats plan_cache_stats() const { return plan_cache_->stats(); }
  void ResetPlanCacheStats() { plan_cache_->ResetStats(); }
  size_t plan_cache_size() const { return plan_cache_->size(); }

  /// Runs the query and renders its plan together with the compile/execute
  /// time split and the plan-cache outcome.
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Appends rows to a table (storage delta fragment).
  Status Insert(const std::string& table,
                const std::vector<std::vector<Value>>& rows);

  /// Binds a SELECT without optimizing (the raw inlined plan, Fig. 3).
  Result<PlanRef> BindQuery(const std::string& sql) const;
  /// Binds and optimizes under the current profile.
  Result<PlanRef> PlanQuery(const std::string& sql) const;
  /// Optimizes an already-bound plan under the current profile. When the
  /// config enables verify_rewrites (and no hook is installed already), a
  /// RewriteAuditor checks every rewrite; audit failures surface here.
  /// `timing`, when given, gets the optimize wall time added and the pass
  /// count and convergence recorded. Safe to call concurrently.
  Result<PlanRef> OptimizePlan(const PlanRef& plan,
                               QueryTiming* timing = nullptr) const;
  /// Executes an arbitrary plan directly. `ctx`, when given, governs the
  /// run (cancellation, deadline, memory charging); there is no admission
  /// gate or degradation retry on this low-level path.
  Result<Chunk> ExecutePlan(const PlanRef& plan,
                            ExecMetrics* metrics = nullptr,
                            QueryContext* ctx = nullptr) const;

  /// Rendered optimized plan.
  Result<std::string> Explain(const std::string& sql) const;
  /// Rendered raw (bound, unoptimized) plan.
  Result<std::string> ExplainRaw(const std::string& sql) const;

  /// Cached views (paper §3): materializes the view's current result into
  /// a hidden table; subsequent queries read the snapshot. kStatic (SCV)
  /// snapshots are stale until RefreshMaterializedView; kDynamic (DCV)
  /// snapshots are refreshed automatically when a Query() observes that a
  /// base table changed. (The paper's DCV is incrementally maintained;
  /// refresh-on-read is the observably equivalent simplification.)
  Status MaterializeView(
      const std::string& name,
      ViewDef::CacheMode mode = ViewDef::CacheMode::kStatic);
  /// Recomputes the snapshot from current data.
  Status RefreshMaterializedView(const std::string& name);
  /// Returns the view to on-the-fly evaluation.
  Status DematerializeView(const std::string& name);
  /// Refreshes every stale dynamic cached view (called by Query()).
  Status EnsureFreshCaches();

  /// §7.3 tool: verifies a declared join-cardinality / unique-key claim
  /// against the actual data.
  Result<bool> VerifyDeclaredUnique(const std::string& table,
                                    const std::vector<std::string>& columns)
      const;

  /// Merges all delta fragments into main (dictionary-compressed) storage
  /// and refreshes table statistics.
  void MergeAllDeltas();

  /// Refreshes catalog table statistics from storage (the ANALYZE
  /// equivalent; feeds join ordering and cardinality estimation). Full
  /// per-column statistics by default; VDM_STATS=0 degrades to row counts
  /// only. Bumps every table's stats version, retiring cached plans.
  void AnalyzeTables();

 private:
  Status BuildSnapshot(ViewDef view, bool replace_existing);

  /// Shared statement dispatch behind Execute and ExecuteSession.
  /// `session` may be null (plain Execute): transaction control then
  /// fails and DML auto-commits.
  Result<Chunk> ExecuteStatement(const Statement& stmt, const std::string& sql,
                                 const ExecLimits& limits,
                                 Transaction** session,
                                 QueryContext* ctx = nullptr,
                                 QueryTiming* timing = nullptr);

  /// Auto-commit DML: begin, execute, commit; on kSerializationFailure
  /// roll back and retry up to txn_retries_ times with exponential
  /// backoff before surfacing the failure.
  Result<Chunk> ExecuteDmlAutoCommit(const Statement& stmt);

  /// Fault-free rollback primitive (internal cleanup paths; the
  /// fault-checked RollbackTxn wraps it). Offers the written tables for
  /// merging, like a commit.
  void FinishRollback(Transaction* txn);
  /// Post-commit bookkeeping for every written table: auto-analyze
  /// delta-heavy tables, offer background merges. A commit itself
  /// invalidates no cached plan.
  void AfterCommit(const std::vector<Table*>& written);
  /// Submits a merge task for every table whose delta holds at least
  /// merge_threshold_ rows, unless one is already queued or running for
  /// it; that task then tries once more.
  void OfferMerges(const std::vector<Table*>& tables);
  /// The merge task: merges `table` while its delta stays at or above the
  /// threshold and a commit or rollback offered it during the last try.
  void RunMerges(const std::string& table);
  /// Drops the handle from open_txns_ (destroying the Transaction).
  void ReleaseTxnHandle(Transaction* txn);
  /// Recollects one table's statistics under the current VDM_STATS mode
  /// (bumps its stats version via SetTableStats).
  void RefreshTableStats(const std::string& name);

  /// The governed execution path shared by Query and ExplainAnalyze:
  /// admission gate, context setup from `limits`, parallel execution, and
  /// the serial degradation retry on kResourceExhausted.
  Result<Chunk> GovernedExecute(const PlanRef& plan, const ExecLimits& limits,
                                ExecMetrics* metrics, QueryContext* ctx) const;

  /// Recomputes the config fingerprint, clears the plan cache, and rebuilds
  /// the shared optimizer. Called whenever optimizer_config_ changes.
  void OnOptimizerConfigChanged();

  /// Applies environment overrides (VDM_JOIN_REORDER) to the current
  /// profile-derived optimizer config. Called from the constructor and
  /// SetProfile — not from SetOptimizerConfig, which is taken verbatim.
  void ApplyEnvOverrides();

  /// True when this statement may use the plan cache at all (cache enabled
  /// and no per-query verification/fault-injection mode active).
  bool PlanCacheUsable() const;

  /// Produces an executable plan via the plan cache: parameterize, look
  /// up, rebind on hit; parse + bind + optimize + verify + insert on miss.
  /// Any failure along the parameterized path falls back to the plain
  /// compile pipeline (PlanQueryTimed).
  Result<PlanRef> PlanQueryCached(const std::string& sql,
                                  QueryTiming* timing);

  /// Plans a prepared statement with the given values: plan-cache lookup
  /// and rebind when usable, otherwise recompile from the stored token
  /// stream. Unlike PlanQueryCached there is no original-text fallback —
  /// the text carries prepare-time literals, not `params`.
  Result<PlanRef> PlanPrepared(const PreparedStatement& stmt,
                               const std::vector<Value>& params,
                               int64_t limit, int64_t offset,
                               QueryTiming* timing);

  /// The plan-cache hit path shared by PlanQueryCached and PlanPrepared:
  /// looks `key` up, drops the entry if a table it scans has fresh
  /// statistics, and rebinds it to the given values. nullptr means the
  /// caller compiles.
  PlanRef ServeCachedPlan(const std::string& key,
                          const std::vector<Value>& params, int64_t limit,
                          int64_t offset, QueryTiming* timing);
  /// A cache entry for `ps` without its plan, recording the stats version
  /// of every table `bound` scans. Called before optimizing, so statistics
  /// refreshed during the compile retire the entry on its first hit.
  std::shared_ptr<CachedPlan> NewCachedPlan(const ParameterizedStatement& ps,
                                            const PlanRef& bound) const;

  /// Uncached compile pipeline with the same timing breakdown.
  Result<PlanRef> PlanQueryTimed(const std::string& sql,
                                 QueryTiming* timing) const;

  Catalog catalog_;
  StorageManager storage_;
  OptimizerConfig optimizer_config_;
  ExecOptions exec_options_;
  // Shared optimizer for the common non-verifying path, rebuilt with every
  // config change (the config copy is large enough to show up on short
  // compile paths). Optimizer is stateless, so concurrent sessions compile
  // through it in parallel without a lock. Config changes must not race
  // with queries (the same holds for optimizer_config_ itself).
  std::unique_ptr<const Optimizer> optimizer_;
  // Serializes dynamic-cached-view freshness checks/refreshes across
  // concurrent sessions (a refresh rewrites catalog + storage state).
  mutable std::mutex caches_mu_;
  std::unique_ptr<PlanCache> plan_cache_;
  bool plan_cache_enabled_ = false;
  // Full per-column statistics collection in AnalyzeTables (VDM_STATS;
  // off = row counts only, the pre-§14 behavior).
  bool stats_enabled_ = true;
  uint64_t config_fingerprint_ = 0;
  // Governor state. The admission gate (VDM_MAX_CONCURRENT; 0 = open)
  // bounds concurrent GovernedExecute calls; excess queries queue up to
  // ExecLimits::max_queued_ms, then fail kResourceExhausted.
  ExecLimits default_limits_;
  size_t max_concurrent_ = 0;
  mutable std::mutex admit_mu_;
  mutable std::condition_variable admit_cv_;
  mutable size_t running_queries_ = 0;  // guarded by admit_mu_

  // --- transactions & background merge (§15) ---
  // txn_mgr_ must outlive open_txns_ (handle destructors roll back into
  // it) — declared first so it is destroyed last.
  TxnManager txn_mgr_;
  std::mutex txns_mu_;
  std::map<Transaction*, std::unique_ptr<Transaction>> open_txns_;
  int txn_retries_ = 5;  // VDM_TXN_RETRIES
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> rollbacks_{0};
  std::atomic<uint64_t> conflicts_{0};
  std::atomic<uint64_t> txn_retries_used_{0};
  std::atomic<uint64_t> merges_done_{0};
  // Background merges: commits and rollbacks offer tables whose delta
  // reached merge_threshold_ (OfferMerges). merge_tasks_ maps each table
  // with a merge task queued or running to "offered again since that task
  // last tried".
  std::mutex merge_mu_;
  std::map<std::string, bool> merge_tasks_;  // guarded by merge_mu_
  bool merge_stop_ = false;                  // guarded by merge_mu_
  size_t merge_threshold_ = 0;               // guarded by merge_mu_

  // Declared last: the destructor drains it before the state its tasks
  // touch goes away.
  std::unique_ptr<ThreadPool> pool_ =
      std::make_unique<ThreadPool>(ThreadPool::DefaultThreads());
};

}  // namespace vdm

#endif  // VDMQO_ENGINE_DATABASE_H_

#include "engine/database.h"

#include <chrono>
#include <cstdlib>

#include <algorithm>
#include <thread>

#include "analysis/plan_verifier.h"
#include "analysis/rewrite_auditor.h"
#include "analysis/stats/cardinality.h"
#include "analysis/stats/table_stats.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "engine/dml.h"
#include "expr/eval.h"
#include "expr/fold.h"
#include "plan/plan_printer.h"
#include "sql/binder.h"
#include "sql/parameterize.h"
#include "sql/parser.h"

namespace vdm {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  return std::strtoll(env, nullptr, 10);
}

/// Estimated total plan cost (abstract row-touch units) below which a
/// query runs serially even when a worker pool is available: morsel
/// fan-out overhead exceeds the work. Results are byte-identical either
/// way, so this is purely a latency decision.
constexpr double kSerialCostThreshold = 50000.0;

}  // namespace

Database::Database()
    : optimizer_config_(ConfigForProfile(SystemProfile::kHana)) {
  size_t capacity = kDefaultPlanCacheCapacity;
  if (const char* env = std::getenv("VDM_PLAN_CACHE_CAPACITY")) {
    capacity = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  plan_cache_ = std::make_unique<PlanCache>(capacity);
  if (const char* env = std::getenv("VDM_PLAN_CACHE")) {
    plan_cache_enabled_ = env[0] != '\0' && std::string(env) != "0";
  }
  // Governor defaults (ExecLimits doc comment lists the knobs).
  default_limits_.timeout_ms = EnvInt64("VDM_TIMEOUT_MS", 0);
  int64_t mem_mb = EnvInt64("VDM_MEM_LIMIT_MB", 0);
  if (mem_mb > 0) default_limits_.memory_budget = mem_mb * (int64_t{1} << 20);
  default_limits_.max_queued_ms =
      EnvInt64("VDM_MAX_QUEUED_MS", default_limits_.max_queued_ms);
  int64_t max_concurrent = EnvInt64("VDM_MAX_CONCURRENT", 0);
  if (max_concurrent > 0) {
    max_concurrent_ = static_cast<size_t>(max_concurrent);
  }
  stats_enabled_ = EnvInt64("VDM_STATS", 1) != 0;
  txn_retries_ = static_cast<int>(
      std::max<int64_t>(0, EnvInt64("VDM_TXN_RETRIES", txn_retries_)));
  ApplyEnvOverrides();
  OnOptimizerConfigChanged();
  int64_t merge_threshold = EnvInt64("VDM_MERGE_THRESHOLD", 0);
  if (merge_threshold > 0) {
    SetMergeThreshold(static_cast<size_t>(merge_threshold));
  }
}

Database::~Database() {
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    merge_stop_ = true;
  }
  // Drain the pool while the state its tasks use is still alive: queued
  // merges see merge_stop_ and return, a running one is cancelled at its
  // next check_alive.
  pool_.reset();
  // Roll back any transaction the caller abandoned (handle destructors
  // use the fault-free primitive).
  std::lock_guard<std::mutex> lock(txns_mu_);
  open_txns_.clear();
}

void Database::ApplyEnvOverrides() {
  // VDM_JOIN_REORDER=0 pins the view-text join order (the pre-§14
  // behavior) regardless of profile; =1 forces reordering on. Applied to
  // profile-derived configs only — an explicit SetOptimizerConfig is the
  // caller's exact intent and is left alone.
  if (const char* env = std::getenv("VDM_JOIN_REORDER")) {
    if (env[0] != '\0') {
      optimizer_config_.join_reordering = std::string(env) != "0";
    }
  }
}

void Database::SetExecOptions(ExecOptions options) {
  exec_options_ = options;
  pool_->EnsureWorkers(options.num_threads);
}

void Database::SetProfile(SystemProfile profile) {
  optimizer_config_ = ConfigForProfile(profile);
  ApplyEnvOverrides();
  OnOptimizerConfigChanged();
}

void Database::SetOptimizerConfig(OptimizerConfig config) {
  optimizer_config_ = std::move(config);
  OnOptimizerConfigChanged();
}

void Database::OnOptimizerConfigChanged() {
  config_fingerprint_ = FingerprintConfig(optimizer_config_);
  // stats_catalog points at the live catalog, so refreshed statistics are
  // picked up without a rebuild.
  OptimizerConfig config = optimizer_config_;
  config.stats_catalog = &catalog_;
  optimizer_ = std::make_unique<const Optimizer>(std::move(config));
  plan_cache_->Clear();
}

void Database::EnablePlanCache(size_t capacity) {
  plan_cache_ = std::make_unique<PlanCache>(capacity);
  plan_cache_enabled_ = true;
}

void Database::DisablePlanCache() {
  plan_cache_enabled_ = false;
  plan_cache_->Clear();
}

bool Database::PlanCacheUsable() const {
  // verify_rewrites_exec re-executes every rewrite against real data and
  // debug_corrupt_pass injects per-query faults: both must see the full
  // compile pipeline on every statement.
  return plan_cache_enabled_ && !optimizer_config_.verify_rewrites_exec &&
         optimizer_config_.debug_corrupt_pass == nullptr;
}

Result<Chunk> Database::Execute(const std::string& sql) {
  return Execute(sql, default_limits_);
}

Result<Chunk> Database::Execute(const std::string& sql,
                                const ExecLimits& limits) {
  VDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return ExecuteStatement(stmt, sql, limits, /*session=*/nullptr);
}

Result<Chunk> Database::ExecuteSession(const std::string& sql,
                                       Transaction** session) {
  VDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return ExecuteStatement(stmt, sql, default_limits_, session);
}

Result<Chunk> Database::ExecuteSession(const std::string& sql,
                                       Transaction** session,
                                       const ExecLimits& limits,
                                       QueryContext* ctx,
                                       QueryTiming* timing) {
  VDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return ExecuteStatement(stmt, sql, limits, session, ctx, timing);
}

namespace {

/// The one-row result every DML statement returns.
Chunk DmlResultChunk(size_t affected) {
  Chunk out;
  out.names.push_back("rows_affected");
  ColumnData col(DataType::Int64());
  col.AppendInt(static_cast<int64_t>(affected));
  out.columns.push_back(std::move(col));
  return out;
}

}  // namespace

Result<Chunk> Database::ExecuteStatement(const Statement& stmt,
                                         const std::string& sql,
                                         const ExecLimits& limits,
                                         Transaction** session,
                                         QueryContext* ctx,
                                         QueryTiming* timing) {
  Transaction* txn = session != nullptr ? *session : nullptr;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      if (txn != nullptr) {
        QueryContext local_ctx;
        QueryContext* qc = ctx != nullptr ? ctx : &local_ctx;
        qc->set_snapshot(txn->snapshot());
        return Query(sql, limits, nullptr, timing, qc);
      }
      return Query(sql, limits, nullptr, timing, ctx);
    case Statement::Kind::kCreateTable: {
      if (txn != nullptr) {
        return Status::InvalidArgument(
            "DDL inside an open transaction is not supported");
      }
      VDM_RETURN_NOT_OK(catalog_.RegisterTable(stmt.create_table->schema));
      VDM_RETURN_NOT_OK(storage_.CreateTable(stmt.create_table->schema));
      return Chunk{};
    }
    case Statement::Kind::kCreateView: {
      if (txn != nullptr) {
        return Status::InvalidArgument(
            "DDL inside an open transaction is not supported");
      }
      ViewDef view;
      view.name = stmt.create_view->name;
      view.sql = stmt.create_view->select_sql;
      view.macros = stmt.create_view->macros;
      view.associations = stmt.create_view->associations;
      // Validate the view definition binds cleanly now, not at first use.
      Binder binder(&catalog_);
      Result<PlanRef> bound = binder.BindSelect(*stmt.create_view->select);
      if (!bound.ok()) return bound.status();
      if (stmt.create_view->or_replace) {
        VDM_RETURN_NOT_OK(catalog_.ReplaceView(std::move(view)));
      } else {
        VDM_RETURN_NOT_OK(catalog_.RegisterView(std::move(view)));
      }
      return Chunk{};
    }
    case Statement::Kind::kInsert:
    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete: {
      if (txn == nullptr) return ExecuteDmlAutoCommit(stmt);
      // Inside an explicit transaction a conflict surfaces immediately —
      // the statement left no partial effects, and the caller decides
      // whether to roll the whole transaction back and retry.
      Result<size_t> affected =
          ExecuteDmlStatement(stmt, catalog_, &storage_, txn);
      if (!affected.ok()) {
        if (affected.status().code() == StatusCode::kSerializationFailure) {
          conflicts_.fetch_add(1, std::memory_order_relaxed);
        }
        return affected.status();
      }
      return DmlResultChunk(*affected);
    }
    case Statement::Kind::kBegin: {
      if (session == nullptr) {
        return Status::InvalidArgument(
            "transaction control requires a session (use ExecuteSession)");
      }
      if (txn != nullptr) {
        return Status::InvalidArgument("a transaction is already open");
      }
      *session = BeginTxn();
      return Chunk{};
    }
    case Statement::Kind::kCommit: {
      if (session == nullptr || *session == nullptr) {
        return Status::InvalidArgument("no open transaction to commit");
      }
      // CommitTxn consumes the handle even on a commit-time conflict (it
      // rolls back first), so the session slot clears either way.
      Status st = CommitTxn(*session);
      *session = nullptr;
      if (!st.ok()) return st;
      return Chunk{};
    }
    case Statement::Kind::kRollback: {
      if (session == nullptr || *session == nullptr) {
        return Status::InvalidArgument("no open transaction to roll back");
      }
      // An injected txn.rollback fault leaves the transaction open and
      // the statement retryable, so the session slot is kept.
      Status st = RollbackTxn(*session);
      if (!st.ok()) return st;
      *session = nullptr;
      return Chunk{};
    }
  }
  return Status::Internal("unreachable");
}

Result<Chunk> Database::Query(const std::string& sql, ExecMetrics* metrics,
                              QueryTiming* timing) {
  return Query(sql, default_limits_, metrics, timing);
}

Result<Chunk> Database::Query(const std::string& sql, const ExecLimits& limits,
                              ExecMetrics* metrics, QueryTiming* timing,
                              QueryContext* ctx) {
  VDM_RETURN_NOT_OK(EnsureFreshCaches());
  QueryTiming local;
  QueryTiming* t = timing != nullptr ? timing : &local;
  *t = QueryTiming{};
  PlanRef plan;
  if (PlanCacheUsable()) {
    t->used_cache = true;
    VDM_ASSIGN_OR_RETURN(plan, PlanQueryCached(sql, t));
  } else {
    VDM_ASSIGN_OR_RETURN(plan, PlanQueryTimed(sql, t));
  }
  int64_t start = NowNs();
  Result<Chunk> result = GovernedExecute(plan, limits, metrics, ctx);
  t->execute_ns = NowNs() - start;
  return result;
}

namespace {

/// Releases one admission-gate slot on scope exit (all GovernedExecute
/// return paths, including degradation retries and injected faults).
struct AdmissionRelease {
  std::mutex* mu = nullptr;
  std::condition_variable* cv = nullptr;
  size_t* running = nullptr;
  AdmissionRelease() = default;
  AdmissionRelease(const AdmissionRelease&) = delete;
  AdmissionRelease& operator=(const AdmissionRelease&) = delete;
  ~AdmissionRelease() {
    if (mu == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(*mu);
      --*running;
    }
    cv->notify_one();
  }
};

}  // namespace

Result<Chunk> Database::GovernedExecute(const PlanRef& plan,
                                        const ExecLimits& limits,
                                        ExecMetrics* metrics,
                                        QueryContext* ctx) const {
  QueryContext local_ctx;
  QueryContext* qc = ctx != nullptr ? ctx : &local_ctx;
  if (limits.timeout_ms > 0) qc->SetTimeout(limits.timeout_ms);
  if (limits.memory_budget > 0) qc->memory().set_limit(limits.memory_budget);
  // Pin the read snapshot at the latest PUBLISHED commit unless the
  // caller installed one (an explicit transaction's repeatable-read
  // snapshot). The commit clock is published only after every write of a
  // committing transaction is stamped, so a query admitted here can never
  // observe a torn commit even while writers run concurrently.
  if (qc->snapshot().read_ts == kMaxTs && qc->snapshot().txn_id == 0) {
    qc->set_snapshot(TxnSnapshot{txn_mgr_.clock(), 0});
  }

  // Admission gate: bounded queueing, not rejection. Nested engine work
  // (cache refresh snapshots) goes through ExecutePlan directly and never
  // re-enters the gate, so a running query cannot deadlock itself here.
  AdmissionRelease release;
  if (max_concurrent_ > 0) {
    int64_t wait_start = NowNs();
    std::unique_lock<std::mutex> lock(admit_mu_);
    bool admitted = admit_cv_.wait_for(
        lock, std::chrono::milliseconds(std::max<int64_t>(0, limits.max_queued_ms)),
        [&] { return running_queries_ < max_concurrent_; });
    if (!admitted) {
      return Status::ResourceExhausted(StrFormat(
          "admission queue timeout: %zu queries running, waited %lld ms",
          running_queries_,
          static_cast<long long>(std::max<int64_t>(0, limits.max_queued_ms))));
    }
    ++running_queries_;
    release.mu = &admit_mu_;
    release.cv = &admit_cv_;
    release.running = &running_queries_;
    lock.unlock();
    if (metrics != nullptr) {
      metrics->admission_wait_ns += static_cast<uint64_t>(NowNs() - wait_start);
    }
  }

  Result<Chunk> result = ExecutePlan(plan, metrics, qc);
  if (!result.ok() &&
      result.status().code() == StatusCode::kResourceExhausted &&
      !qc->degraded() && !qc->cancel_requested()) {
    // Degradation ladder rung 2: retry serially with tight hash-table
    // reservations and the per-query budget unenforced (the process-wide
    // limit still applies). Without a pool every operator runs the same
    // code inline, one morsel after another, so a successful retry is
    // byte-identical to the parallel result.
    qc->set_degraded(true);
    qc->memory().set_enforced(false);
    if (metrics != nullptr) ++metrics->degraded_serial_retries;
    Executor executor(&storage_, exec_options_, /*pool=*/nullptr);
    result = executor.Execute(plan, metrics, qc);
  }
  return result;
}

Result<PlanRef> Database::PlanQueryTimed(const std::string& sql,
                                         QueryTiming* timing) const {
  int64_t start = NowNs();
  Result<Statement> stmt = ParseStatement(sql);
  timing->parse_ns += NowNs() - start;
  if (!stmt.ok()) return stmt.status();
  if (stmt->kind != Statement::Kind::kSelect || stmt->select == nullptr) {
    return Status::InvalidArgument("not a SELECT statement: " + sql);
  }
  start = NowNs();
  Binder binder(&catalog_);
  Result<PlanRef> bound = binder.BindSelect(*stmt->select);
  timing->bind_ns += NowNs() - start;
  if (!bound.ok()) return bound.status();
  return OptimizePlan(*bound, timing);
}

PlanRef Database::ServeCachedPlan(const std::string& key,
                                  const std::vector<Value>& params,
                                  int64_t limit, int64_t offset,
                                  QueryTiming* timing) {
  std::shared_ptr<const CachedPlan> hit = plan_cache_->Lookup(key);
  if (hit == nullptr) return nullptr;
  // The key covers the schema version; statistics are validated per hit,
  // so fresh stats on table A retire only the plans that scan A.
  for (const auto& [table, version] : hit->table_stats_versions) {
    if (catalog_.stats_version(table) != version) {
      plan_cache_->Invalidate(key);
      return nullptr;
    }
  }
  const int64_t start = NowNs();
  Result<PlanRef> rebound = BindCachedPlan(*hit, params, limit, offset);
  timing->rebind_ns += NowNs() - start;
  if (!rebound.ok()) return nullptr;  // rebind mismatch: recompile
  timing->cache_hit = true;
  return *rebound;
}

std::shared_ptr<CachedPlan> Database::NewCachedPlan(
    const ParameterizedStatement& ps, const PlanRef& bound) const {
  auto cached = std::make_shared<CachedPlan>();
  cached->param_types = ps.param_types;
  cached->has_limit = ps.has_limit;
  cached->has_offset = ps.has_offset;
  // Every base table the *bound* plan scans: the optimizer may prove scans
  // redundant and drop them, but their statistics still shaped the plan.
  VisitPlan(bound, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kScan) return;
    const std::string table =
        ToLower(static_cast<const ScanOp&>(*node).table_name());
    for (const auto& [existing, version] : cached->table_stats_versions) {
      if (existing == table) return;
    }
    cached->table_stats_versions.emplace_back(table,
                                              catalog_.stats_version(table));
  });
  return cached;
}

Result<PlanRef> Database::PlanQueryCached(const std::string& sql,
                                          QueryTiming* timing) {
  // Every early `return PlanQueryTimed(...)` below is the safety valve:
  // anything unusual about the parameterized path (not cacheable, sentinel
  // ambiguity, parse/bind/optimize/verify/rebind failure) reverts to the
  // plain pipeline, which must behave exactly as with the cache disabled.
  int64_t start = NowNs();
  Result<ParameterizedStatement> ps = ParameterizeStatement(sql);
  timing->parameterize_ns += NowNs() - start;
  if (!ps.ok() || !ps->cacheable) {
    timing->used_cache = false;
    return PlanQueryTimed(sql, timing);
  }
  // An injected cache failure exercises the same safety valve as any
  // other parameterized-path problem: revert to the plain pipeline.
  if (!FaultInjection::Check("engine.plan_cache.lookup").ok()) {
    timing->used_cache = false;
    return PlanQueryTimed(sql, timing);
  }
  const std::string key =
      ComposePlanCacheKey(ps->key, config_fingerprint_, catalog_.version());
  if (PlanRef hit = ServeCachedPlan(key, ps->params, ps->limit, ps->offset,
                                    timing)) {
    return hit;
  }
  start = NowNs();
  Result<Statement> stmt = ParseTokenStream(sql, ps->tokens);
  timing->parse_ns += NowNs() - start;
  if (!stmt.ok() || stmt->kind != Statement::Kind::kSelect ||
      stmt->select == nullptr) {
    timing->used_cache = false;
    return PlanQueryTimed(sql, timing);
  }
  start = NowNs();
  Binder binder(&catalog_);
  Result<PlanRef> bound = binder.BindSelect(*stmt->select);
  timing->bind_ns += NowNs() - start;
  if (!bound.ok() ||
      !LimitSentinelsUnambiguous(*bound, ps->has_limit, ps->has_offset)) {
    timing->used_cache = false;
    return PlanQueryTimed(sql, timing);
  }
  std::shared_ptr<CachedPlan> cached = NewCachedPlan(*ps, *bound);
  Result<PlanRef> optimized = OptimizePlan(*bound, timing);
  if (!optimized.ok()) {
    timing->used_cache = false;
    return PlanQueryTimed(sql, timing);
  }
  // Plan integrity is checked once here, at insertion; hits skip it.
  if (!PlanVerifier::Verify(*optimized).ok()) {
    timing->used_cache = false;
    return PlanQueryTimed(sql, timing);
  }
  cached->plan = *optimized;
  start = NowNs();
  Result<PlanRef> rebound =
      BindCachedPlan(*cached, ps->params, ps->limit, ps->offset);
  timing->rebind_ns += NowNs() - start;
  if (!rebound.ok()) {
    timing->used_cache = false;
    return PlanQueryTimed(sql, timing);
  }
  plan_cache_->Insert(key, std::move(cached));
  return rebound;
}

// --- prepared statements (server EXECUTE-BOUND path) --------------------

Result<std::shared_ptr<const PreparedStatement>> Database::Prepare(
    const std::string& sql) {
  VDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect || stmt.select == nullptr) {
    return Status::NotImplemented(
        "only SELECT statements can be prepared; run DML/DDL as plain "
        "statements");
  }
  auto out = std::make_shared<PreparedStatement>();
  out->sql = sql;
  Result<ParameterizedStatement> ps = ParameterizeStatement(sql);
  if (ps.ok() && ps->cacheable) {
    // Trial compile: prove the stored token stream parses + binds and the
    // limit sentinels rebind unambiguously NOW, so an EXECUTE can only
    // fail for reasons that would fail the plain query path too.
    Result<Statement> tok_stmt = ParseTokenStream(sql, ps->tokens);
    if (tok_stmt.ok() && tok_stmt->kind == Statement::Kind::kSelect &&
        tok_stmt->select != nullptr) {
      Binder binder(&catalog_);
      Result<PlanRef> bound = binder.BindSelect(*tok_stmt->select);
      if (bound.ok() &&
          LimitSentinelsUnambiguous(*bound, ps->has_limit, ps->has_offset)) {
        out->parameterized = std::move(*ps);
        out->parameterized_ok = true;
      }
    }
  }
  if (!out->parameterized_ok) {
    // Direct mode: validate the text binds at all (same check CREATE VIEW
    // makes), then EXECUTE re-runs it verbatim.
    Binder binder(&catalog_);
    Result<PlanRef> bound = binder.BindSelect(*stmt.select);
    if (!bound.ok()) return bound.status();
  }
  return std::shared_ptr<const PreparedStatement>(std::move(out));
}

Result<PlanRef> Database::PlanPrepared(const PreparedStatement& stmt,
                                       const std::vector<Value>& params,
                                       int64_t limit, int64_t offset,
                                       QueryTiming* timing) {
  const ParameterizedStatement& ps = stmt.parameterized;
  std::string key;
  if (PlanCacheUsable()) {
    timing->used_cache = true;
    key = ComposePlanCacheKey(ps.key, config_fingerprint_, catalog_.version());
    if (PlanRef hit = ServeCachedPlan(key, params, limit, offset, timing)) {
      return hit;
    }
  }
  // Miss (or cache unusable): recompile from the stored token stream.
  // There is deliberately no original-text fallback here — the text
  // carries the PREPARE-time literals, not this call's `params`.
  int64_t start = NowNs();
  Result<Statement> tok_stmt = ParseTokenStream(stmt.sql, ps.tokens);
  timing->parse_ns += NowNs() - start;
  if (!tok_stmt.ok()) return tok_stmt.status();
  if (tok_stmt->kind != Statement::Kind::kSelect ||
      tok_stmt->select == nullptr) {
    return Status::Internal("prepared token stream is no longer a SELECT");
  }
  start = NowNs();
  Binder binder(&catalog_);
  Result<PlanRef> bound = binder.BindSelect(*tok_stmt->select);
  timing->bind_ns += NowNs() - start;
  if (!bound.ok()) return bound.status();
  if (!LimitSentinelsUnambiguous(*bound, ps.has_limit, ps.has_offset)) {
    // A view replacement introduced a colliding literal since Prepare.
    return Status::InvalidArgument(
        "prepared statement is no longer rebindable (limit-sentinel "
        "collision after a view change); re-prepare it");
  }
  std::shared_ptr<CachedPlan> cached = NewCachedPlan(ps, *bound);
  VDM_ASSIGN_OR_RETURN(PlanRef optimized, OptimizePlan(*bound, timing));
  cached->plan = optimized;
  start = NowNs();
  Result<PlanRef> rebound = BindCachedPlan(*cached, params, limit, offset);
  timing->rebind_ns += NowNs() - start;
  if (!rebound.ok()) return rebound.status();
  // Integrity-check once at insertion, like PlanQueryCached; a failed
  // verify keeps the plan out of the cache but this call still runs it —
  // the verifier flags structural invariants, not wrong results.
  if (PlanCacheUsable() && PlanVerifier::Verify(optimized).ok()) {
    plan_cache_->Insert(key, std::move(cached));
  }
  return rebound;
}

Result<Chunk> Database::ExecutePrepared(const PreparedStatement& stmt,
                                        const std::vector<Value>& params,
                                        int64_t limit, int64_t offset,
                                        const ExecLimits& limits,
                                        ExecMetrics* metrics,
                                        QueryTiming* timing,
                                        QueryContext* ctx) {
  QueryTiming local_timing;
  QueryTiming* t = timing != nullptr ? timing : &local_timing;
  if (!stmt.parameterized_ok) {
    if (!params.empty() || limit >= 0 || offset >= 0) {
      return Status::InvalidArgument(
          "prepared statement is not parameterized; EXECUTE it without "
          "values");
    }
    return Query(stmt.sql, limits, metrics, timing, ctx);
  }
  const ParameterizedStatement& ps = stmt.parameterized;
  if (!params.empty() && params.size() != ps.param_types.size()) {
    return Status::InvalidArgument(StrFormat(
        "prepared statement takes %zu parameters, got %zu",
        ps.param_types.size(), params.size()));
  }
  if (limit >= 0 && !ps.has_limit) {
    return Status::InvalidArgument(
        "prepared statement has no LIMIT clause to bind");
  }
  if (offset >= 0 && !ps.has_offset) {
    return Status::InvalidArgument(
        "prepared statement has no OFFSET clause to bind");
  }
  const std::vector<Value>& values = params.empty() ? ps.params : params;
  const int64_t eff_limit = limit >= 0 ? limit : ps.limit;
  const int64_t eff_offset = offset >= 0 ? offset : ps.offset;
  VDM_RETURN_NOT_OK(EnsureFreshCaches());
  *t = QueryTiming{};
  VDM_ASSIGN_OR_RETURN(PlanRef plan,
                       PlanPrepared(stmt, values, eff_limit, eff_offset, t));
  int64_t start = NowNs();
  Result<Chunk> result = GovernedExecute(plan, limits, metrics, ctx);
  t->execute_ns = NowNs() - start;
  return result;
}

Status Database::Insert(const std::string& table,
                        const std::vector<std::vector<Value>>& rows) {
  Table* t = storage_.FindTable(table);
  if (t == nullptr) return Status::NotFound("unknown table: " + table);
  for (const std::vector<Value>& row : rows) {
    VDM_RETURN_NOT_OK(t->AppendRow(row));
  }
  return Status::OK();
}

// --- transactions (DESIGN.md §15) --------------------------------------

Transaction* Database::BeginTxn() {
  std::unique_ptr<Transaction> txn = txn_mgr_.Begin();
  Transaction* raw = txn.get();
  std::lock_guard<std::mutex> lock(txns_mu_);
  open_txns_.emplace(raw, std::move(txn));
  return raw;
}

Status Database::CommitTxn(Transaction* txn) {
  if (txn == nullptr || txn->finished()) {
    return Status::InvalidArgument("commit of a finished transaction");
  }
  // The injected commit-time conflict models a validation failure another
  // engine would detect here: the transaction rolls back (leaving the
  // database exactly as if it never ran) and the caller sees a retryable
  // kSerializationFailure.
  Status injected = FaultInjection::Check("txn.commit.conflict");
  if (!injected.ok()) {
    conflicts_.fetch_add(1, std::memory_order_relaxed);
    FinishRollback(txn);
    return Status::SerializationFailure(
        "transaction aborted by commit-time conflict (injected)");
  }
  std::vector<Table*> written = txn->written_tables();
  txn_mgr_.Commit(txn);
  commits_.fetch_add(1, std::memory_order_relaxed);
  ReleaseTxnHandle(txn);
  AfterCommit(written);
  return Status::OK();
}

Status Database::RollbackTxn(Transaction* txn) {
  if (txn == nullptr || txn->finished()) {
    return Status::InvalidArgument("rollback of a finished transaction");
  }
  // The fault fires BEFORE any state changes: the transaction stays open
  // and fully intact, so the caller can simply retry the rollback.
  Status injected = FaultInjection::Check("txn.rollback");
  if (!injected.ok()) return injected;
  FinishRollback(txn);
  return Status::OK();
}

void Database::FinishRollback(Transaction* txn) {
  std::vector<Table*> written = txn->written_tables();
  txn_mgr_.Rollback(txn);
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  ReleaseTxnHandle(txn);
  // A merge this writer blocked can run now.
  OfferMerges(written);
}

void Database::ReleaseTxnHandle(Transaction* txn) {
  std::lock_guard<std::mutex> lock(txns_mu_);
  open_txns_.erase(txn);
}

TxnStats Database::txn_stats() const {
  TxnStats out;
  out.commits = commits_.load(std::memory_order_relaxed);
  out.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  out.conflicts = conflicts_.load(std::memory_order_relaxed);
  out.retries = txn_retries_used_.load(std::memory_order_relaxed);
  out.merges = merges_done_.load(std::memory_order_relaxed);
  return out;
}

Result<Chunk> Database::ExecuteDmlAutoCommit(const Statement& stmt) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= txn_retries_; ++attempt) {
    if (attempt > 0) {
      txn_retries_used_.fetch_add(1, std::memory_order_relaxed);
      // Exponential backoff (1, 2, 4, ... ms, capped) so colliding
      // writers de-synchronize instead of re-conflicting in lockstep.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(int64_t{1} << std::min(attempt - 1, 5)));
    }
    Transaction* txn = BeginTxn();
    Result<size_t> affected =
        ExecuteDmlStatement(stmt, catalog_, &storage_, txn);
    if (!affected.ok()) {
      FinishRollback(txn);
      if (affected.status().code() == StatusCode::kSerializationFailure) {
        conflicts_.fetch_add(1, std::memory_order_relaxed);
        last = affected.status();
        continue;
      }
      return affected.status();
    }
    Status committed = CommitTxn(txn);
    if (!committed.ok()) {
      if (committed.code() == StatusCode::kSerializationFailure) {
        last = committed;
        continue;
      }
      return committed;
    }
    return DmlResultChunk(*affected);
  }
  return last;
}

void Database::AfterCommit(const std::vector<Table*>& written) {
  for (Table* t : written) {
    const std::string& name = t->schema().name();
    const size_t total = t->NumRows();
    // Auto-analyze: once the table has drifted from the state its
    // statistics were collected at by more than a fifth (rows appended
    // since, superseded versions included), those statistics and the
    // optimizer decisions built on them are stale — recollect from the
    // committed state. Measured from the last collection (never analyzed:
    // from the merged main), so an unmerged delta does not re-collect,
    // and recompile every cached plan over the table, on every commit.
    const std::shared_ptr<const TableStats> stats =
        catalog_.FindTableStats(name);
    const size_t collected =
        stats != nullptr ? stats->physical_rows : t->NumMainRows();
    const size_t drift =
        total > collected ? total - collected : collected - total;
    if (drift > std::max<size_t>(64, total / 5)) RefreshTableStats(name);
  }
  OfferMerges(written);
}

void Database::RefreshTableStats(const std::string& name) {
  const Table* t = storage_.FindTable(name);
  if (t == nullptr) return;
  catalog_.SetTableStats(name, stats_enabled_ ? CollectTableStats(*t)
                                              : CollectRowCountOnly(*t));
}

// --- background MVCC merge ---------------------------------------------

void Database::SetMergeThreshold(size_t rows) {
  std::lock_guard<std::mutex> lock(merge_mu_);
  merge_threshold_ = rows;
}

void Database::OfferMerges(const std::vector<Table*>& tables) {
  std::lock_guard<std::mutex> lock(merge_mu_);
  if (merge_stop_ || merge_threshold_ == 0) return;
  for (Table* t : tables) {
    if (t->NumDeltaRows() < merge_threshold_) continue;
    auto [it, fresh] = merge_tasks_.try_emplace(t->schema().name(), false);
    if (!fresh) {
      it->second = true;  // its queued or running task tries once more
      continue;
    }
    pool_->Submit([this, table = it->first] { RunMerges(table); });
  }
}

void Database::RunMerges(const std::string& table) {
  const Table* t = storage_.FindTable(table);
  std::unique_lock<std::mutex> lock(merge_mu_);
  auto it = merge_tasks_.find(table);
  while (!merge_stop_ && t != nullptr && merge_threshold_ > 0 &&
         t->NumDeltaRows() >= merge_threshold_) {
    it->second = false;
    lock.unlock();
    // A failed merge (active writers, an injected fault) leaves the table
    // untouched. The writer that blocked it offers the table again when it
    // commits or rolls back, so nothing waits on a timer.
    (void)MergeTableMvcc(table);
    lock.lock();
    if (!it->second) break;
  }
  merge_tasks_.erase(it);
}

Status Database::MergeTableMvcc(const std::string& table) {
  Table* t = storage_.FindTable(table);
  if (t == nullptr) return Status::NotFound("unknown table: " + table);
  MergeOptions opts;
  opts.watermark = txn_mgr_.Watermark();
  opts.has_active_writers = [this, t] { return txn_mgr_.HasActiveWriters(t); };
  opts.check_alive = [this] {
    std::lock_guard<std::mutex> lock(merge_mu_);
    return merge_stop_ ? Status::Cancelled("database shutting down")
                       : Status::OK();
  };
  VDM_RETURN_NOT_OK(t->MergeDeltaMvcc(opts));
  merges_done_.fetch_add(1, std::memory_order_relaxed);
  // A merge rewrites the physical layout and purges dead rows: refresh
  // the table's statistics (which bumps its stats version, retiring cached
  // plans compiled against the pre-merge statistics).
  RefreshTableStats(table);
  return Status::OK();
}

Result<PlanRef> Database::BindQuery(const std::string& sql) const {
  Binder binder(&catalog_);
  return binder.BindSql(sql);
}

Result<PlanRef> Database::PlanQuery(const std::string& sql) const {
  VDM_ASSIGN_OR_RETURN(PlanRef plan, BindQuery(sql));
  return OptimizePlan(plan);
}

Result<PlanRef> Database::OptimizePlan(const PlanRef& plan,
                                       QueryTiming* timing) const {
  const int64_t start = NowNs();
  Result<OptimizeResult> optimized = [&]() -> Result<OptimizeResult> {
    if (optimizer_config_.verify_rewrites &&
        optimizer_config_.verification_hook == nullptr) {
      // The auditor lives on the stack, so this path still builds a
      // per-query Optimizer around it.
      OptimizerConfig config = optimizer_->config();
      RewriteAuditor::Options options;
      options.derivation = config.derivation;
      if (config.verify_rewrites_exec) options.storage = &storage_;
      RewriteAuditor auditor(options);
      config.verification_hook = &auditor;
      return Optimizer(std::move(config)).OptimizeChecked(plan);
    }
    return optimizer_->OptimizeChecked(plan);
  }();
  if (timing != nullptr) {
    timing->optimize_ns += NowNs() - start;
    if (optimized.ok()) {
      timing->optimize_passes = optimized->passes;
      timing->optimize_converged = optimized->converged;
      timing->props_computed = optimized->props_computed;
      timing->props_reused = optimized->props_reused;
    }
  }
  if (!optimized.ok()) return optimized.status();
  return std::move(optimized->plan);
}

Result<Chunk> Database::ExecutePlan(const PlanRef& plan, ExecMetrics* metrics,
                                    QueryContext* ctx) const {
  size_t threads = exec_options_.num_threads == 0
                       ? ThreadPool::DefaultThreads()
                       : exec_options_.num_threads;
  if (exec_options_.num_threads == 0 && threads > 1) {
    // Cost-based degree of parallelism (§14): when the caller left the
    // thread count automatic, small plans skip the pool — morsel fan-out
    // overhead exceeds the estimated work. Results are byte-identical
    // either way. An explicit num_threads setting is always honored.
    CardinalityEstimator estimator(&catalog_, /*engine=*/nullptr);
    PlanEstimates estimates;
    if (estimator.Annotate(plan, &estimates).cost < kSerialCostThreshold) {
      threads = 1;
    }
  }
  Executor executor(&storage_, exec_options_,
                    threads > 1 ? pool_.get() : nullptr);
  return executor.Execute(plan, metrics, ctx);
}

Result<std::string> Database::Explain(const std::string& sql) const {
  VDM_ASSIGN_OR_RETURN(PlanRef plan, PlanQuery(sql));
  return PrintPlan(plan);
}

Result<std::string> Database::ExplainRaw(const std::string& sql) const {
  VDM_ASSIGN_OR_RETURN(PlanRef plan, BindQuery(sql));
  return PrintPlan(plan);
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql) {
  VDM_RETURN_NOT_OK(EnsureFreshCaches());
  QueryTiming timing;
  PlanRef plan;
  if (PlanCacheUsable()) {
    timing.used_cache = true;
    VDM_ASSIGN_OR_RETURN(plan, PlanQueryCached(sql, &timing));
  } else {
    VDM_ASSIGN_OR_RETURN(plan, PlanQueryTimed(sql, &timing));
  }
  ExecMetrics metrics;
  int64_t start = NowNs();
  VDM_ASSIGN_OR_RETURN(Chunk result,
                       GovernedExecute(plan, default_limits_, &metrics,
                                       /*ctx=*/nullptr));
  timing.execute_ns = NowNs() - start;
  // Annotate the rendered plan with per-operator cardinality/cost
  // estimates (§14) so estimation errors are visible next to the actual
  // timings below.
  PlanEstimates estimates;
  {
    CardinalityEstimator estimator(&catalog_, /*engine=*/nullptr);
    estimator.Annotate(plan, &estimates);
  }
  std::string out = PrintPlan(plan, &estimates);
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  out += "-- explain analyze --\n";
  out += StrFormat("plan cache: %s\n",
                   !timing.used_cache ? "off"
                   : timing.cache_hit ? "hit"
                                      : "miss");
  if (timing.parameterize_ns > 0) {
    out += StrFormat("parameterize: %.3f ms\n", ms(timing.parameterize_ns));
  }
  if (timing.parse_ns > 0) {
    out += StrFormat("parse: %.3f ms\n", ms(timing.parse_ns));
  }
  if (timing.bind_ns > 0) {
    out += StrFormat("bind: %.3f ms\n", ms(timing.bind_ns));
  }
  if (timing.optimize_ns > 0) {
    out += StrFormat("optimize: %.3f ms\n", ms(timing.optimize_ns));
  }
  if (timing.optimize_passes > 0) {
    out += StrFormat(
        "optimizer: %d pass%s, %s; properties: %zu derived, %zu reused\n",
        timing.optimize_passes, timing.optimize_passes == 1 ? "" : "es",
        timing.optimize_converged ? "converged" : "hit max_passes",
        timing.props_computed, timing.props_reused);
  }
  if (timing.rebind_ns > 0) {
    out += StrFormat("rebind: %.3f ms\n", ms(timing.rebind_ns));
  }
  out += StrFormat("compile total: %.3f ms\n", ms(timing.compile_ns()));
  out += StrFormat("execute: %.3f ms (%zu rows)\n", ms(timing.execute_ns),
                   result.NumRows());
  out += StrFormat(
      "governor: %llu cancel checks, peak tracked memory %.2f MiB\n",
      static_cast<unsigned long long>(metrics.cancel_checks),
      static_cast<double>(metrics.peak_memory_bytes) / (1 << 20));
  out += StrFormat(
      "rows: %llu scanned, %llu probed, %llu values gathered\n",
      static_cast<unsigned long long>(metrics.rows_scanned),
      static_cast<unsigned long long>(metrics.rows_probe_input),
      static_cast<unsigned long long>(metrics.values_gathered));
  if (metrics.admission_wait_ns > 0) {
    out += StrFormat("admission wait: %.3f ms\n",
                     ms(static_cast<int64_t>(metrics.admission_wait_ns)));
  }
  if (metrics.degraded_serial_retries > 0) {
    out += StrFormat("degraded: %llu serial retry within memory budget\n",
                     static_cast<unsigned long long>(
                         metrics.degraded_serial_retries));
  }
  const TxnStats txn = txn_stats();
  if (txn.commits > 0 || txn.rollbacks > 0 || txn.conflicts > 0 ||
      txn.merges > 0) {
    out += StrFormat(
        "txn: %llu commits, %llu rollbacks, %llu conflicts, %llu retries, "
        "%llu merges\n",
        static_cast<unsigned long long>(txn.commits),
        static_cast<unsigned long long>(txn.rollbacks),
        static_cast<unsigned long long>(txn.conflicts),
        static_cast<unsigned long long>(txn.retries),
        static_cast<unsigned long long>(txn.merges));
  }
  return out;
}

namespace {

/// Schema for a materialized snapshot, derived from a result chunk.
TableSchema SnapshotSchema(const std::string& table_name,
                           const Chunk& chunk) {
  TableSchema schema(table_name);
  for (size_t c = 0; c < chunk.NumColumns(); ++c) {
    schema.AddColumn(chunk.names[c], chunk.columns[c].type());
  }
  return schema;
}

Status InsertChunk(Table* table, const Chunk& chunk) {
  std::vector<Value> row(chunk.NumColumns());
  for (size_t r = 0; r < chunk.NumRows(); ++r) {
    for (size_t c = 0; c < chunk.NumColumns(); ++c) {
      row[c] = chunk.columns[c].GetValue(r);
    }
    VDM_RETURN_NOT_OK(table->AppendRow(row));
  }
  table->MergeDelta();
  return Status::OK();
}

}  // namespace

Status Database::MaterializeView(const std::string& name,
                                 ViewDef::CacheMode mode) {
  const ViewDef* view = catalog_.FindView(name);
  if (view == nullptr) return Status::NotFound("view not found: " + name);
  if (!view->materialized_table.empty()) {
    ViewDef updated = *view;
    updated.cache_mode = mode;
    VDM_RETURN_NOT_OK(catalog_.ReplaceView(std::move(updated)));
    return RefreshMaterializedView(name);
  }
  ViewDef updated = *view;
  updated.materialized_table = "__scv_" + ToLower(name);
  updated.cache_mode = mode;
  return BuildSnapshot(std::move(updated), /*replace_existing=*/false);
}

Status Database::RefreshMaterializedView(const std::string& name) {
  const ViewDef* view = catalog_.FindView(name);
  if (view == nullptr) return Status::NotFound("view not found: " + name);
  if (view->materialized_table.empty()) {
    return Status::InvalidArgument("view is not materialized: " + name);
  }
  return BuildSnapshot(*view, /*replace_existing=*/true);
}

Status Database::BuildSnapshot(ViewDef view, bool replace_existing) {
  // Rebind with materialization temporarily disabled so the definition —
  // not a stale snapshot — is evaluated.
  std::string table_name = view.materialized_table;
  ViewDef transparent = view;
  transparent.materialized_table.clear();
  VDM_RETURN_NOT_OK(catalog_.ReplaceView(transparent));
  Binder binder(&catalog_);
  Result<PlanRef> bound = binder.BindSql(transparent.sql);
  if (!bound.ok()) return bound.status();
  Result<PlanRef> optimized = OptimizePlan(*bound);
  if (!optimized.ok()) return optimized.status();
  Result<Chunk> snapshot = ExecutePlan(*optimized);
  if (!snapshot.ok()) return snapshot.status();

  // Record base-table dependencies (for DCV staleness checks).
  view.snapshot_dependencies.clear();
  VisitPlan(*bound, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kScan) return;
    const std::string& table = static_cast<const ScanOp&>(*node).table_name();
    const Table* t = storage_.FindTable(table);
    if (t == nullptr) return;
    for (const auto& [existing, version] : view.snapshot_dependencies) {
      if (EqualsIgnoreCase(existing, table)) return;
    }
    view.snapshot_dependencies.emplace_back(table, t->version());
  });

  if (replace_existing) {
    VDM_RETURN_NOT_OK(storage_.DropTable(table_name));
    VDM_RETURN_NOT_OK(catalog_.DropTable(table_name));
  }
  TableSchema schema = SnapshotSchema(table_name, *snapshot);
  VDM_RETURN_NOT_OK(catalog_.RegisterTable(schema));
  VDM_RETURN_NOT_OK(storage_.CreateTable(schema));
  VDM_RETURN_NOT_OK(InsertChunk(storage_.FindTable(table_name), *snapshot));
  return catalog_.ReplaceView(std::move(view));
}

Status Database::DematerializeView(const std::string& name) {
  const ViewDef* view = catalog_.FindView(name);
  if (view == nullptr) return Status::NotFound("view not found: " + name);
  if (view->materialized_table.empty()) return Status::OK();
  ViewDef updated = *view;
  std::string table_name = updated.materialized_table;
  updated.materialized_table.clear();
  updated.snapshot_dependencies.clear();
  VDM_RETURN_NOT_OK(catalog_.ReplaceView(std::move(updated)));
  VDM_RETURN_NOT_OK(catalog_.DropTable(table_name));
  return storage_.DropTable(table_name);
}

Status Database::EnsureFreshCaches() {
  // One session at a time: a refresh rewrites catalog + storage state,
  // and two sessions observing the same stale DCV must not race to
  // rebuild it. The no-stale-view common case only pays the lock.
  std::lock_guard<std::mutex> lock(caches_mu_);
  for (const std::string& name : catalog_.ViewNames()) {
    const ViewDef* view = catalog_.FindView(name);
    if (view == nullptr || view->materialized_table.empty() ||
        view->cache_mode != ViewDef::CacheMode::kDynamic) {
      continue;
    }
    bool stale = false;
    for (const auto& [table, version] : view->snapshot_dependencies) {
      const Table* t = storage_.FindTable(table);
      if (t == nullptr || t->version() != version) {
        stale = true;
        break;
      }
    }
    if (stale) {
      VDM_RETURN_NOT_OK(RefreshMaterializedView(name));
    }
  }
  return Status::OK();
}

Result<bool> Database::VerifyDeclaredUnique(
    const std::string& table, const std::vector<std::string>& columns) const {
  const Table* t = storage_.FindTable(table);
  if (t == nullptr) return Status::NotFound("unknown table: " + table);
  return t->VerifyUnique(columns);
}

void Database::MergeAllDeltas() {
  for (const std::string& name : catalog_.TableNames()) {
    Table* t = storage_.FindTable(name);
    if (t == nullptr) continue;
    // Merge at the transaction watermark with fault injection off: this
    // is the bulk-load / maintenance API, safe to call while transactions
    // are open (tables with active writers are skipped and stay
    // mergeable later).
    MergeOptions opts;
    opts.watermark = txn_mgr_.Watermark();
    opts.inject_faults = false;
    opts.has_active_writers = [this, t] {
      return txn_mgr_.HasActiveWriters(t);
    };
    Status st = t->MergeDeltaMvcc(opts);
    if (st.ok()) merges_done_.fetch_add(1, std::memory_order_relaxed);
  }
  AnalyzeTables();
}

void Database::AnalyzeTables() {
  for (const std::string& name : catalog_.TableNames()) {
    RefreshTableStats(name);
  }
}

}  // namespace vdm

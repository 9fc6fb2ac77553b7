#include "testing/dml_differential.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/dml.h"
#include "expr/eval.h"
#include "expr/fold.h"
#include "ref/interpreter.h"
#include "sql/parser.h"
#include "testing/differential.h"

namespace vdm {

namespace {

// ---------------------------------------------------------------------
// Fixed DML schema and deterministic seed data.

constexpr const char* kCreateDmlTable =
    "create table %s (k int, grp int, v int, s varchar(12), d decimal(10,2))";

std::vector<std::vector<Value>> DmlSeedRows(int table_index) {
  Rng rng(501u + static_cast<uint64_t>(table_index));
  const int n = table_index == 0 ? 60 : 40;
  std::vector<std::vector<Value>> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    rows.push_back({Value::Int64(r + 1), Value::Int64(rng.Uniform(0, 7)),
                    Value::Int64(rng.Uniform(0, 1200)),
                    Value::String(StrFormat(
                        "s%02lld", static_cast<long long>(rng.Uniform(0, 19)))),
                    Value::Decimal(rng.Uniform(0, 9999), 2)});
  }
  return rows;
}

// ---------------------------------------------------------------------
// Shadow database: plain row maps keyed by a synthetic rid. An operation
// is applied if and only if the engine reported success for it, so the
// shadow converges with the engine under conflicts, rollbacks, and
// injected faults by construction; a final-state divergence is therefore
// an engine MVCC / merge / visibility bug.

using ShadowRows = std::map<int64_t, std::vector<Value>>;

struct ShadowSession {
  bool open = false;
  /// Snapshot copy of every table at BEGIN, plus this session's writes.
  std::map<std::string, ShadowRows> view;
  /// rid-level redo log replayed onto the committed state at COMMIT.
  struct LogEntry {
    std::string table;
    int64_t rid;
    bool erase;
    std::vector<Value> row;  // ignored when erase
  };
  std::vector<LogEntry> log;
};

class ShadowDb {
 public:
  explicit ShadowDb(int sessions) : sessions_(static_cast<size_t>(sessions)) {}

  void SeedTable(const std::string& table, const TableSchema* schema,
                 const std::vector<std::vector<Value>>& rows) {
    schemas_[table] = schema;
    ShadowRows& dst = committed_[table];
    for (const std::vector<Value>& row : rows) dst[next_rid_++] = row;
  }

  void Begin(int session) {
    ShadowSession& s = sessions_[static_cast<size_t>(session)];
    s.open = true;
    s.view = committed_;
    s.log.clear();
  }

  void Commit(int session) {
    ShadowSession& s = sessions_[static_cast<size_t>(session)];
    // First-updater-wins on the engine side guarantees the logged rids
    // were touched by no other transaction, so a rid-level replay cannot
    // clobber concurrent committed work.
    for (const ShadowSession::LogEntry& e : s.log) {
      if (e.erase) {
        committed_[e.table].erase(e.rid);
      } else {
        committed_[e.table][e.rid] = e.row;
      }
    }
    s.open = false;
    s.view.clear();
    s.log.clear();
  }

  void Rollback(int session) {
    ShadowSession& s = sessions_[static_cast<size_t>(session)];
    s.open = false;
    s.view.clear();
    s.log.clear();
  }

  bool SessionOpen(int session) const {
    return sessions_[static_cast<size_t>(session)].open;
  }

  /// Applies one engine-successful DML statement: to the session's view
  /// (logged) when its transaction is open, else to the committed state.
  Status Apply(const Statement& stmt, int session) {
    ShadowSession* s = SessionOpen(session)
                           ? &sessions_[static_cast<size_t>(session)]
                           : nullptr;
    switch (stmt.kind) {
      case Statement::Kind::kInsert:
        return ApplyInsert(*stmt.insert, s);
      case Statement::Kind::kUpdate:
        return ApplyUpdate(*stmt.update, s);
      case Statement::Kind::kDelete:
        return ApplyDelete(*stmt.del, s);
      default:
        return Status::Internal("shadow: not a DML statement");
    }
  }

  /// The committed rows of `table` as a chunk in the engine's
  /// schema-order column layout.
  Chunk CommittedChunk(const std::string& table) const {
    const TableSchema* schema = schemas_.at(table);
    Chunk out;
    for (size_t c = 0; c < schema->NumColumns(); ++c) {
      out.names.push_back(schema->column(c).name);
      out.columns.emplace_back(schema->column(c).type);
    }
    auto it = committed_.find(table);
    if (it == committed_.end()) return out;
    for (const auto& [rid, row] : it->second) {
      for (size_t c = 0; c < row.size(); ++c) {
        out.columns[c].AppendValue(row[c]);
      }
    }
    return out;
  }

 private:
  ShadowRows* TableRows(const std::string& table, ShadowSession* s) {
    return s != nullptr ? &s->view[table] : &committed_[table];
  }

  /// Renders the rows of one table as an eval chunk plus the aligned rid
  /// list, so WHERE / SET reuse the engine's vectorized EvalExpr.
  Chunk BuildChunk(const ShadowRows& rows, const TableSchema& schema,
                   std::vector<int64_t>* rids) const {
    Chunk chunk;
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      chunk.names.push_back(schema.column(c).name);
      chunk.columns.emplace_back(schema.column(c).type);
    }
    for (const auto& [rid, row] : rows) {
      rids->push_back(rid);
      for (size_t c = 0; c < row.size(); ++c) {
        chunk.columns[c].AppendValue(row[c]);
      }
    }
    return chunk;
  }

  Result<std::vector<size_t>> SelectedRows(const ExprRef& where,
                                           const Chunk& chunk) const {
    std::vector<size_t> selected;
    if (where == nullptr) {
      for (size_t r = 0; r < chunk.NumRows(); ++r) selected.push_back(r);
      return selected;
    }
    VDM_ASSIGN_OR_RETURN(ColumnData mask, EvalExpr(where, chunk));
    for (size_t r = 0; r < chunk.NumRows(); ++r) {
      if (!mask.IsNull(r) && mask.ints()[r] != 0) selected.push_back(r);
    }
    return selected;
  }

  Status ApplyInsert(const InsertStmt& insert, ShadowSession* s) {
    const TableSchema* schema = schemas_.at(insert.table);
    ShadowRows* rows = TableRows(insert.table, s);
    std::vector<size_t> positions;
    if (insert.columns.empty()) {
      for (size_t c = 0; c < schema->NumColumns(); ++c) positions.push_back(c);
    } else {
      for (const std::string& column : insert.columns) {
        int idx = schema->FindColumn(column);
        if (idx < 0) return Status::Internal("shadow: unknown column");
        positions.push_back(static_cast<size_t>(idx));
      }
    }
    for (const std::vector<ExprRef>& exprs : insert.rows) {
      std::vector<Value> row(schema->NumColumns(), Value::Null());
      for (size_t i = 0; i < exprs.size(); ++i) {
        std::optional<Value> value = EvaluateConstantExpr(exprs[i]);
        if (!value.has_value()) {
          return Status::Internal("shadow: non-constant INSERT value");
        }
        row[positions[i]] = CoerceToColumnType(
            std::move(*value), schema->column(positions[i]).type);
      }
      const int64_t rid = next_rid_++;
      (*rows)[rid] = row;
      if (s != nullptr) s->log.push_back({insert.table, rid, false, row});
    }
    return Status::OK();
  }

  Status ApplyUpdate(const UpdateStmt& update, ShadowSession* s) {
    const TableSchema* schema = schemas_.at(update.table);
    ShadowRows* rows = TableRows(update.table, s);
    std::vector<int64_t> rids;
    Chunk chunk = BuildChunk(*rows, *schema, &rids);
    VDM_ASSIGN_OR_RETURN(std::vector<size_t> selected,
                         SelectedRows(update.where, chunk));
    if (selected.empty()) return Status::OK();
    std::vector<size_t> set_cols;
    std::vector<ColumnData> rhs;
    for (const auto& [name, expr] : update.sets) {
      int idx = schema->FindColumn(name);
      if (idx < 0) return Status::Internal("shadow: unknown SET column");
      set_cols.push_back(static_cast<size_t>(idx));
      VDM_ASSIGN_OR_RETURN(ColumnData col, EvalExpr(expr, chunk));
      rhs.push_back(std::move(col));
    }
    for (size_t r : selected) {
      std::vector<Value>& row = (*rows)[rids[r]];
      for (size_t i = 0; i < set_cols.size(); ++i) {
        row[set_cols[i]] = CoerceToColumnType(
            rhs[i].GetValue(r), schema->column(set_cols[i]).type);
      }
      if (s != nullptr) s->log.push_back({update.table, rids[r], false, row});
    }
    return Status::OK();
  }

  Status ApplyDelete(const DeleteStmt& del, ShadowSession* s) {
    const TableSchema* schema = schemas_.at(del.table);
    ShadowRows* rows = TableRows(del.table, s);
    std::vector<int64_t> rids;
    Chunk chunk = BuildChunk(*rows, *schema, &rids);
    VDM_ASSIGN_OR_RETURN(std::vector<size_t> selected,
                         SelectedRows(del.where, chunk));
    for (size_t r : selected) {
      rows->erase(rids[r]);
      if (s != nullptr) s->log.push_back({del.table, rids[r], true, {}});
    }
    return Status::OK();
  }

  std::map<std::string, const TableSchema*> schemas_;
  std::map<std::string, ShadowRows> committed_;
  int64_t next_rid_ = 0;
  std::vector<ShadowSession> sessions_;
};

// ---------------------------------------------------------------------
// Leg matrix.

struct LegSpec {
  const char* name;
  SystemProfile profile;
  bool parallel;
  int merge_mode;  // 0 = never, 1 = explicit script ops, 2 = background
  bool cache;
};

constexpr LegSpec kLegs[] = {
    // Serial execution, merges exactly where the script puts them.
    {"hana-serial-scriptmerge", SystemProfile::kHana, false, 1, false},
    // Parallel execution, background merge races the script, plan cache
    // on — cached plans outlive commits and merges retire them through
    // stats versions; every read must still see its own snapshot.
    {"postgres-parallel-bgmerge-cache", SystemProfile::kPostgres, true, 2,
     true},
    // No merges at all: the delta grows unboundedly, every scan takes the
    // visibility-checked residual path.
    {"none-parallel-nomerge", SystemProfile::kNone, true, 0, false},
};

std::string RenderScript(const DmlScript& script) {
  std::ostringstream out;
  for (size_t i = 0; i < script.ops.size(); ++i) {
    const DmlOp& op = script.ops[i];
    out << "  [" << i << "] s" << op.session << " ";
    switch (op.kind) {
      case DmlOp::Kind::kBegin:
        out << "begin";
        break;
      case DmlOp::Kind::kCommit:
        out << "commit";
        break;
      case DmlOp::Kind::kRollback:
        out << "rollback";
        break;
      case DmlOp::Kind::kMerge:
        out << "#merge " << op.table;
        break;
      default:
        out << op.sql;
        break;
    }
    out << "\n";
  }
  return out.str();
}

class DmlWorker {
 public:
  DmlWorker(const DmlDiffOptions& options) : options_(options) {}

  DmlDiffStats& stats() { return stats_; }

  Status ProcessScript(size_t sidx) {
    DmlScript script =
        GenerateDmlScript(options_.seed, sidx, options_.script);
    bool script_failed = false;
    for (const LegSpec& leg : kLegs) {
      VDM_RETURN_NOT_OK(RunLeg(sidx, script, leg, &script_failed));
      if (script_failed) break;
    }
    ++stats_.scripts;
    if (script_failed) ++stats_.mismatches;
    return Status::OK();
  }

 private:
  Status RunLeg(size_t sidx, const DmlScript& script, const LegSpec& leg,
                bool* script_failed) {
    Database db;
    VDM_RETURN_NOT_OK(SetUpDmlTables(&db));
    db.SetOptimizerConfig(ConfigForProfile(leg.profile));
    ExecOptions exec;
    exec.num_threads = leg.parallel ? options_.exec_threads : 1;
    if (leg.parallel) exec.morsel_size = kParallelLegMorselSize;
    db.SetExecOptions(exec);
    if (leg.cache) {
      db.EnablePlanCache();
    } else {
      db.DisablePlanCache();
    }
    ExecLimits open;
    open.timeout_ms = 0;
    open.memory_budget = 0;
    open.max_queued_ms = 10000;
    db.set_default_limits(open);
    if (leg.merge_mode == 2) db.SetMergeThreshold(24);

    ShadowDb shadow(options_.script.sessions);
    for (int t = 0; t < 2; ++t) {
      shadow.SeedTable(kDmlTables[t], db.catalog().FindTable(kDmlTables[t]),
                       DmlSeedRows(t));
    }
    std::vector<Transaction*> handles(
        static_cast<size_t>(options_.script.sessions), nullptr);

    for (size_t oi = 0; oi < script.ops.size(); ++oi) {
      const DmlOp& op = script.ops[oi];
      Transaction** handle = &handles[static_cast<size_t>(op.session)];
      ++stats_.ops;
      switch (op.kind) {
        case DmlOp::Kind::kBegin: {
          Result<Chunk> r = db.ExecuteSession("begin", handle);
          if (!r.ok()) return r.status();  // begin cannot legitimately fail
          shadow.Begin(op.session);
          break;
        }
        case DmlOp::Kind::kCommit: {
          // CommitTxn consumes the handle either way: an injected
          // commit-time conflict rolls the transaction back internally.
          Result<Chunk> r = db.ExecuteSession("commit", handle);
          if (r.ok()) {
            shadow.Commit(op.session);
          } else {
            ++stats_.op_errors;
            shadow.Rollback(op.session);
          }
          break;
        }
        case DmlOp::Kind::kRollback: {
          // An injected txn.rollback fault returns an error with the
          // transaction still open; the call is retryable.
          Status st = Status::OK();
          for (int attempt = 0; *handle != nullptr && attempt < 64;
               ++attempt) {
            Result<Chunk> r = db.ExecuteSession("rollback", handle);
            st = r.status();
            if (r.ok()) break;
            ++stats_.op_errors;
          }
          if (*handle != nullptr) return st;  // fault probability 1?
          shadow.Rollback(op.session);
          break;
        }
        case DmlOp::Kind::kMerge: {
          if (leg.merge_mode == 1) {
            if (db.MergeTableMvcc(op.table).ok()) ++stats_.merges;
          }
          break;
        }
        case DmlOp::Kind::kQuery: {
          if (!CheckQuery(db, op.sql, *handle, sidx, oi, leg, script)) {
            *script_failed = true;
            return Status::OK();
          }
          break;
        }
        case DmlOp::Kind::kDml: {
          Result<Chunk> r = *handle != nullptr
                                ? db.ExecuteSession(op.sql, handle)
                                : db.Execute(op.sql);
          if (r.ok()) {
            VDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(op.sql));
            VDM_RETURN_NOT_OK(shadow.Apply(stmt, op.session));
          } else if (r.status().code() ==
                     StatusCode::kSerializationFailure) {
            ++stats_.conflicts;
          } else {
            ++stats_.op_errors;
          }
          break;
        }
      }
    }
    // The generator closes every session, but be defensive: a leftover
    // open transaction would block MergeAllDeltas below.
    for (size_t s = 0; s < handles.size(); ++s) {
      for (int attempt = 0; handles[s] != nullptr && attempt < 64;
           ++attempt) {
        if (db.ExecuteSession("rollback", &handles[s]).ok()) break;
      }
      if (shadow.SessionOpen(static_cast<int>(s))) {
        shadow.Rollback(static_cast<int>(s));
      }
    }

    // Final-state oracle: engine scan == interpreter scan == shadow, then
    // again after folding every delta so the merge is diffed in isolation.
    for (int phase = 0; phase < 2; ++phase) {
      if (phase == 1) db.MergeAllDeltas();
      for (int t = 0; t < 2; ++t) {
        if (!CheckFinalState(db, shadow, kDmlTables[t], sidx, leg, phase,
                             script)) {
          *script_failed = true;
          return Status::OK();
        }
      }
    }
    return Status::OK();
  }

  /// Mid-script SELECT: engine (executor pipelines, possibly cached plan)
  /// vs. the reference interpreter pinned to the same MVCC snapshot.
  bool CheckQuery(Database& db, const std::string& sql, Transaction* handle,
                  size_t sidx, size_t oi, const LegSpec& leg,
                  const DmlScript& script) {
    Transaction* session = handle;
    Result<Chunk> engine = session != nullptr
                               ? db.ExecuteSession(sql, &session)
                               : db.Execute(sql);
    ++stats_.query_checks;
    if (!engine.ok()) {
      if (options_.with_faults) {  // injected failure; nothing to compare
        ++stats_.op_errors;
        return true;
      }
      Dump(sidx, leg, script,
           StrFormat("query [%zu] engine error: %s\n  sql: %s", oi,
                     engine.status().ToString().c_str(), sql.c_str()),
           {}, {});
      return false;
    }
    Result<PlanRef> plan = db.BindQuery(sql);
    if (!plan.ok()) return true;  // harness-side issue; not a diff
    RefInterpreter ref(&db.storage());
    ref.set_snapshot(handle != nullptr
                         ? handle->snapshot()
                         : TxnSnapshot{db.txn_manager().clock(), 0});
    Result<Chunk> oracle = ref.Execute(*plan);
    if (!oracle.ok()) return true;
    std::vector<std::string> expected = NormalizeChunk(*oracle, false);
    std::vector<std::string> actual = NormalizeChunk(*engine, false);
    if (actual == expected) return true;
    Dump(sidx, leg, script,
         StrFormat("mid-script query diff at op [%zu]\n  sql: %s\n  %s", oi,
                   sql.c_str(),
                   handle != nullptr ? "(inside open transaction)"
                                     : "(autocommit)"),
         expected, actual);
    return false;
  }

  bool CheckFinalState(Database& db, const ShadowDb& shadow,
                       const std::string& table, size_t sidx,
                       const LegSpec& leg, int phase,
                       const DmlScript& script) {
    const std::string sql = "select k, grp, v, s, d from " + table;
    std::vector<std::string> expected =
        NormalizeChunk(shadow.CommittedChunk(table), false);
    ++stats_.final_checks;
    Result<Chunk> engine = db.Execute(sql);
    std::vector<std::string> actual;
    bool engine_ok = engine.ok();
    if (engine_ok) {
      actual = NormalizeChunk(*engine, false);
      // The engine scan names columns like the bound plan does; compare
      // rows against the shadow under the shadow's header.
      if (!actual.empty() && !expected.empty()) actual[0] = expected[0];
    }
    if (!engine_ok || actual != expected) {
      Dump(sidx, leg, script,
           StrFormat("final state diff, table %s, %s\n%s", table.c_str(),
                     phase == 0 ? "pre-merge" : "post-MergeAllDeltas",
                     engine_ok
                         ? ""
                         : ("  engine error: " + engine.status().ToString())
                               .c_str()),
           expected, actual);
      return false;
    }
    // Interpreter cross-check over the same storage at the latest commit.
    Result<PlanRef> plan = db.BindQuery(sql);
    if (!plan.ok()) return true;
    RefInterpreter ref(&db.storage());
    ref.set_snapshot(TxnSnapshot{db.txn_manager().clock(), 0});
    Result<Chunk> oracle = ref.Execute(*plan);
    if (!oracle.ok()) return true;
    std::vector<std::string> interp = NormalizeChunk(*oracle, false);
    if (!interp.empty() && !expected.empty()) interp[0] = expected[0];
    if (interp != expected) {
      Dump(sidx, leg, script,
           StrFormat("final state interpreter diff, table %s, %s",
                     table.c_str(),
                     phase == 0 ? "pre-merge" : "post-MergeAllDeltas"),
           expected, interp);
      return false;
    }
    return true;
  }

  void Dump(size_t sidx, const LegSpec& leg, const DmlScript& script,
            const std::string& what,
            const std::vector<std::string>& expected,
            const std::vector<std::string>& actual) {
    if (options_.artifacts_dir.empty()) return;
    std::ostringstream out;
    out << "vdmfuzz DML mismatch repro\n"
        << "seed: " << options_.seed << "\nscript index: " << sidx
        << "\nleg: " << leg.name << "\nfaults: "
        << (options_.with_faults ? "armed" : "off") << "\n"
        << what << "\n";
    auto append = [&out](const char* title,
                         const std::vector<std::string>& rows) {
      out << title << " (" << (rows.empty() ? 0 : rows.size() - 1)
          << " rows + header):\n";
      for (size_t i = 0; i < rows.size() && i < 30; ++i) {
        out << "  " << rows[i] << "\n";
      }
      if (rows.size() > 30) out << "  ... (" << rows.size() - 30
                                << " more)\n";
    };
    append("expected (oracle)", expected);
    append("actual (engine)", actual);
    out << "script:\n" << RenderScript(script);
    std::string path = StrFormat("%s/dml_mismatch_s%05zu_%s.txt",
                                 options_.artifacts_dir.c_str(), sidx,
                                 leg.name);
    std::ofstream file(path);
    file << out.str();
    file.close();
    stats_.repro_files.push_back(path);
  }

  DmlDiffOptions options_;
  DmlDiffStats stats_;
};

}  // namespace

Status SetUpDmlTables(Database* db) {
  for (int t = 0; t < 2; ++t) {
    Result<Chunk> created =
        db->Execute(StrFormat(kCreateDmlTable, kDmlTables[t]));
    if (!created.ok()) return created.status();
    VDM_RETURN_NOT_OK(db->Insert(kDmlTables[t], DmlSeedRows(t)));
  }
  return Status::OK();
}

Result<DmlDiffStats> RunDmlDifferential(const DmlDiffOptions& options) {
  if (!options.artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.artifacts_dir, ec);
    if (ec) {
      return Status::InvalidArgument("cannot create artifacts dir '" +
                                     options.artifacts_dir + "'");
    }
  }
  const bool armed = options.with_faults && FaultInjection::CompiledIn();
  if (armed) {
    FaultInjection::SetSeed(options.seed);
    FaultSpec spec;
    spec.probability = 0.05;
    FaultInjection::Set("txn.commit.conflict", spec);
    FaultInjection::Set("txn.rollback", spec);
    FaultInjection::Set("storage.merge.remap", spec);
    FaultInjection::Set("storage.merge.abort", spec);
  }

  size_t n_workers =
      options.workers > 0
          ? static_cast<size_t>(options.workers)
          : std::min<size_t>(
                8, std::max(1u, std::thread::hardware_concurrency()));
  n_workers = std::max<size_t>(
      1, std::min(n_workers, static_cast<size_t>(options.num_scripts)));

  std::vector<std::unique_ptr<DmlWorker>> workers;
  for (size_t w = 0; w < n_workers; ++w) {
    workers.push_back(std::make_unique<DmlWorker>(options));
  }

  std::mutex mu;
  Status first_error = Status::OK();
  std::atomic<int64_t> done{0};
  auto run_worker = [&](size_t w) {
    Status status = Status::OK();
    for (size_t i = w;
         status.ok() && i < static_cast<size_t>(options.num_scripts);
         i += n_workers) {
      status = workers[w]->ProcessScript(i);
      int64_t now = ++done;
      if (options.progress_every > 0 &&
          now % options.progress_every == 0) {
        std::lock_guard<std::mutex> lock(mu);
        int64_t mismatches = 0;
        for (const auto& worker : workers) {
          mismatches += worker->stats().mismatches;
        }
        std::fprintf(stderr,
                     "vdmfuzz dml: %lld/%d scripts, %lld mismatches\n",
                     static_cast<long long>(now), options.num_scripts,
                     static_cast<long long>(mismatches));
      }
    }
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = status;
    }
  };

  if (n_workers == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t w = 0; w < n_workers; ++w) {
      threads.emplace_back(run_worker, w);
    }
    for (std::thread& t : threads) t.join();
  }
  if (armed) FaultInjection::Clear();
  if (!first_error.ok()) return first_error;

  DmlDiffStats total;
  for (const auto& worker : workers) {
    const DmlDiffStats& s = worker->stats();
    total.scripts += s.scripts;
    total.ops += s.ops;
    total.query_checks += s.query_checks;
    total.final_checks += s.final_checks;
    total.conflicts += s.conflicts;
    total.op_errors += s.op_errors;
    total.merges += s.merges;
    total.mismatches += s.mismatches;
    total.repro_files.insert(total.repro_files.end(), s.repro_files.begin(),
                             s.repro_files.end());
  }
  return total;
}

}  // namespace vdm

#include "testing/differential.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "ref/interpreter.h"
#include "server/client.h"
#include "server/server.h"
#include "vdm/generator.h"
#include "workload/s4.h"
#include "workload/tpch.h"

namespace vdm {

namespace {

const SystemProfile kMatrixProfiles[] = {
    SystemProfile::kHana, SystemProfile::kPostgres, SystemProfile::kSystemX,
    SystemProfile::kSystemY, SystemProfile::kSystemZ,
};

/// How one engine execution of the matrix is driven.
enum class RunMode { kPlain, kGoverned, kColdCache, kWarmCache };

const char* RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kPlain:
      return "cache=off governor=off";
    case RunMode::kGoverned:
      return "cache=off governor=on";
    case RunMode::kColdCache:
      return "cache=cold governor=off";
    case RunMode::kWarmCache:
      return "cache=warm governor=off";
  }
  return "?";
}

ExecLimits GenerousLimits() {
  ExecLimits limits;
  limits.timeout_ms = 60000;
  limits.memory_budget = int64_t{1} << 30;
  limits.max_queued_ms = 10000;
  return limits;
}

/// One worker's set of engine databases (threads x plan cache) plus the
/// oracle. dbs[0] (1 thread, cache off) doubles as the binding/oracle
/// database: BindQuery is const and leaves no cache state behind.
struct WorkerDbs {
  struct Entry {
    Database db;
    size_t threads = 1;
    bool cache = false;
    /// --server leg: a loopback vdmserve front end over `db` plus one
    /// connection per limits flavor. Null / disconnected otherwise.
    std::unique_ptr<Server> server;
    VdmClient client_open;
    VdmClient client_governed;
  };
  // 0: 1-thread/no-cache, 1: N-thread/no-cache, 2: 1-thread/cache,
  // 3: N-thread/cache.
  Entry entries[4];

  Status SetUp(size_t exec_threads, bool through_server) {
    size_t thread_legs[2] = {1, exec_threads};
    for (int i = 0; i < 4; ++i) {
      Entry& e = entries[i];
      e.threads = thread_legs[i % 2];
      e.cache = i >= 2;
      Result<QueryCorpus> corpus = SetUpFuzzDatabase(&e.db);
      if (!corpus.ok()) return corpus.status();
      ExecOptions exec;
      exec.num_threads = e.threads;
      // Tiny morsels make the N-thread legs run multi-partition aggregate
      // merges and probe/LIMIT waves.
      if (e.threads > 1) exec.morsel_size = kParallelLegMorselSize;
      // Leg 0 (1 thread, cache off) runs the generic interpreter path so
      // every query also diffs compressed-kernel execution against the
      // uncompressed engine, not just against the reference oracle.
      exec.enable_compressed_exec = (i != 0);
      e.db.SetExecOptions(exec);
      if (e.cache) {
        e.db.EnablePlanCache();
      } else {
        e.db.DisablePlanCache();
      }
      // Neutralize any VDM_TIMEOUT_MS / VDM_MEM_LIMIT_MB environment
      // defaults: the governed leg passes explicit limits instead.
      ExecLimits open;
      open.timeout_ms = 0;
      open.memory_budget = 0;
      open.max_queued_ms = 10000;
      e.db.set_default_limits(open);
      if (through_server) {
        ServerOptions sopts;
        sopts.workers = 1;  // requests are strictly serial per worker
        e.server = std::make_unique<Server>(&e.db, sopts);
        VDM_RETURN_NOT_OK(e.server->Start());
        VDM_RETURN_NOT_OK(
            e.client_open.Connect("127.0.0.1", e.server->port()));
        VDM_RETURN_NOT_OK(e.client_open.Hello(HelloMsg{}));
        VDM_RETURN_NOT_OK(
            e.client_governed.Connect("127.0.0.1", e.server->port()));
        HelloMsg governed;
        ExecLimits limits = GenerousLimits();
        governed.timeout_ms = static_cast<uint64_t>(limits.timeout_ms);
        governed.memory_budget =
            static_cast<uint64_t>(limits.memory_budget);
        governed.max_queued_ms =
            static_cast<uint64_t>(limits.max_queued_ms);
        VDM_RETURN_NOT_OK(e.client_governed.Hello(governed));
      }
    }
    return Status::OK();
  }

  Database& oracle_db() { return entries[0].db; }
};

Result<Chunk> RunOnce(WorkerDbs::Entry& e, const std::string& sql,
                      RunMode mode, DiffStats* stats) {
  if (e.server != nullptr) {
    // Loopback path: same matrix, but every execution round-trips the
    // wire protocol. The session's limits were fixed at HELLO, so the
    // governed leg uses its own connection.
    VdmClient& client =
        mode == RunMode::kGoverned ? e.client_governed : e.client_open;
    Result<Chunk> result = client.Query(sql);
    if (mode == RunMode::kWarmCache && stats != nullptr &&
        client.last_cache_hit()) {
      ++stats->plan_cache_hits;
    }
    return result;
  }
  switch (mode) {
    case RunMode::kGoverned:
      return e.db.Query(sql, GenerousLimits());
    case RunMode::kWarmCache: {
      QueryTiming timing;
      Result<Chunk> result = e.db.Query(sql, nullptr, &timing);
      if (stats != nullptr && timing.cache_hit) ++stats->plan_cache_hits;
      return result;
    }
    case RunMode::kPlain:
    case RunMode::kColdCache:
      return e.db.Query(sql);
  }
  return Status::Internal("unknown run mode");
}

/// Everything needed to re-run (and minimize) one failing execution.
struct FailureSite {
  SystemProfile profile = SystemProfile::kHana;
  int db_index = 0;
  RunMode mode = RunMode::kPlain;
  std::string kind = "base";  // "base" or a metamorphic variant kind
};

std::string DescribeSite(const FailureSite& site, const WorkerDbs& dbs) {
  return StrFormat("profile=%s threads=%zu %s kind=%s",
                   ProfileName(site.profile).c_str(),
                   dbs.entries[site.db_index].threads,
                   RunModeName(site.mode), site.kind.c_str());
}

void AppendRows(std::ostringstream* out, const std::vector<std::string>& rows,
                size_t limit = 20) {
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    *out << "  " << rows[i] << "\n";
  }
  if (rows.size() > limit) {
    *out << "  ... (" << rows.size() - limit << " more)\n";
  }
}

class Worker {
 public:
  Worker(const DiffOptions& options, const std::vector<GeneratedQuery>* qs)
      : options_(options), queries_(qs) {}

  Status SetUp() {
    return dbs_.SetUp(options_.exec_threads, options_.through_server);
  }

  DiffStats& stats() { return stats_; }

  OptimizerConfig ConfigFor(SystemProfile profile,
                            const std::string& kind = "base") const {
    OptimizerConfig config = ConfigForProfile(profile);
    // The reorder-off leg diffs the costed join order against the plan
    // shape as written; reproduction must apply the same tweak.
    if (kind == "reorder-off") config.join_reordering = false;
    config.debug_corrupt_pass = options_.debug_corrupt_pass;
    return config;
  }

  Status ProcessQuery(size_t qidx) {
    const GeneratedQuery& q = (*queries_)[qidx];
    VDM_ASSIGN_OR_RETURN(PlanRef raw, dbs_.oracle_db().BindQuery(q.sql));
    RefInterpreter ref(&dbs_.oracle_db().storage());
    VDM_ASSIGN_OR_RETURN(Chunk oracle, ref.Execute(raw));
    std::vector<std::string> expected = NormalizeChunk(oracle, q.ordered);
    ++stats_.queries;

    bool query_failed = false;
    for (SystemProfile profile : kMatrixProfiles) {
      OptimizerConfig config = ConfigFor(profile);
      for (int i = 0; i < 4 && !query_failed; ++i) {
        WorkerDbs::Entry& e = dbs_.entries[i];
        e.db.SetOptimizerConfig(config);  // also clears the plan cache
        RunMode modes[2] = {e.cache ? RunMode::kColdCache : RunMode::kPlain,
                            e.cache ? RunMode::kWarmCache
                                    : RunMode::kGoverned};
        for (RunMode mode : modes) {
          ++stats_.executions;
          Result<Chunk> actual = RunOnce(e, q.sql, mode, &stats_);
          if (!CheckResult(qidx, q, expected, actual,
                           {profile, i, mode, "base"})) {
            query_failed = true;
            break;
          }
        }
      }
      if (query_failed) break;
    }

    if (!query_failed) {
      // Reordering leg: the cost-based join order must be invisible in
      // the result. The base matrix runs every profile with its default
      // reordering setting; this leg pins kHana with reordering off on
      // the parallel no-cache database so reordered and source-order
      // plans diff against the same oracle rows.
      WorkerDbs::Entry& e = dbs_.entries[1];
      e.db.SetOptimizerConfig(ConfigFor(SystemProfile::kHana, "reorder-off"));
      ++stats_.executions;
      Result<Chunk> actual = RunOnce(e, q.sql, RunMode::kPlain, &stats_);
      if (!CheckResult(qidx, q, expected, actual,
                       {SystemProfile::kHana, 1, RunMode::kPlain,
                        "reorder-off"})) {
        query_failed = true;
      }
    }

    if (options_.with_metamorphic && !q.variants.empty()) {
      // Variants run on the parallel no-cache database under the full
      // rewrite set (kHana) and with the optimizer off (kNone): the added
      // join / branch must be invisible in the result either way.
      WorkerDbs::Entry& e = dbs_.entries[1];
      for (const GeneratedQuery::Variant& variant : q.variants) {
        for (SystemProfile profile :
             {SystemProfile::kHana, SystemProfile::kNone}) {
          e.db.SetOptimizerConfig(ConfigFor(profile));
          ++stats_.metamorphic_checks;
          Result<Chunk> actual = RunOnce(e, variant.sql, RunMode::kPlain,
                                         &stats_);
          if (!CheckVariant(qidx, q, variant, expected, actual,
                            {profile, 1, RunMode::kPlain, variant.kind},
                            &query_failed)) {
            break;
          }
        }
      }
    }
    if (query_failed) ++stats_.mismatches;
    return Status::OK();
  }

 private:
  /// Returns true when the execution matched the oracle. On mismatch,
  /// minimizes and dumps, and returns false.
  bool CheckResult(size_t qidx, const GeneratedQuery& q,
                   const std::vector<std::string>& expected,
                   const Result<Chunk>& actual, const FailureSite& site) {
    std::vector<std::string> actual_rows;
    if (actual.ok()) {
      actual_rows = NormalizeChunk(*actual, q.ordered);
      if (actual_rows == expected) return true;
    } else {
      ++stats_.errors;
    }
    std::string error =
        actual.ok() ? std::string() : actual.status().ToString();
    GeneratedQuery minimized = Minimize(q, site);
    Dump(qidx, q, minimized.sql, site, expected, actual_rows, error);
    return false;
  }

  bool CheckVariant(size_t qidx, const GeneratedQuery& q,
                    const GeneratedQuery::Variant& variant,
                    const std::vector<std::string>& expected,
                    const Result<Chunk>& actual, const FailureSite& site,
                    bool* query_failed) {
    std::vector<std::string> actual_rows;
    if (actual.ok()) {
      actual_rows = NormalizeChunk(*actual, q.ordered);
      if (actual_rows == expected) return true;
    } else {
      ++stats_.errors;
    }
    std::string error =
        actual.ok() ? std::string() : actual.status().ToString();
    Dump(qidx, q, variant.sql, site, expected, actual_rows, error);
    *query_failed = true;
    return false;
  }

  /// Re-runs a candidate at the failure site; true when it still
  /// mismatches the (freshly computed) oracle result.
  bool Reproduces(const GeneratedQuery& candidate, const FailureSite& site) {
    std::string sql = AssembleSql(candidate);
    bool ordered = !candidate.order_by.empty();
    Result<PlanRef> raw = dbs_.oracle_db().BindQuery(sql);
    if (!raw.ok()) return false;
    RefInterpreter ref(&dbs_.oracle_db().storage());
    Result<Chunk> oracle = ref.Execute(*raw);
    if (!oracle.ok()) return false;
    std::vector<std::string> expected = NormalizeChunk(*oracle, ordered);

    WorkerDbs::Entry& e = dbs_.entries[site.db_index];
    e.db.SetOptimizerConfig(ConfigFor(site.profile, site.kind));
    if (site.mode == RunMode::kWarmCache) {
      // Prime the cache, then diff the warm run.
      (void)RunOnce(e, sql, RunMode::kColdCache, nullptr);
    }
    Result<Chunk> actual = RunOnce(e, sql, site.mode, nullptr);
    if (!actual.ok()) return true;
    return NormalizeChunk(*actual, ordered) != expected;
  }

  /// Greedy delta-debugging over the query structure: drop paging,
  /// ordering, HAVING, joins, predicates, and select items while the
  /// mismatch still reproduces.
  GeneratedQuery Minimize(const GeneratedQuery& original,
                          const FailureSite& site) {
    GeneratedQuery best = original;
    bool reduced = true;
    int budget = 60;
    while (reduced && budget-- > 0) {
      reduced = false;
      std::vector<GeneratedQuery> candidates;
      if (!best.limit_clause.empty()) {
        GeneratedQuery c = best;
        c.limit_clause.clear();
        candidates.push_back(std::move(c));
      }
      if (!best.order_by.empty()) {
        GeneratedQuery c = best;
        c.order_by.clear();
        c.limit_clause.clear();  // LIMIT without full ORDER BY is not
                                 // deterministic, so they go together
        candidates.push_back(std::move(c));
      }
      if (!best.having.empty()) {
        GeneratedQuery c = best;
        c.having.clear();
        candidates.push_back(std::move(c));
      }
      if (best.distinct) {
        GeneratedQuery c = best;
        c.distinct = false;
        candidates.push_back(std::move(c));
      }
      for (size_t j = 0; j < best.joins.size(); ++j) {
        GeneratedQuery c = best;
        c.joins.erase(c.joins.begin() + static_cast<ptrdiff_t>(j));
        candidates.push_back(std::move(c));
      }
      for (size_t wi = 0; wi < best.where.size(); ++wi) {
        GeneratedQuery c = best;
        c.where.erase(c.where.begin() + static_cast<ptrdiff_t>(wi));
        candidates.push_back(std::move(c));
      }
      if (best.select_items.size() > 1) {
        for (size_t si = 0; si < best.select_items.size(); ++si) {
          GeneratedQuery c = best;
          std::string item = c.select_items[static_cast<size_t>(si)];
          c.select_items.erase(c.select_items.begin() +
                               static_cast<ptrdiff_t>(si));
          // Keep order_by and group_by consistent with the dropped item.
          size_t as_pos = item.rfind(" as ");
          std::string alias =
              as_pos == std::string::npos ? item : item.substr(as_pos + 4);
          std::string expr =
              as_pos == std::string::npos ? item : item.substr(0, as_pos);
          c.order_by.erase(
              std::remove(c.order_by.begin(), c.order_by.end(), alias),
              c.order_by.end());
          c.group_by.erase(
              std::remove(c.group_by.begin(), c.group_by.end(), expr),
              c.group_by.end());
          candidates.push_back(std::move(c));
        }
      }
      for (GeneratedQuery& candidate : candidates) {
        candidate.sql = AssembleSql(candidate);
        candidate.ordered = !candidate.order_by.empty();
        if (Reproduces(candidate, site)) {
          best = std::move(candidate);
          reduced = true;
          break;
        }
      }
    }
    return best;
  }

  void Dump(size_t qidx, const GeneratedQuery& q,
            const std::string& failing_sql, const FailureSite& site,
            const std::vector<std::string>& expected,
            const std::vector<std::string>& actual_rows,
            const std::string& error) {
    if (options_.artifacts_dir.empty()) return;
    std::ostringstream out;
    out << "vdmfuzz mismatch repro\n"
        << "seed: " << options_.seed << "\n"
        << "query index: " << qidx << "\n"
        << "site: " << DescribeSite(site, dbs_) << "\n"
        << "sql (original): " << q.sql << "\n"
        << "sql (failing, minimized): " << failing_sql << "\n";
    Result<std::string> before = dbs_.oracle_db().ExplainRaw(failing_sql);
    out << "\nplan before (bound, unoptimized):\n"
        << (before.ok() ? *before : before.status().ToString());
    WorkerDbs::Entry& e = dbs_.entries[site.db_index];
    e.db.SetOptimizerConfig(ConfigFor(site.profile, site.kind));
    Result<std::string> after = e.db.Explain(failing_sql);
    out << "\nplan after (optimized, " << ProfileName(site.profile)
        << "):\n" << (after.ok() ? *after : after.status().ToString());
    out << "\nexpected (oracle, " << (expected.empty() ? 0
                                                       : expected.size() - 1)
        << " rows + header):\n";
    AppendRows(&out, expected);
    if (!error.empty()) {
      out << "actual: engine error\n  " << error << "\n";
    } else {
      out << "actual (engine, "
          << (actual_rows.empty() ? 0 : actual_rows.size() - 1)
          << " rows + header):\n";
      AppendRows(&out, actual_rows);
    }
    std::string path =
        StrFormat("%s/mismatch_q%05zu_%s.txt", options_.artifacts_dir.c_str(),
                  qidx, site.kind.c_str());
    std::ofstream file(path);
    file << out.str();
    file.close();
    stats_.repro_files.push_back(path);
  }

  DiffOptions options_;
  const std::vector<GeneratedQuery>* queries_;
  WorkerDbs dbs_;
  DiffStats stats_;
};

}  // namespace

std::vector<std::string> NormalizeChunk(const Chunk& chunk, bool ordered) {
  std::vector<std::string> rows;
  rows.reserve(chunk.NumRows() + 1);
  for (size_t r = 0; r < chunk.NumRows(); ++r) {
    std::string row;
    for (size_t c = 0; c < chunk.NumColumns(); ++c) {
      row += chunk.columns[c].GetValue(r).ToString();
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  if (!ordered) std::sort(rows.begin(), rows.end());
  // Header goes in front *after* sorting, so column-count or column-name
  // drift is visible even for empty results.
  std::string header = "# ";
  for (const std::string& name : chunk.names) header += name + "|";
  rows.insert(rows.begin(), std::move(header));
  return rows;
}

Result<QueryCorpus> SetUpFuzzDatabase(Database* db) {
  // Deliberately tiny scales: the oracle is O(rows^2) per join by design,
  // and every query runs a 40+-execution matrix. Anything the engine gets
  // wrong at this scale it also gets wrong at production scale — rewrite
  // and executor bugs are shape bugs, not volume bugs.
  TpchOptions tpch;
  tpch.scale = 0.01;
  VDM_RETURN_NOT_OK(CreateTpchSchema(db, tpch));
  VDM_RETURN_NOT_OK(LoadTpchData(db, tpch));

  S4Options s4;
  s4.acdoca_rows = 400;
  s4.dimension_rows = 50;
  s4.generic_dimensions = 2;
  VDM_RETURN_NOT_OK(CreateS4Schema(db, s4));
  VDM_RETURN_NOT_OK(LoadS4Data(db, s4));
  // Per-document totals keyed like the JEIB's i_documenttotal; S4Corpus
  // LEFT OUTER joins it on its 4-column key.
  VDM_RETURN_NOT_OK(
      db->Execute("create view fuzz_documenttotal as "
                  "select rldnr, rbukrs, gjahr, belnr, "
                  "sum(hsl) as documenttotal, count(*) as documentlines "
                  "from acdoca group by rldnr, rbukrs, gjahr, belnr")
          .status());

  SyntheticVdmOptions vdm;
  vdm.num_views = 6;
  vdm.base_tables = 2;
  vdm.base_rows = 150;
  vdm.min_dims = 1;
  vdm.max_dims = 4;
  vdm.num_dims = 4;
  vdm.dim_rows = 40;
  vdm.seed = 1234;
  VDM_RETURN_NOT_OK(CreateSyntheticVdmSchema(db, vdm));
  VDM_RETURN_NOT_OK(LoadSyntheticVdmData(db, vdm));
  VDM_ASSIGN_OR_RETURN(std::vector<SyntheticViewSpec> specs,
                       GenerateSyntheticViews(db, vdm));
  for (size_t i = 0; i < specs.size(); ++i) {
    VDM_RETURN_NOT_OK(
        ExtendSyntheticView(db, &specs[i], /*use_case_join=*/i % 2 == 0));
  }
  db->AnalyzeTables();

  QueryCorpus corpus = TpchCorpus();
  MergeCorpus(&corpus, S4Corpus());
  MergeCorpus(&corpus, SyntheticVdmCorpus(specs));
  return corpus;
}

Result<DiffStats> DifferentialRunner::Run() {
  if (!options_.artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.artifacts_dir, ec);
    if (ec) {
      return Status::InvalidArgument("cannot create artifacts dir '" +
                                     options_.artifacts_dir + "'");
    }
  }

  // One throwaway database defines the corpus; workers rebuild identical
  // ones (the corpus is fully deterministic).
  std::vector<GeneratedQuery> queries;
  {
    Database corpus_db;
    VDM_ASSIGN_OR_RETURN(QueryCorpus corpus, SetUpFuzzDatabase(&corpus_db));
    QueryGenOptions gen_options;
    gen_options.seed = options_.seed;
    gen_options.with_variants = options_.with_metamorphic;
    QueryGenerator generator(std::move(corpus), gen_options);
    queries.reserve(static_cast<size_t>(options_.num_queries));
    for (int i = 0; i < options_.num_queries; ++i) {
      queries.push_back(generator.Next());
    }
  }

  size_t n_workers = options_.workers > 0
                         ? static_cast<size_t>(options_.workers)
                         : std::min<size_t>(
                               8, std::max(1u,
                                           std::thread::hardware_concurrency()));
  n_workers = std::max<size_t>(1, std::min(n_workers, queries.size()));

  std::vector<std::unique_ptr<Worker>> workers;
  for (size_t w = 0; w < n_workers; ++w) {
    workers.push_back(std::make_unique<Worker>(options_, &queries));
  }

  std::mutex mu;
  Status first_error = Status::OK();
  std::atomic<int64_t> done{0};
  auto run_worker = [&](size_t w) {
    Status status = workers[w]->SetUp();
    for (size_t i = w; status.ok() && i < queries.size(); i += n_workers) {
      status = workers[w]->ProcessQuery(i);
      int64_t now = ++done;
      if (options_.progress_every > 0 && now % options_.progress_every == 0) {
        std::lock_guard<std::mutex> lock(mu);
        int64_t mismatches = 0;
        for (const auto& worker : workers) {
          mismatches += worker->stats().mismatches;
        }
        std::fprintf(stderr, "vdmfuzz: %lld/%zu queries, %lld mismatches\n",
                     static_cast<long long>(now), queries.size(),
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
  if (!first_error.ok()) return first_error;

  DiffStats total;
  for (const auto& worker : workers) {
    const DiffStats& s = worker->stats();
    total.queries += s.queries;
    total.executions += s.executions;
    total.metamorphic_checks += s.metamorphic_checks;
    total.plan_cache_hits += s.plan_cache_hits;
    total.mismatches += s.mismatches;
    total.errors += s.errors;
    total.repro_files.insert(total.repro_files.end(), s.repro_files.begin(),
                             s.repro_files.end());
  }
  return total;
}

}  // namespace vdm

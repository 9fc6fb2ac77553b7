// Plan cache (engine/plan_cache.h) and statement parameterization
// (sql/parameterize.h): hit/miss behaviour, invalidation, LRU eviction,
// limit rebinding, result equivalence against the uncached pipeline, and
// in-process prepared statements (Prepare / ExecutePrepared) with the
// cache on and off.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "sql/parameterize.h"
#include "workload/tpch.h"

namespace vdm {
namespace {

// ---------------------------------------------------------------------------
// Statement parameterization

TEST(ParameterizeTest, LiteralVariantsShareOneKey) {
  // Note the literals share one decimal scale: the scale is part of the
  // parameter's type and therefore of the key.
  auto a = ParameterizeStatement(
      "select o_orderkey from orders where o_totalprice > 100.5 limit 10");
  auto b = ParameterizeStatement(
      "select o_orderkey from orders where o_totalprice > 999.2 limit 7 "
      "offset 3");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->cacheable);
  EXPECT_TRUE(b->cacheable);
  // The keys differ only in the optional OFFSET marker.
  EXPECT_EQ(a->key + " offset ?O", b->key);
  ASSERT_EQ(a->params.size(), 1u);
  ASSERT_EQ(b->params.size(), 1u);
  EXPECT_EQ(a->limit, 10);
  EXPECT_EQ(a->offset, 0);
  EXPECT_FALSE(a->has_offset);
  EXPECT_EQ(b->limit, 7);
  EXPECT_EQ(b->offset, 3);
  EXPECT_TRUE(b->has_offset);

  auto c = ParameterizeStatement(
      "select o_orderkey from orders where o_totalprice > 42.0 limit 99 "
      "offset 6");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(b->key, c->key);
}

TEST(ParameterizeTest, EqualityLiteralsStayInline) {
  // Equality literals feed constant pinning (UAJ 3) and must remain
  // visible to the optimizer, so they land in the key verbatim.
  auto a = ParameterizeStatement(
      "select o_orderkey from orders where o_orderstatus = 'O'");
  auto b = ParameterizeStatement(
      "select o_orderkey from orders where o_orderstatus = 'F'");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->params.empty());
  EXPECT_NE(a->key, b->key);
}

TEST(ParameterizeTest, SubqueryAndOnClauseLiteralsStayInline) {
  auto p = ParameterizeStatement(
      "select o.o_orderkey from orders o left join "
      "(select c_custkey from customer where c_acctbal > 50.0) t "
      "on o.o_custkey = t.c_custkey and 1 < 2 "
      "where o.o_totalprice > 10.0");
  ASSERT_TRUE(p.ok());
  // Only the top-level WHERE literal is lifted; the subquery's range
  // literal and the ON-clause literals are untouched.
  ASSERT_EQ(p->params.size(), 1u);
  EXPECT_EQ(p->params[0].ToString(), Value::Decimal(100, 1).ToString());
}

TEST(ParameterizeTest, NonSelectAndSentinelCollisionsNotCacheable) {
  auto ddl = ParameterizeStatement("create table t (k int primary key)");
  ASSERT_TRUE(ddl.ok());
  EXPECT_FALSE(ddl->cacheable);

  auto collide = ParameterizeStatement(
      "select o_orderkey from orders where o_orderkey = 1000003 limit 5");
  ASSERT_TRUE(collide.ok());
  EXPECT_FALSE(collide->cacheable);
}

// ---------------------------------------------------------------------------
// PlanCache structure

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCache cache(2);
  auto plan = std::make_shared<CachedPlan>();
  cache.Insert("a", plan);
  cache.Insert("b", plan);
  EXPECT_NE(cache.Lookup("a"), nullptr);  // "a" is now most recent
  cache.Insert("c", plan);                // evicts "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(PlanCacheTest, ConcurrentLookupInsertClear) {
  PlanCache cache(8);
  auto plan = std::make_shared<CachedPlan>();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, plan, t] {
      for (int i = 0; i < 500; ++i) {
        std::string key = "k" + std::to_string((t + i) % 12);
        if (cache.Lookup(key) == nullptr) cache.Insert(key, plan);
        if (i % 100 == 99 && t == 0) cache.Clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 8u);
}

TEST(PlanCacheTest, ConfigFingerprintSeparatesProfiles) {
  uint64_t hana = FingerprintConfig(ConfigForProfile(SystemProfile::kHana));
  uint64_t pg = FingerprintConfig(ConfigForProfile(SystemProfile::kPostgres));
  uint64_t none = FingerprintConfig(ConfigForProfile(SystemProfile::kNone));
  EXPECT_NE(hana, pg);
  EXPECT_NE(hana, none);
  EXPECT_NE(pg, none);
}

// ---------------------------------------------------------------------------
// End-to-end behaviour on TPC-H

class PlanCacheDbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TpchOptions options;
    options.scale = 0.05;
    ASSERT_TRUE(CreateTpchSchema(db_, options).ok());
    ASSERT_TRUE(LoadTpchData(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  void SetUp() override {
    db_->SetProfile(SystemProfile::kHana);
    db_->EnablePlanCache();
    db_->ResetPlanCacheStats();
  }
  void TearDown() override { db_->DisablePlanCache(); }

  static Database* db_;
};

Database* PlanCacheDbTest::db_ = nullptr;

TEST_F(PlanCacheDbTest, HitOnLiteralOnlyChange) {
  QueryTiming timing;
  Result<Chunk> first = db_->Query(
      "select o_orderkey from orders where o_orderkey > 0", nullptr,
      &timing);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(timing.used_cache);
  EXPECT_FALSE(timing.cache_hit);

  Result<Chunk> second = db_->Query(
      "select o_orderkey from orders where o_orderkey > 999999999", nullptr,
      &timing);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(timing.cache_hit);
  EXPECT_EQ(timing.parse_ns, 0);
  EXPECT_EQ(timing.bind_ns, 0);
  EXPECT_EQ(timing.optimize_ns, 0);
  // The two literal variants must produce genuinely different results.
  EXPECT_GT(first->NumRows(), second->NumRows());

  // Same literal again: still a hit, same result as the uncached pipeline.
  db_->DisablePlanCache();
  Result<Chunk> uncached = db_->Query(
      "select o_orderkey from orders where o_orderkey > 999999999");
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(second->ToString(), uncached->ToString());
}

TEST_F(PlanCacheDbTest, PagingQueryRebindsLimitAndOffset) {
  std::vector<std::string> uncached;
  db_->DisablePlanCache();
  for (int64_t offset : {0, 5, 40, 400}) {
    Result<Chunk> r = db_->Query(PagingQuerySql(10, offset));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    uncached.push_back(r->ToString());
  }
  db_->EnablePlanCache();
  db_->ResetPlanCacheStats();
  size_t i = 0;
  for (int64_t offset : {0, 5, 40, 400}) {
    QueryTiming timing;
    Result<Chunk> r = db_->Query(PagingQuerySql(10, offset), nullptr, &timing);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(timing.cache_hit, i > 0) << "offset " << offset;
    EXPECT_EQ(r->NumRows(), 10u);
    EXPECT_EQ(r->ToString(), uncached[i]) << "offset " << offset;
    ++i;
  }
  PlanCacheStats stats = db_->plan_cache_stats();
  EXPECT_EQ(stats.hits, 3u);
  // A different LIMIT is a hit too (the window is a parameter).
  Result<Chunk> wide = db_->Query(PagingQuerySql(25, 3));
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->NumRows(), 25u);
  EXPECT_EQ(db_->plan_cache_stats().hits, 4u);
}

TEST_F(PlanCacheDbTest, InvalidationOnDdlProfileAndConfig) {
  const std::string sql =
      "select o_orderkey from orders where o_totalprice > 500.0";
  ASSERT_TRUE(db_->Query(sql).ok());
  QueryTiming timing;
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok());
  EXPECT_TRUE(timing.cache_hit);

  // CREATE TABLE bumps the catalog version: next run must recompile.
  ASSERT_TRUE(db_->Execute("create table pc_probe (k int primary key)").ok());
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);

  // CREATE VIEW likewise.
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok() && timing.cache_hit);
  ASSERT_TRUE(
      db_->Execute("create view pc_view as select k from pc_probe").ok());
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);

  // Dropping objects invalidates too.
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok() && timing.cache_hit);
  ASSERT_TRUE(db_->catalog().DropView("pc_view").ok());
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok() && timing.cache_hit);
  ASSERT_TRUE(db_->catalog().DropTable("pc_probe").ok());
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);

  // Profile change clears the cache.
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok() && timing.cache_hit);
  db_->SetProfile(SystemProfile::kPostgres);
  EXPECT_EQ(db_->plan_cache_size(), 0u);
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);

  // Optimizer-config change clears it as well.
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok() && timing.cache_hit);
  OptimizerConfig config = ConfigForProfile(SystemProfile::kHana);
  config.join_reordering = false;
  db_->SetOptimizerConfig(config);
  EXPECT_EQ(db_->plan_cache_size(), 0u);
  ASSERT_TRUE(db_->Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);
}

TEST_F(PlanCacheDbTest, CommitKeepsPlansWarmStatsRefreshRecompilesItsTables) {
  const std::string orders_sql =
      "select o_orderkey, o_totalprice from orders "
      "where o_totalprice > 500.0";
  const std::string lineitem_sql =
      "select l_orderkey from lineitem where l_quantity > 40.0";
  QueryTiming timing;
  ASSERT_TRUE(db_->Query(orders_sql).ok());
  ASSERT_TRUE(db_->Query(lineitem_sql).ok());
  ASSERT_TRUE(db_->Query(orders_sql, nullptr, &timing).ok());
  EXPECT_TRUE(timing.cache_hit);

  // A commit that changes what orders_sql returns invalidates nothing:
  // the next run is a hit, and its result is byte-identical to a run
  // with the cache off.
  const uint64_t schema_before = db_->catalog().version();
  const uint64_t inval_before = db_->plan_cache_stats().invalidations;
  Result<Chunk> dml = db_->Execute(
      "update orders set o_totalprice = o_totalprice + 100000.0 "
      "where o_orderkey = 1");
  ASSERT_TRUE(dml.ok()) << dml.status().ToString();
  EXPECT_EQ(db_->catalog().version(), schema_before);
  Result<Chunk> warm = db_->Query(orders_sql, nullptr, &timing);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(timing.cache_hit);
  EXPECT_EQ(db_->plan_cache_stats().invalidations, inval_before);
  db_->DisablePlanCache();
  Result<Chunk> off = db_->Query(orders_sql);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(warm->ToString(), off->ToString());
  db_->EnablePlanCache();
  ASSERT_TRUE(db_->Query(orders_sql).ok());
  ASSERT_TRUE(db_->Query(lineitem_sql).ok());

  // Fresh statistics on orders (a merge refreshes them) recompile the
  // orders plan only; lineitem plans stay warm.
  ASSERT_TRUE(db_->MergeTableMvcc("orders").ok());
  ASSERT_TRUE(db_->Query(lineitem_sql, nullptr, &timing).ok());
  EXPECT_TRUE(timing.cache_hit);
  Result<Chunk> recompiled = db_->Query(orders_sql, nullptr, &timing);
  ASSERT_TRUE(recompiled.ok()) << recompiled.status().ToString();
  EXPECT_FALSE(timing.cache_hit);
  EXPECT_EQ(db_->plan_cache_stats().invalidations, inval_before + 1);
  ASSERT_TRUE(db_->Query(orders_sql, nullptr, &timing).ok());
  EXPECT_TRUE(timing.cache_hit);

  ASSERT_TRUE(db_->Execute("update orders set o_totalprice = "
                           "o_totalprice - 100000.0 where o_orderkey = 1")
                  .ok());
}

TEST(PlanCacheAutoAnalyzeTest, UnmergedDeltaDoesNotRecompileEveryCommit) {
  // Nothing merges (threshold 0): the delta only grows. Auto-analyze fires
  // once the table drifts by more than max(64, rows/5) from its last
  // statistics: at row 65 of a fresh table, then not again before 130.
  Database db;
  db.SetMergeThreshold(0);
  db.EnablePlanCache();
  ASSERT_TRUE(db.Execute("create table t (k int primary key, v int)").ok());
  int rows = 0;
  auto insert_one = [&] {
    ++rows;
    ASSERT_TRUE(db.Execute(StrFormat("insert into t values (%d, %d)", rows,
                                     rows))
                    .ok());
  };
  for (int i = 0; i < 80; ++i) insert_one();
  const std::string sql = "select count(*) as n from t where v > 0";
  QueryTiming timing;
  ASSERT_TRUE(db.Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);

  const uint64_t version = db.catalog().stats_version("t");
  while (rows < 129) {
    insert_one();
    Result<Chunk> r = db.Query(sql, nullptr, &timing);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(timing.cache_hit) << "after row " << rows;
    EXPECT_EQ(r->columns[0].GetValue(0), Value::Int64(rows));
  }
  EXPECT_EQ(db.catalog().stats_version("t"), version);
  insert_one();  // row 130: 65 rows past the row-65 statistics
  ASSERT_TRUE(db.Query(sql, nullptr, &timing).ok());
  EXPECT_FALSE(timing.cache_hit);
  EXPECT_EQ(db.catalog().stats_version("t"), version + 1);
  insert_one();
  ASSERT_TRUE(db.Query(sql, nullptr, &timing).ok());
  EXPECT_TRUE(timing.cache_hit);
}

TEST_F(PlanCacheDbTest, EvictionAtDatabaseLevel) {
  db_->EnablePlanCache(/*capacity=*/2);
  for (const char* sql :
       {"select o_orderkey from orders where o_totalprice > 1.0",
        "select o_custkey from orders where o_totalprice > 2.0",
        "select o_orderdate from orders where o_totalprice > 3.0"}) {
    ASSERT_TRUE(db_->Query(sql).ok());
  }
  EXPECT_EQ(db_->plan_cache_size(), 2u);
  EXPECT_GE(db_->plan_cache_stats().evictions, 1u);
}

TEST_F(PlanCacheDbTest, ResultsIdenticalAcrossProfilesColdAndWarm) {
  std::vector<std::string> queries;
  for (UajQuery q : AllUajQueries()) queries.push_back(UajQuerySql(q));
  for (AsjQuery q : AllAsjQueries()) queries.push_back(AsjQuerySql(q));
  queries.push_back(PagingQuerySql(20, 10));
  queries.push_back(
      "select o_orderstatus, sum(o_totalprice) as total from orders "
      "group by o_orderstatus having sum(o_totalprice) > 100.00");

  for (SystemProfile profile :
       {SystemProfile::kHana, SystemProfile::kPostgres, SystemProfile::kSystemX,
        SystemProfile::kSystemY, SystemProfile::kSystemZ}) {
    for (const std::string& sql : queries) {
      db_->SetProfile(profile);
      db_->DisablePlanCache();
      Result<Chunk> off = db_->Query(sql);
      ASSERT_TRUE(off.ok()) << off.status().ToString() << "\n" << sql;
      db_->EnablePlanCache();
      QueryTiming timing;
      Result<Chunk> cold = db_->Query(sql, nullptr, &timing);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString() << "\n" << sql;
      Result<Chunk> warm = db_->Query(sql, nullptr, &timing);
      ASSERT_TRUE(warm.ok());
      // Byte-identical output, cache off vs cold miss vs warm hit.
      EXPECT_EQ(off->ToString(), cold->ToString())
          << ProfileName(profile) << "\n" << sql;
      EXPECT_EQ(off->ToString(), warm->ToString())
          << ProfileName(profile) << "\n" << sql;
    }
  }
}

TEST_F(PlanCacheDbTest, ParallelExecutionWithCache) {
  ExecOptions exec;
  exec.num_threads = 4;
  db_->SetExecOptions(exec);
  std::string cold;
  for (int round = 0; round < 3; ++round) {
    QueryTiming timing;
    Result<Chunk> r = db_->Query(PagingQuerySql(50, 25), nullptr, &timing);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(timing.cache_hit, round > 0);
    if (round == 0) {
      cold = r->ToString();
    } else {
      EXPECT_EQ(cold, r->ToString());
    }
  }
  db_->SetExecOptions(ExecOptions{});
}

/// (derived, reused) from an EXPLAIN ANALYZE "optimizer:" line.
std::pair<size_t, size_t> PropertyCounts(const std::string& explain) {
  unsigned long derived = 0, reused = 0;
  const size_t at = explain.find("properties: ");
  if (at == std::string::npos ||
      std::sscanf(explain.c_str() + at, "properties: %lu derived, %lu reused",
                  &derived, &reused) != 2) {
    ADD_FAILURE() << "no property counters in:\n" << explain;
  }
  return {derived, reused};
}

TEST_F(PlanCacheDbTest, ExplainAnalyzeReportsCacheOutcome) {
  // The customer join is an unused augmentation: UAJ elimination asks
  // for its properties.
  const std::string sql =
      "select o.o_orderkey from orders o left outer join customer c "
      "on o.o_custkey = c.c_custkey where o.o_totalprice > 800.0 limit 4";
  Result<std::string> cold = db_->ExplainAnalyze(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold->find("plan cache: miss"), std::string::npos) << *cold;
  EXPECT_NE(cold->find(", converged; "), std::string::npos) << *cold;
  // The run's inference engine: each node derived once, then reused by the
  // later passes that ask about it again.
  const std::pair<size_t, size_t> counts = PropertyCounts(*cold);
  EXPECT_GT(counts.first, 0u) << *cold;
  EXPECT_GT(counts.second, 0u) << *cold;
  Result<std::string> warm = db_->ExplainAnalyze(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("plan cache: hit"), std::string::npos) << *warm;
  EXPECT_NE(warm->find("rebind"), std::string::npos) << *warm;
  EXPECT_EQ(warm->find("optimizer:"), std::string::npos) << *warm;
  EXPECT_EQ(warm->find("properties:"), std::string::npos) << *warm;

  // A compile cut off by max_passes says so.
  OptimizerConfig truncated = db_->optimizer_config();
  truncated.max_passes = 1;
  db_->SetOptimizerConfig(truncated);
  Result<std::string> cut = db_->ExplainAnalyze(sql);
  db_->SetProfile(SystemProfile::kHana);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_NE(cut->find("optimizer: 1 pass, hit max_passes; "),
            std::string::npos)
      << *cut;

  // The counters are the compile's own: with the cache off, the same as a
  // direct optimize of the bound statement.
  db_->DisablePlanCache();
  Result<std::string> off = db_->ExplainAnalyze(sql);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  Result<PlanRef> bound = db_->BindQuery(sql);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  QueryTiming direct;
  ASSERT_TRUE(db_->OptimizePlan(*bound, &direct).ok());
  EXPECT_EQ(PropertyCounts(*off),
            std::make_pair(direct.props_computed, direct.props_reused))
      << *off;
}

// ---------------------------------------------------------------------------
// Prepared statements in process. EXECUTE compiles through the same
// parameterized path as an ad-hoc QUERY; every case runs with the plan
// cache on and off.

class PreparedDbTest : public PlanCacheDbTest,
                       public ::testing::WithParamInterface<bool> {
 protected:
  void SetUp() override {
    PlanCacheDbTest::SetUp();
    if (!GetParam()) db_->DisablePlanCache();
  }

  /// Executes `prepared` with the literals, LIMIT and OFFSET of `sql` (a
  /// variant of the prepared text).
  static Result<Chunk> ExecuteAs(const PreparedStatement& prepared,
                                 const std::string& sql,
                                 QueryTiming* timing = nullptr) {
    Result<ParameterizedStatement> ps = ParameterizeStatement(sql);
    if (!ps.ok()) return ps.status();
    return db_->ExecutePrepared(prepared, ps->params, ps->limit,
                                ps->has_offset ? ps->offset : -1,
                                db_->default_limits(), nullptr, timing);
  }
};

TEST_P(PreparedDbTest, ExecuteMatchesQuery) {
  const auto range = [](const char* price, int limit) {
    return StrFormat(
        "select o_orderkey, o_totalprice from orders where o_totalprice > "
        "%s order by o_orderkey limit %d",
        price, limit);
  };
  Result<std::shared_ptr<const PreparedStatement>> ranged =
      db_->Prepare(range("1000.5", 20));
  ASSERT_TRUE(ranged.ok()) << ranged.status().ToString();
  EXPECT_TRUE((*ranged)->parameterized_ok);
  Result<std::shared_ptr<const PreparedStatement>> paging =
      db_->Prepare(PagingQuerySql(10, 5));
  ASSERT_TRUE(paging.ok()) << paging.status().ToString();
  EXPECT_TRUE((*paging)->parameterized_ok);

  std::vector<std::pair<const PreparedStatement*, std::string>> runs;
  for (const char* price : {"1000.5", "250000.0", "9999999.9"}) {
    for (int limit : {20, 3}) {
      runs.emplace_back(ranged->get(), range(price, limit));
    }
  }
  for (int64_t offset : {5, 0, 400}) {
    runs.emplace_back(paging->get(), PagingQuerySql(10, offset));
    runs.emplace_back(paging->get(), PagingQuerySql(25, offset));
  }
  for (const auto& [prepared, sql] : runs) {
    Result<Chunk> executed = ExecuteAs(*prepared, sql);
    Result<Chunk> queried = db_->Query(sql);
    ASSERT_TRUE(executed.ok()) << sql << ": " << executed.status().ToString();
    ASSERT_TRUE(queried.ok()) << sql << ": " << queried.status().ToString();
    EXPECT_EQ(executed->ToString(), queried->ToString()) << sql;
  }
}

TEST_P(PreparedDbTest, PreparedAndAdHocShareOneCachedPlan) {
  const bool cache = GetParam();
  // PREPARE + EXECUTE, then QUERY of the same text.
  const std::string first =
      "select o_orderkey from orders where o_totalprice > 700.5 limit 9";
  Result<std::shared_ptr<const PreparedStatement>> prepared =
      db_->Prepare(first);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  QueryTiming timing;
  Result<Chunk> executed = db_->ExecutePrepared(
      **prepared, {}, -1, -1, db_->default_limits(), nullptr, &timing);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(timing.used_cache, cache);
  EXPECT_FALSE(timing.cache_hit);
  Result<Chunk> queried = db_->Query(first, nullptr, &timing);
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  EXPECT_EQ(timing.cache_hit, cache);
  EXPECT_EQ(executed->ToString(), queried->ToString());
  EXPECT_EQ(db_->plan_cache_size(), cache ? 1u : 0u);

  // QUERY, then PREPARE + EXECUTE of the same text.
  const std::string second =
      "select c_custkey from customer where c_acctbal > 10.5 limit 9";
  queried = db_->Query(second, nullptr, &timing);
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  EXPECT_FALSE(timing.cache_hit);
  prepared = db_->Prepare(second);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  executed = db_->ExecutePrepared(**prepared, {}, -1, -1,
                                  db_->default_limits(), nullptr, &timing);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(timing.cache_hit, cache);
  EXPECT_EQ(executed->ToString(), queried->ToString());
  EXPECT_EQ(db_->plan_cache_size(), cache ? 2u : 0u);
}

TEST_P(PreparedDbTest, BadExecuteArgumentsAreInvalidArgument) {
  const ExecLimits& limits = db_->default_limits();
  Result<std::shared_ptr<const PreparedStatement>> no_limit =
      db_->Prepare("select o_orderkey from orders where o_totalprice > 700.5");
  ASSERT_TRUE(no_limit.ok()) << no_limit.status().ToString();
  ASSERT_TRUE((*no_limit)->parameterized_ok);
  ASSERT_EQ((*no_limit)->parameterized.param_types.size(), 1u);

  Result<Chunk> wrong_count = db_->ExecutePrepared(
      **no_limit, {Value::Int64(1), Value::Int64(2)}, -1, -1, limits);
  ASSERT_FALSE(wrong_count.ok());
  EXPECT_EQ(wrong_count.status().code(), StatusCode::kInvalidArgument)
      << wrong_count.status().ToString();

  Result<Chunk> limit_bound =
      db_->ExecutePrepared(**no_limit, {}, /*limit=*/5, -1, limits);
  ASSERT_FALSE(limit_bound.ok());
  EXPECT_EQ(limit_bound.status().code(), StatusCode::kInvalidArgument)
      << limit_bound.status().ToString();

  // A literal colliding with the limit sentinels keeps the statement out
  // of the parameterized path: EXECUTE re-runs its text, without values.
  Result<std::shared_ptr<const PreparedStatement>> direct = db_->Prepare(
      "select o_orderkey from orders where o_orderkey = 1000003 limit 5");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_FALSE((*direct)->parameterized_ok);
  Result<Chunk> with_values =
      db_->ExecutePrepared(**direct, {Value::Int64(1)}, -1, -1, limits);
  ASSERT_FALSE(with_values.ok());
  EXPECT_EQ(with_values.status().code(), StatusCode::kInvalidArgument)
      << with_values.status().ToString();
  EXPECT_TRUE(db_->ExecutePrepared(**direct, {}, -1, -1, limits).ok());
}

TEST_P(PreparedDbTest, AdHocBindErrorReadsAsWithTheCacheOff) {
  const std::string sql =
      "select o_nosuchcolumn from orders where o_totalprice > 700.5";
  Result<Chunk> queried = db_->Query(sql);
  ASSERT_FALSE(queried.ok());
  Result<std::shared_ptr<const PreparedStatement>> prepared =
      db_->Prepare(sql);
  ASSERT_FALSE(prepared.ok());
  db_->DisablePlanCache();
  Result<Chunk> reference = db_->Query(sql);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(queried.status().ToString(), reference.status().ToString());
  EXPECT_EQ(prepared.status().ToString(), reference.status().ToString());
}

INSTANTIATE_TEST_SUITE_P(PlanCache, PreparedDbTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CacheOn" : "CacheOff";
                         });

}  // namespace
}  // namespace vdm

// Google-benchmark microbenchmarks for the engine primitives: scan,
// filter, hash join, aggregation, and the optimizer itself (the paper
// §6.3 trades optimization time against execution time — this bench
// quantifies our optimization time on both micro and VDM-scale plans).
#include <benchmark/benchmark.h>

#include "engine/database.h"
#include "vdm/jeib.h"
#include "workload/s4.h"
#include "workload/tpch.h"

namespace vdm {
namespace {

Database* TpchDb() {
  static Database* db = [] {
    auto* instance = new Database();
    TpchOptions options;
    options.scale = 1.0;
    VDM_CHECK(CreateTpchSchema(instance, options).ok());
    VDM_CHECK(LoadTpchData(instance, options).ok());
    return instance;
  }();
  return db;
}

Database* S4Db() {
  static Database* db = [] {
    auto* instance = new Database();
    S4Options options;
    options.acdoca_rows = 20000;
    VDM_CHECK(CreateS4Schema(instance, options).ok());
    VDM_CHECK(LoadS4Data(instance, options).ok());
    VDM_CHECK(BuildJournalEntryItemBrowser(instance).ok());
    return instance;
  }();
  return db;
}

void BM_ScanProjection(benchmark::State& state) {
  Database* db = TpchDb();
  Result<PlanRef> plan =
      db->PlanQuery("select l_orderkey, l_extendedprice from lineitem");
  VDM_CHECK(plan.ok());
  for (auto _ : state) {
    Result<Chunk> r = db->ExecutePlan(*plan);
    benchmark::DoNotOptimize(r->NumRows());
  }
}
BENCHMARK(BM_ScanProjection);

void BM_FilterScan(benchmark::State& state) {
  Database* db = TpchDb();
  Result<PlanRef> plan = db->PlanQuery(
      "select l_orderkey from lineitem where l_quantity > 25");
  VDM_CHECK(plan.ok());
  for (auto _ : state) {
    Result<Chunk> r = db->ExecutePlan(*plan);
    benchmark::DoNotOptimize(r->NumRows());
  }
}
BENCHMARK(BM_FilterScan);

void BM_HashJoin(benchmark::State& state) {
  Database* db = TpchDb();
  Result<PlanRef> plan = db->PlanQuery(
      "select o.o_orderkey, c.c_name from orders o "
      "join customer c on o.o_custkey = c.c_custkey");
  VDM_CHECK(plan.ok());
  for (auto _ : state) {
    Result<Chunk> r = db->ExecutePlan(*plan);
    benchmark::DoNotOptimize(r->NumRows());
  }
}
BENCHMARK(BM_HashJoin);

void BM_HashAggregate(benchmark::State& state) {
  Database* db = TpchDb();
  Result<PlanRef> plan = db->PlanQuery(
      "select l_orderkey, sum(l_extendedprice) as s from lineitem "
      "group by l_orderkey");
  VDM_CHECK(plan.ok());
  for (auto _ : state) {
    Result<Chunk> r = db->ExecutePlan(*plan);
    benchmark::DoNotOptimize(r->NumRows());
  }
}
BENCHMARK(BM_HashAggregate);

/// Executes `sql`, planned once, per iteration.
void ExecuteEach(benchmark::State& state, Database* db, const char* sql) {
  Result<PlanRef> plan = db->PlanQuery(sql);
  VDM_CHECK(plan.ok());
  for (auto _ : state) {
    Result<Chunk> r = db->ExecutePlan(*plan);
    benchmark::DoNotOptimize(r->NumRows());
  }
}

// JEIB's document-total augmentation: a four-column (string, string, int,
// int) group key, joined back on the same four columns.
void BM_DocumentTotalJoin(benchmark::State& state) {
  ExecuteEach(state, S4Db(),
              "select count(*) as n, sum(dt.documenttotal) as s "
              "from acdoca a join i_documenttotal dt "
              "on a.rldnr = dt.rldnr and a.rbukrs = dt.rbukrs "
              "and a.gjahr = dt.gjahr and a.belnr = dt.belnr");
}
BENCHMARK(BM_DocumentTotalJoin);

// Plain strings (unmerged delta rows) probing a dictionary-coded build
// side: every probe key is looked up by value.
void BM_PlainStringProbe(benchmark::State& state) {
  static Database* db = [] {
    auto* instance = new Database();
    VDM_CHECK(instance->Execute("create table dictdim (k varchar primary key, "
                                "label varchar)")
                  .ok());
    VDM_CHECK(instance->Execute("create table plainfact (k varchar, v int)")
                  .ok());
    std::vector<std::vector<Value>> dim, fact;
    for (int64_t i = 0; i < 2000; ++i) {
      dim.push_back({Value::String("key" + std::to_string(i)),
                     Value::String("label" + std::to_string(i % 7))});
    }
    for (int64_t i = 0; i < 20000; ++i) {
      fact.push_back({Value::String("key" + std::to_string(i * 7 % 2500)),
                      Value::Int64(i)});
    }
    VDM_CHECK(instance->Insert("dictdim", dim).ok());
    instance->MergeAllDeltas();  // the build side carries a dictionary
    VDM_CHECK(instance->Insert("plainfact", fact).ok());
    return instance;
  }();
  ExecuteEach(state, db,
              "select count(*) as n from plainfact f "
              "join dictdim d on f.k = d.k");
}
BENCHMARK(BM_PlainStringProbe);

void BM_OptimizeUajQuery(benchmark::State& state) {
  Database* db = TpchDb();
  Result<PlanRef> bound = db->BindQuery(UajQuerySql(UajQuery::kUaj2a));
  VDM_CHECK(bound.ok());
  db->SetProfile(SystemProfile::kHana);
  for (auto _ : state) {
    PlanRef optimized = db->OptimizePlan(*bound).value();
    benchmark::DoNotOptimize(optimized.get());
  }
}
BENCHMARK(BM_OptimizeUajQuery);

void BM_BindJeib(benchmark::State& state) {
  Database* db = S4Db();
  for (auto _ : state) {
    Result<PlanRef> bound =
        db->BindQuery("select count(*) from journalentryitembrowser");
    benchmark::DoNotOptimize(bound->get());
  }
}
BENCHMARK(BM_BindJeib);

void BM_OptimizeJeibCountStar(benchmark::State& state) {
  Database* db = S4Db();
  Result<PlanRef> bound =
      db->BindQuery("select count(*) from journalentryitembrowser");
  VDM_CHECK(bound.ok());
  db->SetProfile(SystemProfile::kHana);
  for (auto _ : state) {
    PlanRef optimized = db->OptimizePlan(*bound).value();
    benchmark::DoNotOptimize(optimized.get());
  }
}
BENCHMARK(BM_OptimizeJeibCountStar);

}  // namespace
}  // namespace vdm

BENCHMARK_MAIN();

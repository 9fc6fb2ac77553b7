// Parallel-determinism battery for the morsel-driven executor: every
// query must produce byte-for-byte identical results with num_threads=1
// (every morsel inline) and num_threads=8, across joins, aggregates,
// distinct, sorts, and unions. LIMIT without ORDER BY is compared as a
// row set (any prefix is a valid answer), plus metrics checks for limit
// early exit.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "plan/plan_builder.h"

namespace vdm {
namespace {

/// Asserts two chunks are byte-for-byte identical: same shape, same
/// column names and types, same nulls, same raw values (doubles compared
/// bitwise).
void ExpectChunksIdentical(const Chunk& a, const Chunk& b) {
  ASSERT_EQ(a.names, b.names);
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    const ColumnData& ca = a.columns[c];
    const ColumnData& cb = b.columns[c];
    ASSERT_EQ(ca.type().id, cb.type().id) << "column " << a.names[c];
    for (size_t r = 0; r < a.NumRows(); ++r) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r))
          << "column " << a.names[c] << " row " << r;
      if (ca.IsNull(r)) continue;
      if (ca.type().id == TypeId::kString) {
        ASSERT_EQ(ca.strings()[r], cb.strings()[r])
            << "column " << a.names[c] << " row " << r;
      } else if (ca.type().id == TypeId::kDouble) {
        ASSERT_EQ(std::memcmp(&ca.doubles()[r], &cb.doubles()[r],
                              sizeof(double)),
                  0)
            << "column " << a.names[c] << " row " << r;
      } else {
        ASSERT_EQ(ca.ints()[r], cb.ints()[r])
            << "column " << a.names[c] << " row " << r;
      }
    }
  }
}

/// Rows of a chunk rendered as strings (for set-wise comparison of
/// order-unspecified results like LIMIT without ORDER BY).
std::multiset<std::string> RowSet(const Chunk& chunk) {
  std::multiset<std::string> rows;
  for (size_t r = 0; r < chunk.NumRows(); ++r) {
    std::string row;
    for (size_t c = 0; c < chunk.NumColumns(); ++c) {
      row += chunk.columns[c].GetValue(r).ToString();
      row += '|';
    }
    rows.insert(std::move(row));
  }
  return rows;
}

class ExecParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("create table fact ("
                            "id int primary key,"
                            "k int,"
                            "grp int,"
                            "val int,"
                            "name varchar,"
                            "amt double)")
                    .ok());
    ASSERT_TRUE(db_.Execute("create table dim ("
                            "k int primary key,"
                            "label varchar)")
                    .ok());
    // 3000 fact rows over 60 join keys (20 of them dangling), 7 groups,
    // 12 names, with periodic NULL keys and NULL values. `amt` is a double
    // whose sums round differently in different addition orders.
    std::vector<std::vector<Value>> fact_rows;
    for (int64_t i = 0; i < 3000; ++i) {
      Value key = (i % 97 == 0) ? Value::Null() : Value::Int64(i % 60);
      Value val = (i % 53 == 0) ? Value::Null() : Value::Int64(i * 7 % 1000);
      fact_rows.push_back({Value::Int64(i), key, Value::Int64(i % 7), val,
                           Value::String("n" + std::to_string(i % 12)),
                           Value::Double(0.1 * static_cast<double>(i % 91))});
    }
    ASSERT_TRUE(db_.Insert("fact", fact_rows).ok());
    std::vector<std::vector<Value>> dim_rows;
    for (int64_t k = 0; k < 40; ++k) {
      dim_rows.push_back(
          {Value::Int64(k), Value::String("d" + std::to_string(k % 5))});
    }
    ASSERT_TRUE(db_.Insert("dim", dim_rows).ok());
    // Merge into main storage so string columns carry dictionaries (the
    // kDict32 join/group path) and stats are fresh.
    db_.MergeAllDeltas();
    db_.AnalyzeTables();
  }

  /// Runs the query under the given executor options.
  Chunk Run(const std::string& sql, ExecOptions options,
            ExecMetrics* metrics = nullptr) {
    db_.SetExecOptions(options);
    Result<Chunk> result = db_.Query(sql, metrics);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.ok() ? std::move(result).value() : Chunk{};
  }

  /// Runs serially and with 8 workers (morsels forced small so even this
  /// data set splits into many) and asserts byte-identical results.
  void ExpectDeterministic(const std::string& sql) {
    Chunk serial = Run(sql, ExecOptions{.num_threads = 1});
    Chunk parallel =
        Run(sql, ExecOptions{.num_threads = 8, .morsel_size = 256});
    ExpectChunksIdentical(serial, parallel);
  }

  Database db_;
};

TEST_F(ExecParallelTest, InnerJoinIdentical) {
  ExpectDeterministic(
      "select f.id, f.val, d.label from fact f "
      "join dim d on f.k = d.k");
}

TEST_F(ExecParallelTest, LeftOuterJoinIdentical) {
  // 20 of the 60 key values are dangling and a slice of keys is NULL, so
  // the null-extension path runs in every morsel.
  ExpectDeterministic(
      "select f.id, f.name, d.label from fact f "
      "left join dim d on f.k = d.k");
}

TEST_F(ExecParallelTest, JoinWithResidualIdentical) {
  ExpectDeterministic(
      "select f.id, d.label from fact f "
      "join dim d on f.k = d.k and f.val > 500");
}

TEST_F(ExecParallelTest, StringKeyJoinIdentical) {
  // Self-join on the dictionary-encoded name column (kDict32 path).
  ExpectDeterministic(
      "select count(*) as n from fact a "
      "join fact b on a.name = b.name and a.id = b.id");
}

TEST_F(ExecParallelTest, GroupByIdentical) {
  // count/sum(int)/min/max are parallel-merge eligible.
  ExpectDeterministic(
      "select grp, count(*) as n, sum(val) as s, min(name) as lo, "
      "max(name) as hi from fact group by grp");
}

TEST_F(ExecParallelTest, OrderSensitiveAggregatesIdentical) {
  // avg and count(distinct) are order-sensitive and run as one partition
  // regardless of thread count.
  ExpectDeterministic(
      "select grp, avg(val) as mean, count(distinct name) as dn "
      "from fact group by grp");
}

TEST_F(ExecParallelTest, GlobalAggregateOverEmptyInput) {
  // A global aggregate is one group even over no rows.
  const std::string sql =
      "select count(*) as n, sum(val) as s, min(name) as lo, "
      "avg(amt) as a from fact where id < 0";
  ExpectDeterministic(sql);
  Chunk result = Run(sql, ExecOptions{.num_threads = 8, .morsel_size = 256});
  ASSERT_EQ(result.NumRows(), 1u);
  EXPECT_EQ(result.columns[0].GetValue(0).AsInt64(), 0);
  EXPECT_TRUE(result.columns[1].IsNull(0));
  EXPECT_TRUE(result.columns[2].IsNull(0));
  EXPECT_TRUE(result.columns[3].IsNull(0));
}

TEST_F(ExecParallelTest, MixedOrderSensitivityAggregatesIdentical) {
  // Order-insensitive kinds next to a double sum, avg and count(distinct):
  // the whole set runs as one partition, grouped and global.
  ExpectDeterministic(
      "select grp, count(*) as n, sum(val) as s, min(name) as lo, "
      "max(amt) as hi, sum(amt) as ds, avg(val) as mean, "
      "count(distinct name) as dn from fact group by grp");
  ExpectDeterministic(
      "select count(val) as n, sum(val) as s, sum(amt) as ds, "
      "avg(amt) as mean, count(distinct k) as dk from fact");
}

TEST_F(ExecParallelTest, LeftOuterResidualOverMaterializedProbe) {
  // The probe side is an aggregate (materialized, probed in row ranges):
  // every group matches one dim row, and the residual rejects the matches
  // labelled 'd1', which revert to null extension.
  const std::string sql =
      "select g.val, g.grp, g.n, d.label from "
      "(select val, grp, count(*) as n from fact group by val, grp) g "
      "left join dim d on g.grp = d.k and d.label <> 'd1'";
  ExpectDeterministic(sql);
  Chunk result = Run(sql, ExecOptions{.num_threads = 8, .morsel_size = 256});
  EXPECT_GT(result.NumRows(), 2u * 256u);
  size_t extended = 0;
  for (size_t r = 0; r < result.NumRows(); ++r) {
    if (result.columns[3].IsNull(r)) ++extended;
  }
  EXPECT_GT(extended, 0u);
  EXPECT_LT(extended, result.NumRows());
}

TEST_F(ExecParallelTest, JoinWithoutEquiKeyUnderLimit) {
  // No equi key: every build row matches, and the residual filters. The
  // LIMIT still cuts the probe short.
  const std::string sql =
      "select f.id, d.k from fact f join dim d on f.val > d.k limit 7";
  ExpectDeterministic(sql);
  ExecMetrics metrics;
  Chunk early =
      Run(sql, ExecOptions{.num_threads = 1, .morsel_size = 256}, &metrics);
  EXPECT_EQ(early.NumRows(), 7u);
  EXPECT_GT(metrics.limit_early_exits, 0u);
  EXPECT_LT(metrics.rows_probe_input, 3000u);
  Chunk full = Run(sql, ExecOptions{.num_threads = 1,
                                    .morsel_size = 256,
                                    .enable_limit_early_exit = false});
  ExpectChunksIdentical(early, full);
}

TEST_F(ExecParallelTest, PagingShapedLimitExitsEarly) {
  // The paper's §4.4 paging shape: a LIMIT/OFFSET page over a LEFT OUTER
  // augmentation join, serially.
  const std::string sql =
      "select f.id, f.val, d.label from fact f "
      "left join dim d on f.k = d.k limit 10 offset 20";
  ExpectDeterministic(sql);
  ExecMetrics metrics;
  Chunk page =
      Run(sql, ExecOptions{.num_threads = 1, .morsel_size = 256}, &metrics);
  EXPECT_EQ(page.NumRows(), 10u);
  EXPECT_GT(metrics.limit_early_exits, 0u);
  EXPECT_LT(metrics.rows_probe_input, 3000u);
  Chunk full = Run(sql, ExecOptions{.num_threads = 1,
                                    .morsel_size = 256,
                                    .enable_limit_early_exit = false});
  ExpectChunksIdentical(page, full);
}

TEST_F(ExecParallelTest, GroupByStringKeyIdentical) {
  ExpectDeterministic(
      "select name, count(*) as n from fact group by name");
}

TEST_F(ExecParallelTest, FilterAndProjectIdentical) {
  ExpectDeterministic(
      "select id, val * 2 as v2 from fact where val > 250 and grp = 3");
}

TEST_F(ExecParallelTest, DistinctIdentical) {
  ExpectDeterministic("select distinct name from fact");
  ExpectDeterministic("select distinct grp, name from fact");
}

TEST_F(ExecParallelTest, OrderByLimitIdentical) {
  ExpectDeterministic(
      "select id, val from fact order by val desc, id limit 25");
}

TEST_F(ExecParallelTest, UnionAllIdentical) {
  ExpectDeterministic(
      "select id from fact where grp = 1 "
      "union all select id from fact where grp = 2");
}

TEST_F(ExecParallelTest, AggregateOverJoinIdentical) {
  ExpectDeterministic(
      "select d.label, count(*) as n, sum(f.val) as s from fact f "
      "join dim d on f.k = d.k group by d.label");
}

TEST_F(ExecParallelTest, LimitWithoutOrderByIsAValidRowSubset) {
  const std::string full_sql =
      "select f.id, d.label from fact f join dim d on f.k = d.k";
  const std::string limited_sql = full_sql + " limit 10";
  std::multiset<std::string> full =
      RowSet(Run(full_sql, ExecOptions{.num_threads = 1}));
  for (size_t threads : {1u, 8u}) {
    Chunk limited = Run(limited_sql, ExecOptions{.num_threads = threads,
                                                 .morsel_size = 256});
    ASSERT_EQ(limited.NumRows(), 10u) << threads << " threads";
    // Every emitted row must be one of the full result's rows.
    std::multiset<std::string> remaining = full;
    for (const std::string& row : RowSet(limited)) {
      auto it = remaining.find(row);
      ASSERT_TRUE(it != remaining.end())
          << "row not in full result: " << row;
      remaining.erase(it);
    }
  }
}

TEST_F(ExecParallelTest, LimitOverJoinExitsEarly) {
  // Self-join so the probe side is large (3000 rows = many morsels)
  // whichever side the optimizer picks for the build.
  ExecMetrics metrics;
  Chunk result =
      Run("select a.id, b.id from fact a join fact b on a.k = b.k limit 5",
          ExecOptions{.num_threads = 1, .morsel_size = 256}, &metrics);
  EXPECT_EQ(result.NumRows(), 5u);
  EXPECT_GT(metrics.limit_early_exits, 0u);
  // The probe loop stopped long before consuming all 3000 probe rows.
  EXPECT_LT(metrics.rows_probe_input, 3000u);
}

TEST_F(ExecParallelTest, EarlyExitCanBeDisabled) {
  ExecMetrics metrics;
  Chunk result =
      Run("select a.id, b.id from fact a join fact b on a.k = b.k limit 5",
          ExecOptions{.num_threads = 1,
                      .morsel_size = 256,
                      .enable_limit_early_exit = false},
          &metrics);
  EXPECT_EQ(result.NumRows(), 5u);
  EXPECT_EQ(metrics.limit_early_exits, 0u);
  EXPECT_EQ(metrics.rows_probe_input, 3000u);  // full probe without the hint
}

TEST_F(ExecParallelTest, MetricsRecordMorselsAndTimings) {
  ExecMetrics metrics;
  Run("select grp, count(*) as n from fact where val > 100 group by grp",
      ExecOptions{.num_threads = 8, .morsel_size = 256}, &metrics);
  EXPECT_GE(metrics.morsels_scanned, 3000u / 256u);
  EXPECT_GT(metrics.rows_aggregated, 0u);
  EXPECT_GT(metrics.peak_hash_table_entries, 0u);
  EXPECT_FALSE(metrics.op_wall_ns.empty());
  uint64_t total_ns = 0;
  for (const auto& [op, ns] : metrics.op_wall_ns) total_ns += ns;
  EXPECT_GT(total_ns, 0u);
}


// ---------------------------------------------------------------------------
// Augmentation-join chains: plans built node by node, so each case runs
// exactly the chain shape it names, run inline and on a 4-worker pool at
// morsel sizes 1, 16 and 4096.

class ExecChainTest : public ExecParallelTest {
 protected:
  void SetUp() override {
    ExecParallelTest::SetUp();
    // grp 6 has no grpdim row; parent 2 has no parentdim row; grp 4 has a
    // NULL name and parent 0 a NULL w, so LEFT OUTER joins null-extend and
    // later joins see NULL keys.
    ASSERT_TRUE(db_.Execute("create table grpdim ("
                            "grp int primary key, gname varchar, parent int)")
                    .ok());
    ASSERT_TRUE(db_.Execute("create table parentdim ("
                            "p int primary key, pname varchar, w int)")
                    .ok());
    std::vector<std::vector<Value>> grp_rows;
    for (int64_t g = 0; g < 6; ++g) {
      grp_rows.push_back({Value::Int64(g),
                          g == 4 ? Value::Null()
                                 : Value::String("g" + std::to_string(g)),
                          Value::Int64(g % 3)});
    }
    ASSERT_TRUE(db_.Insert("grpdim", grp_rows).ok());
    ASSERT_TRUE(db_.Insert("parentdim",
                           {{Value::Int64(0), Value::String("p0"),
                             Value::Null()},
                            {Value::Int64(1), Value::String("p1"),
                             Value::Int64(7)}})
                    .ok());
    db_.MergeAllDeltas();
  }

  PlanBuilder Scan(const std::string& table, const std::string& alias) {
    return PlanBuilder::Scan(db_.catalog(), table, alias);
  }

  static ThreadPool* Pool() {
    static ThreadPool pool(4);
    return &pool;
  }

  Result<Chunk> Execute(const PlanRef& plan, ThreadPool* pool,
                        size_t morsel_size, ExecMetrics* metrics = nullptr,
                        QueryContext* ctx = nullptr) {
    Executor executor(&db_.storage(),
                      ExecOptions{.num_threads = pool == nullptr ? 1u : 4u,
                                  .morsel_size = morsel_size},
                      pool);
    return executor.Execute(plan, metrics, ctx);
  }

  /// Runs `plan` inline and on the pool at morsel sizes 1, 16 and 4096,
  /// asserts every run byte-identical to the first, and returns it.
  Chunk ExpectChainDeterministic(const PlanRef& plan) {
    Chunk first;
    bool have_first = false;
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), Pool()}) {
      for (size_t morsel_size : {size_t{1}, size_t{16}, size_t{4096}}) {
        Result<Chunk> result = Execute(plan, pool, morsel_size);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) return Chunk{};
        if (!have_first) {
          first = std::move(result).value();
          have_first = true;
          continue;
        }
        SCOPED_TRACE(testing::Message()
                     << (pool == nullptr ? "inline" : "pool") << ", morsel "
                     << morsel_size);
        ExpectChunksIdentical(first, *result);
      }
    }
    return first;
  }

  /// fact ⋈ dim ⋈ grpdim (INNER, INNER), then LEFT OUTER parentdim.
  PlanBuilder InnerInnerOuter() {
    return Scan("fact", "f")
        .Join(Scan("dim", "d"), JoinType::kInner, Eq(Col("f.k"), Col("d.k")))
        .Join(Scan("grpdim", "g"), JoinType::kInner,
              Eq(Col("f.grp"), Col("g.grp")))
        .Join(Scan("parentdim", "p"), JoinType::kLeftOuter,
              Eq(Col("g.parent"), Col("p.p")));
  }
};

TEST_F(ExecChainTest, InnerInnerOuterFilterOuterFilterAggregate) {
  PlanRef plan =
      InnerInnerOuter()
          .Filter(Bin(BinaryOpKind::kGreater, Col("f.val"), LitInt(100)))
          .Join(Scan("dim", "d2"), JoinType::kLeftOuter,
                Eq(Col("p.w"), Col("d2.k")))
          .Filter(Bin(BinaryOpKind::kNotEq,
                      Func("coalesce", {Col("d2.label"), LitStr("none")}),
                      LitStr("d1")))
          .Aggregate({{Col("d.label"), "label"}, {Col("p.pname"), "pname"}},
                     {{CountStar(), "n"},
                      {Agg(AggKind::kSum, Col("f.val")), "s"},
                      {Agg(AggKind::kMin, Col("d2.label")), "lo"}})
          .Build();
  Chunk result = ExpectChainDeterministic(plan);
  EXPECT_GT(result.NumRows(), 1u);
}

TEST_F(ExecChainTest, ResidualReadsAColumnTwoJoinsBelow) {
  // The parentdim join's residual reads d.k, produced by the lowest join;
  // rows failing it revert to null extension.
  PlanRef plan =
      Scan("fact", "f")
          .Join(Scan("dim", "d"), JoinType::kInner, Eq(Col("f.k"), Col("d.k")))
          .Join(Scan("grpdim", "g"), JoinType::kInner,
                Eq(Col("f.grp"), Col("g.grp")))
          .Join(Scan("parentdim", "p"), JoinType::kLeftOuter,
                And(Eq(Col("g.parent"), Col("p.p")),
                    Bin(BinaryOpKind::kGreater, Col("d.k"), LitInt(20))))
          .ProjectColumns({"f.id", "d.k", "g.gname", "p.pname"})
          .Build();
  Chunk result = ExpectChainDeterministic(plan);
  ASSERT_GT(result.NumRows(), 0u);
  size_t extended = 0;
  for (size_t r = 0; r < result.NumRows(); ++r) {
    const bool null_p = result.columns[3].IsNull(r);
    if (result.columns[1].ints()[r] <= 20) {
      EXPECT_TRUE(null_p) << "row " << r;
    }
    if (null_p) ++extended;
  }
  EXPECT_GT(extended, 0u);
  EXPECT_LT(extended, result.NumRows());
}

TEST_F(ExecChainTest, FilterOnNullExtendedColumn) {
  PlanRef plan =
      Scan("fact", "f")
          .Join(Scan("dim", "d"), JoinType::kLeftOuter,
                Eq(Col("f.k"), Col("d.k")))
          .Filter(Bin(BinaryOpKind::kOr,
                      std::make_shared<IsNullExpr>(Col("d.label"),
                                                   /*negated=*/false),
                      Eq(Col("d.label"), LitStr("d2"))))
          .ProjectColumns({"f.id", "f.k", "d.label"})
          .Build();
  Chunk result = ExpectChainDeterministic(plan);
  size_t extended = 0;
  for (size_t r = 0; r < result.NumRows(); ++r) {
    if (result.columns[2].IsNull(r)) {
      ++extended;
    } else {
      EXPECT_EQ(result.columns[2].strings()[r], "d2");
    }
  }
  EXPECT_GT(extended, 0u);
  EXPECT_LT(extended, result.NumRows());
}

TEST_F(ExecChainTest, LimitOverChainExitsEarly) {
  PlanRef plan = InnerInnerOuter()
                     .ProjectColumns({"f.id", "d.label", "p.pname"})
                     .Limit(10, 5)
                     .Build();
  Chunk page = ExpectChainDeterministic(plan);
  EXPECT_EQ(page.NumRows(), 10u);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), Pool()}) {
    ExecMetrics metrics;
    ASSERT_TRUE(Execute(plan, pool, 16, &metrics).ok());
    EXPECT_GT(metrics.limit_early_exits, 0u);
    EXPECT_LT(metrics.rows_scanned, 3000u);
  }
}

TEST_F(ExecChainTest, MemoryLimitTripsInsideTheChain) {
  PlanRef plan = InnerInnerOuter()
                     .ProjectColumns({"f.id", "d.label", "p.pname"})
                     .Build();
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), Pool()}) {
    ExecMetrics metrics;
    ASSERT_TRUE(Execute(plan, pool, 16, &metrics).ok());
    // The row indexes are charged wave by wave on top of the build tables,
    // so one byte under the unlimited run's peak fails the last charge.
    QueryContext ctx;
    ctx.memory().set_limit(static_cast<int64_t>(metrics.peak_memory_bytes) -
                           1);
    Result<Chunk> result = Execute(plan, pool, 16, nullptr, &ctx);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
  }
}

TEST_F(ExecChainTest, GathersEachOutputColumnOnce) {
  // Four joins with filters between them, one morsel, no pool: the keys
  // after the first join, each filter's column and the five output
  // columns are the only values gathered.
  PlanBuilder j1 = Scan("fact", "f").Join(Scan("dim", "d"), JoinType::kInner,
                                         Eq(Col("f.k"), Col("d.k")));
  PlanBuilder f1 = j1.Filter(Bin(BinaryOpKind::kNotEq, Col("d.label"),
                                 LitStr("d3")));
  PlanBuilder j2 = f1.Join(Scan("grpdim", "g"), JoinType::kInner,
                           Eq(Col("f.grp"), Col("g.grp")));
  PlanBuilder f2 =
      j2.Filter(Bin(BinaryOpKind::kGreater, Col("f.val"), LitInt(100)));
  PlanBuilder j3 = f2.Join(Scan("parentdim", "p"), JoinType::kLeftOuter,
                           Eq(Col("g.parent"), Col("p.p")));
  PlanBuilder j4 = j3.Join(Scan("dim", "d2"), JoinType::kLeftOuter,
                           Eq(Col("p.w"), Col("d2.k")));
  PlanRef plan = j4.ProjectColumns(
                       {"f.id", "d.label", "g.gname", "p.pname", "d2.label"})
                     .Build();
  auto rows = [&](const PlanBuilder& prefix) {
    Result<Chunk> r = Execute(prefix.Build(), nullptr, 4096);
    EXPECT_TRUE(r.ok());
    return r.ok() ? static_cast<uint64_t>(r->NumRows()) : 0;
  };
  const uint64_t n1 = rows(j1), n2 = rows(f1), n3 = rows(j2),
                 n4 = rows(f2), n5 = rows(j3), n6 = rows(j4);
  ExecMetrics metrics;
  Result<Chunk> result = Execute(plan, nullptr, 4096, &metrics);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), n6);
  // d.label for the first filter, f.grp as the second join's key, f.val for
  // the second filter, g.parent and p.w as the outer joins' keys, then the
  // output.
  EXPECT_EQ(metrics.values_gathered, n1 + n2 + n3 + n4 + n5 + 5 * n6);
  // The same plan on the executor that gathered every column at every
  // join and filter (measured with this counter at its gather sites).
  constexpr uint64_t kPerJoinMaterialization = 92424;
  EXPECT_LT(metrics.values_gathered, kPerJoinMaterialization);
}

}  // namespace
}  // namespace vdm

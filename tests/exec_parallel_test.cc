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

#include "engine/database.h"

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

}  // namespace
}  // namespace vdm

// Unit tests of the benchmark's own code: the percentile rule, the seeded
// request streams, span self-time arithmetic and result digests.
//
//   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "digest.h"
#include "stats.h"
#include "streams.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailRuleTest, NeedsElevenSamples) {
  EXPECT_FALSE(TailOf(Ramp(10)).valid);
  const Tail t = TailOf(Ramp(11));
  ASSERT_TRUE(t.valid);
  EXPECT_EQ(t.value, 1);  // rank 1: ten samples beyond it
  EXPECT_DOUBLE_EQ(t.pct, 1.0 / 11);
}

TEST(TailRuleTest, HighestPercentileWithTenBeyond) {
  // Below 1000 samples p99 would leave fewer than ten beyond it.
  const Tail t100 = TailOf(Ramp(100));
  EXPECT_EQ(t100.value, 90);
  EXPECT_DOUBLE_EQ(t100.pct, 0.90);
  const Tail t250 = TailOf(Ramp(250));
  EXPECT_EQ(t250.value, 240);
  EXPECT_DOUBLE_EQ(t250.pct, 0.96);
  // From 1000 samples on it is p99.
  const Tail t1000 = TailOf(Ramp(1000));
  EXPECT_EQ(t1000.value, 990);
  EXPECT_DOUBLE_EQ(t1000.pct, 0.99);
  const Tail t5000 = TailOf(Ramp(5000));
  EXPECT_EQ(t5000.value, 4950);
  EXPECT_DOUBLE_EQ(t5000.pct, 0.99);
  for (size_t n : {11u, 57u, 999u, 1001u, 12345u}) {
    const Tail t = TailOf(Ramp(n));
    const auto beyond = n - static_cast<size_t>(t.value);
    EXPECT_GE(beyond, kTailBeyond) << n;
    EXPECT_LE(t.pct, 0.99 + 1e-12) << n;
    EXPECT_EQ(t.samples, n);
  }
}

TEST(TailRuleTest, PercentileAndMedian) {
  EXPECT_EQ(PercentileOf(Ramp(10), 0.5), 5);
  EXPECT_EQ(PercentileOf(Ramp(10), 0.9), 9);
  EXPECT_EQ(PercentileOf({}, 0.5), 0);
  EXPECT_EQ(MedianOf({3, 1, 2}), 2);
  EXPECT_EQ(MedianOf({4, 1, 2, 3}), 2.5);
}

std::vector<std::string> Columns() {
  std::vector<std::string> cols = {"rldnr", "rbukrs", "gjahr", "belnr",
                                   "docln", "hsl"};
  for (int i = 0; i < 30; ++i) cols.push_back("attr" + std::to_string(i));
  return cols;
}

// Every statement the three workloads send for `seed`, concatenated.
std::string StatementStream(uint64_t seed) {
  std::string out;
  for (int conn = 0; conn < 4; ++conn) {
    for (uint64_t k = 0; k < 200; ++k) {
      const Page& p = PagingPages()[PagingRequest(seed, conn, k)];
      out += std::to_string(p.limit) + "/" + std::to_string(p.offset) + ";";
    }
  }
  const AdhocPool pool = MakeAdhocPool(1, "v", Columns(), 64, 0.7);
  for (int conn = 0; conn < 4; ++conn) {
    for (uint32_t i : AdhocStream(pool, seed, conn, 200)) {
      out += pool.statements[i] + ";";
    }
  }
  const std::vector<std::string> reports = MakeReports(1, "v", Columns(), 16);
  for (int conn = 0; conn < 3; ++conn) {
    for (uint64_t k = 0; k < 100; ++k) {
      out += reports[ReportRequest(seed, conn, k, reports.size())] + ";";
    }
  }
  for (uint64_t k = 0; k < 100; ++k) {
    const Posting p = MakePosting(seed, 90000000, k);
    out += p.insert_debit + ";" + p.insert_credit + ";";
  }
  return out;
}

TEST(StreamTest, SameSeedGivesByteIdenticalStream) {
  EXPECT_EQ(StatementStream(42), StatementStream(42));
  EXPECT_NE(StatementStream(42), StatementStream(43));
}

TEST(StreamTest, CyclesVisitEveryItemOncePerCycle) {
  for (int stream = 0; stream < 4; ++stream) {
    for (uint64_t cycle = 0; cycle < 3; ++cycle) {
      std::set<size_t> seen;
      for (uint64_t k = cycle * 48; k < (cycle + 1) * 48; ++k) {
        seen.insert(PagingRequest(7, stream, k));
      }
      EXPECT_EQ(seen.size(), 48u);
    }
  }
}

TEST(StreamTest, AdhocStreamHoldsTheZipfMix) {
  const AdhocPool pool = MakeAdhocPool(1, "v", Columns(), 32, 0.7);
  double total = 0;
  for (double w : pool.weights) total += w;
  const size_t n = 3200;
  std::map<uint32_t, int> count;
  for (uint32_t i : AdhocStream(pool, 9, 0, n)) ++count[i];
  for (size_t r = 0; r < pool.weights.size(); ++r) {
    const double want = static_cast<double>(n) * pool.weights[r] / total;
    EXPECT_NEAR(count[pool.rank_to_statement[r]], want, 1.5) << r;
  }
}

TEST(StreamTest, PostingsBalance) {
  const Posting p = MakePosting(3, 100, 5);
  // The local amount hsl is the 13th value.
  const auto amount = [](const std::string& sql) {
    size_t at = sql.find('(');
    for (int i = 0; i < 12; ++i) at = sql.find(", ", at) + 2;
    return sql.substr(at, sql.find(',', at) - at);
  };
  const std::string debit = amount(p.insert_debit);
  const std::string credit = amount(p.insert_credit);
  EXPECT_EQ("-" + debit, credit);
}

TEST(SpanTest, SelfTimeSubtractsMergedChildCoverage) {
  NameTable names;
  SpanBuffer buf(&names);
  const int64_t root = buf.Add("request", 0, 100, -1, 1);
  const int64_t a = buf.Add("a", 10, 40, root, 1);
  buf.Add("b", 30, 60, root, 1);    // overlaps a: [10, 60] counts once
  buf.Add("c", 90, 120, root, 1);   // clipped to the parent: [90, 100]
  buf.Add("a.child", 15, 20, a, 1);
  const std::vector<int64_t> self = SelfTimes(buf.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);

  const std::map<std::string, SpanTotals> totals =
      TotalsByName(buf.spans(), names);
  EXPECT_EQ(totals.at("request").self_ns, 40);
  EXPECT_EQ(totals.at("a").total_ns, 30);
}

TEST(SpanTest, AppendShiftsParents) {
  NameTable names;
  SpanBuffer one(&names), two(&names);
  one.Add("x", 0, 10, -1, 1);
  const int64_t root = two.Add("y", 0, 10, -1, 2);
  two.Add("z", 2, 4, root, 2);
  std::vector<Span> all;
  AppendSpans(one.spans(), &all);
  AppendSpans(two.spans(), &all);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].parent, 1);
  EXPECT_EQ(SelfTimes(all)[1], 8);
}

vdm::Chunk TwoRows(bool swapped) {
  vdm::Chunk chunk;
  chunk.names = {"k", "s"};
  vdm::ColumnData k(vdm::DataType{vdm::TypeId::kInt64});
  vdm::ColumnData s(vdm::DataType{vdm::TypeId::kString});
  for (int i : swapped ? std::vector<int>{2, 1} : std::vector<int>{1, 2}) {
    k.AppendInt(i);
    s.AppendString("row" + std::to_string(i));
  }
  chunk.columns.push_back(std::move(k));
  chunk.columns.push_back(std::move(s));
  return chunk;
}

TEST(DigestTest, OrderMattersOnlyWhenOrdered) {
  EXPECT_EQ(ChunkDigest(TwoRows(false), false),
            ChunkDigest(TwoRows(true), false));
  EXPECT_NE(ChunkDigest(TwoRows(false), true),
            ChunkDigest(TwoRows(true), true));
  vdm::Chunk other = TwoRows(false);
  other.columns[1] = vdm::ColumnData(vdm::DataType{vdm::TypeId::kString});
  other.columns[1].AppendString("row1");
  other.columns[1].AppendString("rowX");
  EXPECT_NE(ChunkDigest(TwoRows(false), false), ChunkDigest(other, false));
}

}  // namespace
}  // namespace perfbench

// Compiles of ad-hoc JournalEntryItemBrowser reports (the paper's §4.1
// workload: a few fields picked from the expansive view, restricted to one
// company): the fixpoint converges with the company filter on the ACDOCA
// scan — in the document-total augmenter too — and concurrent compiles
// through one Database are deterministic.
#include <gtest/gtest.h>

#include <thread>

#include "engine/database.h"
#include "plan/plan_printer.h"
#include "vdm/jeib.h"
#include "workload/s4.h"

namespace vdm {
namespace {

// Both report shapes of the ad-hoc mix: aggregates over a company, and a
// sorted, limited page of line items of a company.
const char* const kReports[] = {
    "select count(*) as n, max(hsl) as a1, min(customername) as a2 "
    "from journalentryitembrowser where rbukrs = 'C003'",
    "select count(*) as n, min(glaccountname) as a1, max(chain3attr_2) as a2, "
    "count(dimname_07) as a3 from journalentryitembrowser "
    "where rbukrs = 'C011'",
    "select count(*) as n, max(documentlines) as a1, min(chain3name_0) as a2, "
    "max(partnername) as a3 from journalentryitembrowser "
    "where rbukrs = 'C014'",
    "select belnr, hsl, companyname, suppliername "
    "from journalentryitembrowser where rbukrs = 'C007' "
    "order by rldnr, gjahr, belnr, docln limit 10",
    "select gjahr, documenttotal, partnername, countryname, chain2name_4 "
    "from journalentryitembrowser where rbukrs = 'C001' "
    "order by rldnr, gjahr, belnr, docln limit 100",
    "select racct, costcentername, profitcentername, ucountry, dimname_11 "
    "from journalentryitembrowser where rbukrs = 'C019' "
    "order by rldnr, gjahr, belnr, docln limit 10",
};

class JeibCompileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    S4Options options;
    options.acdoca_rows = 2000;
    options.dimension_rows = 100;
    ASSERT_TRUE(CreateS4Schema(db_, options).ok());
    ASSERT_TRUE(LoadS4Data(db_, options).ok());
    Status built = BuildJournalEntryItemBrowser(db_);
    ASSERT_TRUE(built.ok()) << built.ToString();
    db_->SetProfile(SystemProfile::kHana);
    db_->DisablePlanCache();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* JeibCompileTest::db_ = nullptr;

bool ReferencesCompany(const ExprRef& predicate) {
  std::vector<std::string> refs;
  CollectColumnRefs(predicate, &refs);
  for (const std::string& ref : refs) {
    if (ref.ends_with("rbukrs")) return true;
  }
  return false;
}

TEST_F(JeibCompileTest, AdhocReportsConvergeWithCompanyFilterOnAcdoca) {
  for (const char* sql : kReports) {
    SCOPED_TRACE(sql);
    Result<PlanRef> bound = db_->BindQuery(sql);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    QueryTiming timing;
    Result<PlanRef> plan = db_->OptimizePlan(*bound, &timing);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(timing.optimize_converged)
        << timing.optimize_passes << " passes\n"
        << PrintPlan(*plan);
    // Every filter on the company code sits directly on the ACDOCA scan.
    int on_acdoca = 0;
    int elsewhere = 0;
    VisitPlan(*plan, [&](const PlanRef& node) {
      if (node->kind() != OpKind::kFilter ||
          !ReferencesCompany(
              static_cast<const FilterOp&>(*node).predicate())) {
        return;
      }
      const PlanRef& below = node->child(0);
      if (below->kind() == OpKind::kScan &&
          static_cast<const ScanOp&>(*below).table_name() == "acdoca") {
        ++on_acdoca;
      } else {
        ++elsewhere;
      }
    });
    EXPECT_GE(on_acdoca, 1) << PrintPlan(*plan);
    EXPECT_EQ(elsewhere, 0) << PrintPlan(*plan);
  }
}

TEST_F(JeibCompileTest, DocumentTotalAugmenterGetsCompanyFilter) {
  // The HTAP report shape: per-ledger totals of one company, reading the
  // i_documenttotal augmenter. The company filter crosses the LEFT OUTER
  // join (predicate transfer on `j.rbukrs = dt.rbukrs`) and the view's
  // GROUP BY, so the aggregate reads one company's lines, not all.
  const char* sql =
      "select rldnr, sum(hsl) as total, count(*) as lines, "
      "count(documenttotal) as n1 from journalentryitembrowser "
      "where rbukrs = 'C012' group by rldnr order by rldnr";
  Result<PlanRef> bound = db_->BindQuery(sql);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Result<PlanRef> plan = db_->OptimizePlan(*bound);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int doc_totals = 0;
  VisitPlan(*plan, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kAggregate ||
        static_cast<const AggregateOp&>(*node).group_by().size() != 4) {
      return;
    }
    ++doc_totals;
    const PlanRef& below = node->child(0);
    ASSERT_EQ(below->kind(), OpKind::kFilter) << PrintPlan(*plan);
    EXPECT_EQ(static_cast<const FilterOp&>(*below).predicate()->ToString(),
              "(acdoca.rbukrs = 'C012')");
    ASSERT_EQ(below->child(0)->kind(), OpKind::kScan);
    EXPECT_EQ(static_cast<const ScanOp&>(*below->child(0)).table_name(),
              "acdoca");
  });
  EXPECT_EQ(doc_totals, 1) << PrintPlan(*plan);
  // Same rows as the unoptimized plan.
  Result<Chunk> optimized = db_->ExecutePlan(*plan);
  Result<Chunk> raw = db_->ExecutePlan(*bound);
  ASSERT_TRUE(optimized.ok() && raw.ok());
  EXPECT_EQ(optimized->ToString(), raw->ToString());
}

TEST_F(JeibCompileTest, ConcurrentCompilesMatchSerial) {
  constexpr size_t kThreads = 4;
  std::vector<std::string> serial;
  for (size_t i = 0; i < kThreads; ++i) {
    Result<PlanRef> plan = db_->PlanQuery(kReports[i]);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    serial.push_back(PrintPlan(*plan));
  }
  // Each thread compiles its own statement through the shared optimizer,
  // twice, so the compiles overlap.
  std::vector<std::vector<std::string>> printed(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 2; ++round) {
        Result<PlanRef> plan = db_->PlanQuery(kReports[i]);
        printed[i].push_back(plan.ok() ? PrintPlan(*plan)
                                       : plan.status().ToString());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < kThreads; ++i) {
    for (const std::string& plan : printed[i]) {
      EXPECT_EQ(plan, serial[i]) << kReports[i];
    }
  }
}

}  // namespace
}  // namespace vdm

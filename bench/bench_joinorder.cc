// E8 — Cost-based join ordering on the JournalEntryItemBrowser stack.
//
// For every optimizer profile, plans and times two query families twice —
// with the cost-based join reorderer on (the default) and off (joins stay
// in the syntactic view-text order):
//   1. JEIB stack queries. The view text is already anchor-first with
//      small dimension build sides, so the costed order should match it —
//      this family guards against reordering regressions.
//   2. Ad-hoc dimension-first queries, the §7 shape users write against
//      views: the fact table sits syntactically right, so without the
//      reorderer the executor builds a 100k-entry hash table on ACDOCA
//      (or on the whole JEIB view) and probes the dimension. The costed
//      order swaps the build side and wins on every profile.
//
// Also reports the cardinality estimator's root-level q-error per query
// (max(est/actual, actual/est) of the reordered plan) and a q-error
// histogram, the accuracy signal behind the reorderer's cost model.
// Emits BENCH_joinorder.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats/cardinality.h"
#include "bench/bench_util.h"
#include "engine/database.h"
#include "plan/plan_printer.h"
#include "vdm/jeib.h"
#include "workload/s4.h"

using namespace vdm;
using bench::JsonReporter;
using bench::MedianMillis;
using bench::TablePrinter;

namespace {

struct BenchQuery {
  const char* label;
  const char* sql;
};

// Family 1 — JEIB stack shapes: the bare count keeps the mandatory core,
// the wide aggregates and projections drag in customer/supplier/account/
// costcenter dimensions and the composite chain views.
const BenchQuery kStackQueries[] = {
    {"count_star", "select count(*) from journalentryitembrowser"},
    {"groupby_company",
     "select rbukrs, sum(hsl) as total from journalentryitembrowser "
     "group by rbukrs"},
    {"groupby_customer",
     "select customername, sum(hsl) as total from journalentryitembrowser "
     "group by customername"},
    {"wide_projection",
     "select belnr, customername, suppliername, glaccountname, "
     "costcentername from journalentryitembrowser"},
    {"wide_limit",
     "select belnr, customername, suppliername, glaccountname, "
     "profitcentername, countryname from journalentryitembrowser "
     "limit 1000"},
};

// Family 2 — ad-hoc dimension-first joins: the fact side (ACDOCA or the
// whole JEIB view) is syntactically right, i.e. the hash-build side.
const BenchQuery kAdhocQueries[] = {
    {"adhoc_company_fact",
     "select count(*) from t001 t join acdoca a on a.rbukrs = t.bukrs"},
    {"adhoc_country_star",
     "select c.landx, count(*) as n from t005 c "
     "join kna1 k on k.land1 = c.land1 "
     "join acdoca a on a.kunnr = k.kunnr group by c.landx"},
    {"adhoc_country_jeib",
     "select c.countryname, sum(j.hsl) as total from i_country c "
     "join journalentryitembrowser j on j.customercountrykey = c.country "
     "group by c.countryname"},
};

const SystemProfile kProfiles[] = {SystemProfile::kHana,
                                   SystemProfile::kPostgres,
                                   SystemProfile::kSystemX,
                                   SystemProfile::kSystemY,
                                   SystemProfile::kSystemZ};

double TimePlan(Database* db, const PlanRef& plan, ExecMetrics* metrics,
                size_t* rows) {
  // One untimed warmup so neither leg pays first-touch costs (dictionary
  // decode caches, page-in) that the other already amortized.
  Result<Chunk> warm = db->ExecutePlan(plan, metrics);
  VDM_CHECK(warm.ok());
  *rows = warm->NumRows();
  double ms = MedianMillis(
      [&] {
        Result<Chunk> r = db->ExecutePlan(plan);
        VDM_CHECK(r.ok());
      },
      3);
  return ms;
}

}  // namespace

int main() {
  Database db;
  S4Options options;
  options.acdoca_rows = 100000;
  options.dimension_rows = 1000;
  VDM_CHECK(CreateS4Schema(&db, options).ok());
  VDM_CHECK(LoadS4Data(&db, options).ok());
  VDM_CHECK(BuildJournalEntryItemBrowser(&db).ok());
  db.AnalyzeTables();

  JsonReporter report("joinorder");
  TablePrinter timing(
      {"profile", "query", "view-text order", "costed order", "speedup"});
  std::vector<double> qerrors;
  TablePrinter accuracy({"profile", "query", "est rows", "actual", "q-error"});

  std::vector<BenchQuery> queries;
  for (const BenchQuery& q : kStackQueries) queries.push_back(q);
  for (const BenchQuery& q : kAdhocQueries) queries.push_back(q);

  for (SystemProfile profile : kProfiles) {
    for (const BenchQuery& q : queries) {
      // Reorderer on: every profile config enables join_reordering by
      // default; SetProfile also re-applies the env overrides.
      db.SetProfile(profile);
      Result<PlanRef> on_plan = db.PlanQuery(q.sql);
      VDM_CHECK(on_plan.ok());
      ExecMetrics on_metrics;
      size_t on_rows = 0;
      double on_ms = TimePlan(&db, *on_plan, &on_metrics, &on_rows);

      // Root-level estimation accuracy of the reordered plan.
      InferenceEngine engine;
      CardinalityEstimator estimator(&db.catalog(), &engine);
      PlanEstimates estimates;
      PlanEstimate root = estimator.Annotate(*on_plan, &estimates);
      double actual = static_cast<double>(std::max<size_t>(on_rows, 1));
      double est = std::max(root.rows, 1.0);
      double qerr = std::max(est / actual, actual / est);
      qerrors.push_back(qerr);

      // Reorderer off: joins keep view-text order and the executor's
      // default build-side choice. SetOptimizerConfig is taken verbatim.
      OptimizerConfig off_config = db.optimizer_config();
      off_config.join_reordering = false;
      db.SetOptimizerConfig(off_config);
      Result<PlanRef> off_plan = db.PlanQuery(q.sql);
      VDM_CHECK(off_plan.ok());
      ExecMetrics off_metrics;
      size_t off_rows = 0;
      double off_ms = TimePlan(&db, *off_plan, &off_metrics, &off_rows);
      VDM_CHECK(on_rows == off_rows);

      const std::string profile_name = ProfileName(profile);
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx", off_ms / on_ms);
      timing.AddRow({profile_name, q.label, bench::Ms(off_ms),
                     bench::Ms(on_ms), speedup});
      char est_buf[32], act_buf[32], qerr_buf[32];
      std::snprintf(est_buf, sizeof(est_buf), "%.0f", root.rows);
      std::snprintf(act_buf, sizeof(act_buf), "%zu", on_rows);
      std::snprintf(qerr_buf, sizeof(qerr_buf), "%.2f", qerr);
      accuracy.AddRow({profile_name, q.label, est_buf, act_buf, qerr_buf});

      report.Add(profile_name + "/reorder-on/" + q.label, on_ms, on_rows,
                 &on_metrics);
      report.Add(profile_name + "/reorder-off/" + q.label, off_ms, off_rows,
                 &off_metrics);
    }
  }

  std::printf("== Costed join order vs. view-text order ==\n");
  timing.Print();

  std::printf("\n== Estimator accuracy (root of the reordered plan) ==\n");
  accuracy.Print();

  // q-error histogram: how often the root estimate lands within 2x / 4x /
  // 16x of the truth. Counts one entry per (profile, query) pair.
  size_t buckets[4] = {0, 0, 0, 0};
  for (double q : qerrors) {
    if (q < 2.0) {
      ++buckets[0];
    } else if (q < 4.0) {
      ++buckets[1];
    } else if (q < 16.0) {
      ++buckets[2];
    } else {
      ++buckets[3];
    }
  }
  std::printf("\n== q-error histogram (%zu plans) ==\n", qerrors.size());
  std::printf("  [1,2):   %zu\n", buckets[0]);
  std::printf("  [2,4):   %zu\n", buckets[1]);
  std::printf("  [4,16):  %zu\n", buckets[2]);
  std::printf("  [16,inf) %zu\n", buckets[3]);

  report.Write();
  return 0;
}

#include "analysis/view_lint.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "analysis/rewrite_auditor.h"
#include "common/string_util.h"
#include "analysis/infer/inference.h"
#include "plan/plan_builder.h"
#include "sql/binder.h"

namespace vdm {

namespace {

const SystemProfile kProbeProfiles[] = {
    SystemProfile::kHana, SystemProfile::kPostgres, SystemProfile::kSystemX,
    SystemProfile::kSystemY, SystemProfile::kSystemZ};

std::set<std::string> ScanTables(const PlanRef& plan) {
  std::set<std::string> tables;
  VisitPlan(plan, [&](const PlanRef& node) {
    if (node->kind() == OpKind::kScan) {
      tables.insert(
          ToLower(static_cast<const ScanOp&>(*node).table_name()));
    }
  });
  return tables;
}

bool ContainsUnionAll(const PlanRef& plan) {
  bool found = false;
  VisitPlan(plan, [&](const PlanRef& node) {
    if (node->kind() == OpKind::kUnionAll) found = true;
  });
  return found;
}

void CollectFindings(const PlanRef& plan, std::vector<ViewLintFinding>* out) {
  // Full derivation capability: if even this cannot prove the augmenter
  // at-most-one, the metadata (key or declared cardinality) is missing.
  InferenceEngine engine;
  VisitPlan(plan, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kJoin) return;
    const auto& join = static_cast<const JoinOp&>(*node);

    if (join.join_type() == JoinType::kLeftOuter) {
      JoinAnalysis analysis = engine.Analyze(join);
      if (analysis.pure_equi && !analysis.right_at_most_one) {
        out->push_back(
            {"undeclared-cardinality",
             "augmentation join is not provably at-most-one — no unique key "
             "covers the join columns and no cardinality is declared "
             "(§7.3): " +
                 join.Describe()});
      }
    }

    if (!join.is_case_join() && ContainsUnionAll(join.right())) {
      std::set<std::string> left_tables = ScanTables(join.left());
      std::set<std::string> right_tables = ScanTables(join.right());
      bool overlap = false;
      for (const std::string& table : right_tables) {
        if (left_tables.count(table) > 0) {
          overlap = true;
          break;
        }
      }
      if (overlap) {
        out->push_back(
            {"asj-no-case-join",
             "self-join whose augmenter contains UNION ALL is not declared "
             "as a case join — robust ASJ elimination is unavailable "
             "(§6.3): " +
                 join.Describe()});
      }
    }
  });
}

Result<ProfileRewriteProbe> ProbeProfile(const Catalog& catalog,
                                         const PlanRef& view_plan,
                                         SystemProfile profile) {
  std::vector<std::string> names = view_plan->OutputNames();
  if (names.empty()) {
    return Status::InvalidArgument("view produces no columns");
  }
  // The paper's canonical "unused augmentation" shape: page through one
  // column; every join feeding only unprojected fields is dead weight.
  PlanRef probe =
      PlanBuilder(view_plan).ProjectColumns({names[0]}).Limit(10).Build();

  OptimizerConfig config = ConfigForProfile(profile);
  config.stats_catalog = &catalog;
  config.verify_rewrites = true;
  RewriteAuditor::Options audit_options;
  audit_options.derivation = config.derivation;
  RewriteAuditor auditor(audit_options);
  config.verification_hook = &auditor;

  Optimizer optimizer(config);
  auto start = std::chrono::steady_clock::now();
  VDM_ASSIGN_OR_RETURN(OptimizeResult optimized,
                       optimizer.OptimizeChecked(probe));
  auto end = std::chrono::steady_clock::now();

  ProfileRewriteProbe result;
  result.profile = profile;
  result.joins_before = ComputePlanStats(probe).joins;
  result.joins_after = ComputePlanStats(optimized.plan).joins;
  result.passes_fired = auditor.fired_counts();
  result.converged = optimized.converged;
  result.optimize_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  return result;
}

}  // namespace

const char* VdmLayerName(VdmLayer layer) {
  switch (layer) {
    case VdmLayer::kPlain:
      return "plain";
    case VdmLayer::kBasic:
      return "basic";
    case VdmLayer::kComposite:
      return "composite";
    case VdmLayer::kConsumption:
      return "consumption";
  }
  return "?";
}

Result<ViewLintReport> LintView(const Catalog& catalog,
                                const std::string& view_name) {
  const ViewDef* view = catalog.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("view not found: " + view_name);
  }
  Binder binder(&catalog);
  VDM_ASSIGN_OR_RETURN(PlanRef plan, binder.BindSql(view->sql));

  ViewLintReport report;
  report.view = view->name;
  report.layer = view->layer;
  report.stats = ComputePlanStats(plan);
  report.nesting_depth = report.stats.max_depth;
  report.field_count = plan->OutputNames().size();
  CollectFindings(plan, &report.findings);
  for (SystemProfile profile : kProbeProfiles) {
    VDM_ASSIGN_OR_RETURN(ProfileRewriteProbe probe,
                         ProbeProfile(catalog, plan, profile));
    report.profiles.push_back(std::move(probe));
  }
  return report;
}

std::string ViewLintReport::ToString() const {
  std::string out = "view " + view + " (" + VdmLayerName(layer) + ")\n";
  out += StrFormat(
      "  depth %zu, %zu fields, %zu table instances, %zu joins (%zu left "
      "outer), %zu union alls\n",
      nesting_depth, field_count, stats.table_instances, stats.joins,
      stats.left_outer_joins, stats.union_alls);
  if (findings.empty()) {
    out += "  findings: none\n";
  } else {
    out += StrFormat("  findings: %zu\n", findings.size());
    for (const ViewLintFinding& finding : findings) {
      out += "    [" + finding.code + "] " + finding.message + "\n";
    }
  }
  out += "  paging probe (project 1 column, limit 10):\n";
  for (const ProfileRewriteProbe& probe : profiles) {
    std::vector<std::string> passes;
    for (const auto& [name, count] : probe.passes_fired) {
      passes.push_back(count > 1 ? StrFormat("%s x%d", name.c_str(), count)
                                 : name);
    }
    std::string fired = passes.empty() ? "none" : Join(passes, ", ");
    out += StrFormat("    %-12s joins %zu -> %zu%s  optimize %.3f ms  "
                     "passes: %s\n",
                     ProfileName(probe.profile).c_str(), probe.joins_before,
                     probe.joins_after,
                     probe.converged ? "" : " (not converged)",
                     static_cast<double>(probe.optimize_ns) / 1e6,
                     fired.c_str());
  }
  return out;
}

std::string RenderRewriteMatrix(const std::vector<ViewLintReport>& reports) {
  std::string out = StrFormat("%-24s", "view");
  for (SystemProfile profile : kProbeProfiles) {
    out += StrFormat(" %-10s", ProfileName(profile).c_str());
  }
  out += "\n";
  for (const ViewLintReport& report : reports) {
    out += StrFormat("%-24s", report.view.c_str());
    for (SystemProfile profile : kProbeProfiles) {
      std::string cell = "?";
      for (const ProfileRewriteProbe& probe : report.profiles) {
        if (probe.profile == profile) {
          cell = StrFormat(
              "%s %.1fms", probe.joins_after < probe.joins_before ? "Y" : "-",
              static_cast<double>(probe.optimize_ns) / 1e6);
          break;
        }
      }
      out += StrFormat(" %-10s", cell.c_str());
    }
    out += "\n";
  }
  return out;
}

}  // namespace vdm

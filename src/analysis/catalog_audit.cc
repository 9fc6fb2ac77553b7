#include "analysis/catalog_audit.h"

#include <algorithm>
#include <functional>
#include <map>

#include "common/string_util.h"
#include "expr/expr.h"
#include "expr/fold.h"
#include "optimizer/optimizer.h"
#include "plan/plan_printer.h"
#include "sql/binder.h"

namespace vdm {

namespace {

constexpr const char* kRuleRemovableJoin = "removable-join";
constexpr const char* kRuleContradictedCardinality = "contradicted-cardinality";
constexpr const char* kRuleStatsContradictedCardinality =
    "stats-contradicted-cardinality";
constexpr const char* kRuleDecimalNarrowing = "decimal-scale-narrowing";
constexpr const char* kRuleDeadView = "dead-view";

uint64_t HashString(uint64_t seed, const std::string& s) {
  return HashCombine(seed, std::hash<std::string>{}(s));
}

/// Fingerprints hash semantic identity only (rule, view, and the detail
/// strings) — never plan node ids — so they are stable across rebinding.
std::string Fingerprint(const std::string& rule, const std::string& view,
                        const std::vector<std::string>& details) {
  uint64_t h = HashString(0x5fd1u, rule);
  h = HashString(h, view);
  for (const std::string& d : details) h = HashString(h, d);
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

void WalkPlan(const PlanRef& plan,
              const std::function<void(const PlanRef&)>& fn) {
  fn(plan);
  for (const PlanRef& child : plan->children()) WalkPlan(child, fn);
}

Result<PlanRef> BindViewPlan(const Catalog& catalog, const ViewDef& view) {
  Binder binder(&catalog);
  return binder.BindSql(view.sql);
}

/// Per-view audit context shared by the rule checks.
struct ViewAudit {
  const Catalog* catalog = nullptr;
  const CatalogAuditOptions* options = nullptr;
  std::string view;
  PlanRef plan;
  /// The view's inference engine; it backs every check.
  InferenceEngine* engine = nullptr;
  std::vector<AuditFinding>* findings = nullptr;
  std::set<std::string> seen;  // fingerprints emitted for this view

  void Emit(const std::string& rule, AuditSeverity severity,
            std::string message, const std::vector<std::string>& details) {
    AuditFinding f;
    f.rule = rule;
    f.severity = severity;
    f.view = view;
    f.message = std::move(message);
    f.fingerprint = Fingerprint(rule, view, details);
    if (!seen.insert(f.fingerprint).second) return;
    findings->push_back(std::move(f));
  }
};

// --- removable-join ---------------------------------------------------------

/// For each profile, does optimizing the whole view still leave at least as
/// many joins as removing none of them would? Reported per view: the probe
/// can't attribute a specific join across rewrites, but "this view's join
/// count drops / doesn't" is what the paper's Y/- matrices show anyway.
std::string SurvivalSummary(const PlanRef& plan) {
  static constexpr SystemProfile kProfiles[] = {
      SystemProfile::kHana, SystemProfile::kPostgres, SystemProfile::kSystemX,
      SystemProfile::kSystemY, SystemProfile::kSystemZ};
  size_t before = ComputePlanStats(plan).joins;
  std::vector<std::string> removed, survives;
  for (SystemProfile p : kProfiles) {
    Optimizer optimizer(ConfigForProfile(p));
    size_t after = ComputePlanStats(optimizer.Optimize(plan)).joins;
    (after < before ? removed : survives).push_back(ProfileName(p));
  }
  std::string out;
  if (!removed.empty()) out += "removed under " + Join(removed, "/");
  if (!survives.empty()) {
    if (!out.empty()) out += "; ";
    out += "survives under " + Join(survives, "/");
  }
  return out;
}

void CheckRemovableJoins(ViewAudit& a) {
  std::string survival;  // computed lazily, once per view
  WalkPlan(a.plan, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kJoin) return;
    auto join = std::static_pointer_cast<const JoinOp>(node);
    PlanRef replacement = TryEliminateGeneralSelfJoin(join, *a.engine);
    if (!replacement) return;
    std::optional<SimpleRelation> rel = ExtractSimpleRelation(join->right());
    std::string table = rel.has_value() ? ToLower(rel->scan->table_name())
                                        : std::string("?");
    const char* jt =
        join->join_type() == JoinType::kLeftOuter ? "LEFT OUTER" : "INNER";
    std::string cond = join->condition() ? join->condition()->ToString() : "";
    std::string msg = StrFormat(
        "%s self-join over '%s' (on %s) is statically removable: the right "
        "side always returns the probing row itself",
        jt, table.c_str(), cond.c_str());
    if (a.options->probe_profiles) {
      if (survival.empty()) survival = SurvivalSummary(a.plan);
      msg += " [" + survival + "]";
    }
    a.Emit(kRuleRemovableJoin, AuditSeverity::kWarning, std::move(msg),
           {table, cond, jt});
  });
}

// --- contradicted-cardinality -----------------------------------------------

void CheckDeclaredCardinalities(ViewAudit& a) {
  WalkPlan(a.plan, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kJoin) return;
    const auto& join = static_cast<const JoinOp&>(*node);
    DeclaredCardinality card = join.declared_cardinality();
    if (card == DeclaredCardinality::kNone) return;
    const char* card_name =
        card == DeclaredCardinality::kExactOne ? "exact-one" : "at-most-one";
    std::string cond = join.condition() ? join.condition()->ToString() : "";
    const InferredProps& right = a.engine->Infer(join.right());

    if (right.empty_relation) {
      if (card == DeclaredCardinality::kExactOne) {
        a.Emit(kRuleContradictedCardinality, AuditSeverity::kError,
               StrFormat("join (on %s) declares exact-one cardinality but "
                         "its right side is statically empty: no probing "
                         "row can have a match",
                         cond.c_str()),
               {"empty-right", cond});
      }
      return;
    }

    // Classify cross-side equalities by output-name membership.
    std::vector<std::string> ln = join.left()->OutputNames();
    std::vector<std::string> rn = join.right()->OutputNames();
    std::set<std::string> left_set(ln.begin(), ln.end());
    std::set<std::string> right_set(rn.begin(), rn.end());
    std::vector<std::string> left_join_cols;
    bool any_cross = false;
    for (const ExprRef& conjunct : SplitConjuncts(join.condition())) {
      std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
      if (!pair.has_value()) continue;
      std::string l, r;
      if (left_set.count(pair->left) > 0 && right_set.count(pair->right) > 0) {
        l = pair->left;
      } else if (left_set.count(pair->right) > 0 &&
                 right_set.count(pair->left) > 0) {
        l = pair->right;
      } else {
        continue;
      }
      any_cross = true;
      left_join_cols.push_back(l);
    }

    if (!any_cross && !right.at_most_one_row) {
      a.Emit(kRuleContradictedCardinality, AuditSeverity::kWarning,
             StrFormat("join (on %s) declares %s cardinality, but no join "
                       "equality restricts the right side and it is not "
                       "provably single-row",
                       cond.c_str(), card_name),
             {"no-equality", cond});
      return;
    }

    if (card == DeclaredCardinality::kExactOne) {
      const InferredProps& left = a.engine->Infer(join.left());
      for (const std::string& l : left_join_cols) {
        if (left.IsNotNull(l)) continue;
        a.Emit(kRuleContradictedCardinality, AuditSeverity::kWarning,
               StrFormat("join (on %s) declares exact-one cardinality, but "
                         "join column '%s' is nullable: a NULL value never "
                         "matches, leaving such rows with zero matches",
                         cond.c_str(), l.c_str()),
               {"nullable-join-col", l, cond});
      }
    }
  });
}

// --- stats-contradicted-cardinality -----------------------------------------

/// A declared to-one join whose right side resolves to an analyzed base
/// table where the collected statistics contradict the declaration: the
/// product of the right join columns' distinct counts is smaller than the
/// table's non-NULL row count, so on average more than one right row
/// matches a probing key. The static rule above catches contradictions the
/// plan alone proves; this one catches declarations the loaded data
/// disproves (§7.3 cardinalities are trusted but unenforced).
void CheckStatsCardinalities(ViewAudit& a) {
  WalkPlan(a.plan, [&](const PlanRef& node) {
    if (node->kind() != OpKind::kJoin) return;
    const auto& join = static_cast<const JoinOp&>(*node);
    DeclaredCardinality card = join.declared_cardinality();
    if (card == DeclaredCardinality::kNone) return;
    std::optional<SimpleRelation> rel = ExtractSimpleRelation(join.right());
    // Filters below the join change the effective row and distinct counts;
    // only the unfiltered base-table case is judged against whole-table
    // statistics.
    if (!rel.has_value() || !rel->base_preds.empty()) return;
    const std::string table = ToLower(rel->scan->table_name());
    const std::shared_ptr<const TableStats> stats =
        a.catalog->FindTableStats(table);
    const TableSchema* schema = a.catalog->FindTable(table);
    if (stats == nullptr || schema == nullptr || stats->row_count == 0) return;

    std::vector<std::string> rn = join.right()->OutputNames();
    std::set<std::string> right_set(rn.begin(), rn.end());
    std::string cond = join.condition() ? join.condition()->ToString() : "";
    double distinct_product = 1.0;
    double nonnull_rows = static_cast<double>(stats->row_count);
    bool any_key = false;
    for (const ExprRef& conjunct : SplitConjuncts(join.condition())) {
      std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
      if (!pair.has_value()) continue;
      std::string r;
      if (right_set.count(pair->left) > 0) {
        r = pair->left;
      } else if (right_set.count(pair->right) > 0) {
        r = pair->right;
      } else {
        continue;
      }
      auto base = rel->out_to_base.find(r);
      if (base == rel->out_to_base.end()) return;  // literal or computed
      int idx = schema->FindColumn(base->second);
      if (idx < 0) return;
      const ColumnStatsEntry* entry = stats->Column(static_cast<size_t>(idx));
      if (entry == nullptr || entry->distinct_count == 0) return;  // unknown
      any_key = true;
      distinct_product *= static_cast<double>(entry->distinct_count);
      nonnull_rows *= 1.0 - entry->null_fraction;
    }
    // A margin absorbs the multi-column independence approximation; real
    // contradictions (duplicate keys) undershoot far below it.
    if (!any_key || distinct_product >= nonnull_rows * 0.99) return;
    const char* card_name =
        card == DeclaredCardinality::kExactOne ? "exact-one" : "at-most-one";
    a.Emit(kRuleStatsContradictedCardinality, AuditSeverity::kWarning,
           StrFormat("join (on %s) declares %s cardinality, but collected "
                     "statistics for '%s' show ~%.1f rows per join key "
                     "(%.0f non-NULL rows over %.0f distinct key values)",
                     cond.c_str(), card_name, table.c_str(),
                     nonnull_rows / distinct_product, nonnull_rows,
                     distinct_product),
           {table, cond});
  });
}

// --- decimal-scale-narrowing ------------------------------------------------

void ScanRoundCalls(ViewAudit& a, const ExprRef& expr,
                    const std::vector<const InferredProps*>& scopes) {
  if (!expr) return;
  for (const ExprRef& child : expr->children()) {
    ScanRoundCalls(a, child, scopes);
  }
  if (expr->kind() != ExprKind::kFunction) return;
  const auto& fn = static_cast<const FunctionExpr&>(*expr);
  if (fn.name() != "round" || fn.children().size() < 2) return;
  const ExprRef& arg = fn.children()[0];
  const ExprRef& scale_arg = fn.children()[1];
  if (arg->kind() != ExprKind::kColumnRef ||
      scale_arg->kind() != ExprKind::kLiteral) {
    return;
  }
  const Value& sv = static_cast<const LiteralExpr&>(*scale_arg).value();
  if (sv.is_null() || sv.type().id != TypeId::kInt64) return;
  int64_t target_scale = sv.AsInt64();
  const std::string& col = static_cast<const ColumnRefExpr&>(*arg).name();
  for (const InferredProps* scope : scopes) {
    auto it = scope->sources.find(col);
    if (it == scope->sources.end()) continue;
    for (const ValueSource& src : it->second) {
      const TableSchema* schema = a.catalog->FindTable(src.table);
      if (schema == nullptr) continue;
      int idx = schema->FindColumn(src.column);
      if (idx < 0) continue;
      const DataType& type = schema->column(static_cast<size_t>(idx)).type;
      if (type.id != TypeId::kDecimal || type.scale <= target_scale) continue;
      a.Emit(kRuleDecimalNarrowing, AuditSeverity::kNote,
             StrFormat("round(%s, %lld) silently narrows %s.%s from "
                       "declared scale %d to %lld",
                       col.c_str(), static_cast<long long>(target_scale),
                       src.table.c_str(), src.column.c_str(),
                       static_cast<int>(type.scale),
                       static_cast<long long>(target_scale)),
             {src.table + "." + src.column,
              StrFormat("%lld", static_cast<long long>(target_scale))});
      return;  // one finding per round() call is enough
    }
  }
}

void CheckDecimalNarrowing(ViewAudit& a) {
  WalkPlan(a.plan, [&](const PlanRef& node) {
    std::vector<ExprRef> exprs;
    std::vector<const InferredProps*> scopes;
    switch (node->kind()) {
      case OpKind::kFilter:
        exprs.push_back(static_cast<const FilterOp&>(*node).predicate());
        scopes.push_back(&a.engine->Infer(node->child(0)));
        break;
      case OpKind::kProject:
        for (const ProjectOp::Item& item :
             static_cast<const ProjectOp&>(*node).items()) {
          exprs.push_back(item.expr);
        }
        scopes.push_back(&a.engine->Infer(node->child(0)));
        break;
      case OpKind::kJoin: {
        const auto& join = static_cast<const JoinOp&>(*node);
        exprs.push_back(join.condition());
        scopes.push_back(&a.engine->Infer(join.left()));
        scopes.push_back(&a.engine->Infer(join.right()));
        break;
      }
      case OpKind::kAggregate: {
        const auto& agg = static_cast<const AggregateOp&>(*node);
        for (const AggregateOp::GroupItem& g : agg.group_by()) {
          exprs.push_back(g.expr);
        }
        for (const AggregateOp::AggItem& item : agg.aggregates()) {
          exprs.push_back(item.expr);
        }
        scopes.push_back(&a.engine->Infer(node->child(0)));
        break;
      }
      case OpKind::kSort:
        for (const SortOp::SortKey& key :
             static_cast<const SortOp&>(*node).keys()) {
          exprs.push_back(key.expr);
        }
        scopes.push_back(&a.engine->Infer(node->child(0)));
        break;
      default:
        return;
    }
    for (const ExprRef& expr : exprs) ScanRoundCalls(a, expr, scopes);
  });
}

// --- dead-view --------------------------------------------------------------

void CheckDeadView(ViewAudit& a) {
  if (!a.engine->Infer(a.plan).empty_relation) return;
  a.Emit(kRuleDeadView, AuditSeverity::kWarning,
         "view is statically empty (contradictory or always-false "
         "predicates): every query against it returns zero rows",
         {});
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* SarifLevel(AuditSeverity severity) {
  switch (severity) {
    case AuditSeverity::kNote:
      return "note";
    case AuditSeverity::kWarning:
      return "warning";
    case AuditSeverity::kError:
      return "error";
  }
  return "none";
}

struct RuleDoc {
  const char* id;
  const char* description;
};

constexpr RuleDoc kRuleDocs[] = {
    {"removable-join",
     "A self-join the optimizer proves removable: the joined side always "
     "returns the probing row itself."},
    {"contradicted-cardinality",
     "A declared to-one join cardinality (paper section 7.3) the plan "
     "statically contradicts."},
    {"stats-contradicted-cardinality",
     "A declared to-one join cardinality (paper section 7.3) the collected "
     "table statistics contradict: more than one right row per join key."},
    {"decimal-scale-narrowing",
     "round(col, s) over a decimal column with declared scale greater than "
     "s: silent precision loss."},
    {"dead-view",
     "The view's plan is statically empty; every query returns no rows."},
};

}  // namespace

const char* AuditSeverityName(AuditSeverity severity) {
  switch (severity) {
    case AuditSeverity::kNote:
      return "note";
    case AuditSeverity::kWarning:
      return "warning";
    case AuditSeverity::kError:
      return "error";
  }
  return "?";
}

std::optional<AuditSeverity> ParseAuditSeverity(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "note") return AuditSeverity::kNote;
  if (lower == "warning") return AuditSeverity::kWarning;
  if (lower == "error") return AuditSeverity::kError;
  return std::nullopt;
}

std::string CatalogAuditReport::ToString() const {
  std::string out;
  for (const AuditFinding& f : findings) {
    out += StrFormat("[%s] %s: %s: %s  {%s}\n", AuditSeverityName(f.severity),
                     f.view.c_str(), f.rule.c_str(), f.message.c_str(),
                     f.fingerprint.c_str());
  }
  for (const std::string& e : errors) out += "[audit-error] " + e + "\n";
  out += StrFormat("%zu view(s) audited, %zu finding(s), %zu error(s)\n",
                   views_audited, findings.size(), errors.size());
  return out;
}

Result<CatalogAuditReport> AuditCatalog(const Catalog& catalog,
                                        const CatalogAuditOptions& options) {
  CatalogAuditReport report;
  for (const std::string& name : catalog.ViewNames()) {
    const ViewDef* view = catalog.FindView(name);
    if (view == nullptr) continue;
    Result<PlanRef> bound = BindViewPlan(catalog, *view);
    if (!bound.ok()) {
      report.errors.push_back(name + ": " + bound.status().message());
      continue;
    }
    report.views_audited++;
    // One engine per view, under the audit's inference gates, so the
    // self-join probe sees exactly what the audit's own checks infer.
    InferenceEngine engine(options.infer);
    ViewAudit audit;
    audit.catalog = &catalog;
    audit.options = &options;
    audit.view = name;
    audit.plan = *bound;
    audit.engine = &engine;
    audit.findings = &report.findings;
    CheckRemovableJoins(audit);
    CheckDeclaredCardinalities(audit);
    CheckStatsCardinalities(audit);
    CheckDecimalNarrowing(audit);
    CheckDeadView(audit);
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const AuditFinding& x, const AuditFinding& y) {
              if (x.view != y.view) return x.view < y.view;
              if (x.rule != y.rule) return x.rule < y.rule;
              return x.fingerprint < y.fingerprint;
            });
  std::sort(report.errors.begin(), report.errors.end());
  return report;
}

std::string RenderBaseline(const CatalogAuditReport& report) {
  std::string out =
      "# vdmlint baseline: accepted findings, one per line.\n"
      "# <fingerprint> <rule> <view> -- regenerate with --write-baseline.\n";
  std::vector<std::string> lines;
  for (const AuditFinding& f : report.findings) {
    lines.push_back(f.fingerprint + " " + f.rule + " " + f.view + "\n");
  }
  std::sort(lines.begin(), lines.end());
  for (const std::string& line : lines) out += line;
  return out;
}

std::set<std::string> ParseBaseline(const std::string& text) {
  std::set<std::string> fingerprints;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    size_t stop = line.find_first_of(" \t\r", start);
    fingerprints.insert(line.substr(start, stop - start));
  }
  return fingerprints;
}

std::vector<AuditFinding> FilterNewFindings(
    const CatalogAuditReport& report, const std::set<std::string>& baseline) {
  std::vector<AuditFinding> fresh;
  for (const AuditFinding& f : report.findings) {
    if (baseline.count(f.fingerprint) == 0) fresh.push_back(f);
  }
  return fresh;
}

bool AnyAtOrAbove(const std::vector<AuditFinding>& findings,
                  AuditSeverity threshold) {
  for (const AuditFinding& f : findings) {
    if (static_cast<int>(f.severity) >= static_cast<int>(threshold)) {
      return true;
    }
  }
  return false;
}

std::string RenderSarif(const CatalogAuditReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"vdmlint\",\n";
  out += "          \"rules\": [\n";
  for (size_t i = 0; i < std::size(kRuleDocs); ++i) {
    out += StrFormat(
        "            {\"id\": \"%s\", \"shortDescription\": {\"text\": "
        "\"%s\"}}%s\n",
        kRuleDocs[i].id, EscapeJson(kRuleDocs[i].description).c_str(),
        i + 1 < std::size(kRuleDocs) ? "," : "");
  }
  out += "          ]\n        }\n      },\n";
  out += "      \"results\": [\n";
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const AuditFinding& f = report.findings[i];
    out += "        {\n";
    out += StrFormat("          \"ruleId\": \"%s\",\n", f.rule.c_str());
    out += StrFormat("          \"level\": \"%s\",\n",
                     SarifLevel(f.severity));
    out += StrFormat("          \"message\": {\"text\": \"%s\"},\n",
                     EscapeJson(f.message).c_str());
    out += StrFormat(
        "          \"partialFingerprints\": {\"vdmlint/v1\": \"%s\"},\n",
        f.fingerprint.c_str());
    out += StrFormat(
        "          \"locations\": [{\"logicalLocations\": [{\"name\": "
        "\"%s\", \"kind\": \"view\"}]}]\n",
        EscapeJson(f.view).c_str());
    out += i + 1 < report.findings.size() ? "        },\n" : "        }\n";
  }
  out += "      ]\n    }\n  ]\n}\n";
  return out;
}

}  // namespace vdm

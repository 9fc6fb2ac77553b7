#include "sql/binder.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "sql/parser.h"

namespace vdm {

namespace {

constexpr int kMaxViewDepth = 64;

/// Unqualified part of a (possibly qualified) column name.
std::string BareName(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

/// Replaces subtrees equal to a group expression with a reference to the
/// group output — but does not descend into aggregate arguments, which are
/// evaluated against the aggregation input.
ExprRef ReplaceGroupRefs(
    const ExprRef& expr,
    const std::vector<std::pair<ExprRef, std::string>>& groups) {
  for (const auto& [group_expr, name] : groups) {
    if (expr->Equals(*group_expr)) return Col(name);
  }
  if (expr->kind() == ExprKind::kAggregate) return expr;
  std::vector<ExprRef> children;
  bool changed = false;
  for (const ExprRef& child : expr->children()) {
    ExprRef replaced = ReplaceGroupRefs(child, groups);
    changed |= (replaced != child);
    children.push_back(std::move(replaced));
  }
  return changed ? expr->WithChildren(std::move(children)) : expr;
}

/// True when an expression outside aggregate arguments references columns
/// other than group outputs — used to reject select items that are neither
/// grouped nor aggregated.
bool HasBareColumnRefs(const ExprRef& expr,
                       const std::set<std::string>& group_names) {
  if (expr->kind() == ExprKind::kAggregate) return false;
  if (expr->kind() == ExprKind::kColumnRef) {
    return group_names.count(
               static_cast<const ColumnRefExpr&>(*expr).name()) == 0;
  }
  for (const ExprRef& child : expr->children()) {
    if (HasBareColumnRefs(child, group_names)) return true;
  }
  return false;
}

}  // namespace

struct Binder::Scope {
  // Resolution map: qualified and bare names -> output name. The empty
  // string marks an ambiguous bare name.
  std::map<std::string, std::string> names;
  std::vector<std::string> ordered_outputs;
  std::vector<const ViewDef*> views;
  // Alias (lower-cased) -> view definition, for association resolution
  // ("alias.assoc.column" path expressions).
  std::map<std::string, const ViewDef*> view_of_alias;
  // For ORDER BY scopes over already-projected outputs: a qualified
  // reference like "o.o_orderkey" may fall back to its bare name.
  bool allow_bare_fallback = false;

  void AddOutput(const std::string& qualified) {
    ordered_outputs.push_back(qualified);
    names[ToLower(qualified)] = qualified;
    std::string bare = ToLower(BareName(qualified));
    auto [it, inserted] = names.emplace(bare, qualified);
    if (!inserted && it->second != qualified) it->second = "";  // ambiguous
  }

  Result<std::string> Resolve(const std::string& name) const {
    auto it = names.find(ToLower(name));
    if (it == names.end() && allow_bare_fallback) {
      it = names.find(ToLower(BareName(name)));
    }
    if (it == names.end()) {
      return Status::BindError("unknown column: " + name);
    }
    if (it->second.empty()) {
      return Status::BindError("ambiguous column: " + name);
    }
    return it->second;
  }
};

Result<PlanRef> Binder::BindSql(const std::string& sql) {
  VDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::BindError("expected a SELECT statement");
  }
  return BindSelect(*stmt.select);
}

Result<PlanRef> Binder::BindSelect(const SelectStmt& stmt) {
  std::vector<std::string> output_names;
  bool order_handled = false;
  const std::vector<OrderItem>* core_order =
      (stmt.cores.size() == 1 && !stmt.order_by.empty()) ? &stmt.order_by
                                                         : nullptr;
  VDM_ASSIGN_OR_RETURN(
      PlanRef plan,
      BindCore(stmt.cores[0], &output_names, core_order, &order_handled));

  if (stmt.cores.size() > 1) {
    std::vector<PlanRef> children{plan};
    for (size_t i = 1; i < stmt.cores.size(); ++i) {
      std::vector<std::string> child_names;
      VDM_ASSIGN_OR_RETURN(PlanRef child,
                           BindCore(stmt.cores[i], &child_names));
      if (child_names.size() != output_names.size()) {
        return Status::BindError("UNION ALL children differ in arity");
      }
      children.push_back(std::move(child));
    }
    plan = std::make_shared<UnionAllOp>(std::move(children), output_names);
  }

  if (!stmt.order_by.empty() && !order_handled) {
    // ORDER BY resolves against the output columns; qualified references
    // fall back to their bare name ("o.k" -> output "k").
    Scope scope;
    scope.allow_bare_fallback = true;
    for (const std::string& name : output_names) scope.AddOutput(name);
    std::vector<SortOp::SortKey> keys;
    for (const OrderItem& item : stmt.order_by) {
      VDM_ASSIGN_OR_RETURN(ExprRef bound, BindExpr(item.expr, scope));
      keys.push_back({std::move(bound), item.ascending});
    }
    plan = std::make_shared<SortOp>(std::move(plan), std::move(keys));
  }
  if (stmt.limit >= 0) {
    plan = std::make_shared<LimitOp>(std::move(plan), stmt.limit,
                                     stmt.offset);
  }
  return plan;
}

Result<Binder::BoundRef> Binder::BindTableRef(const TableRef& ref) {
  BoundRef out;
  if (ref.kind == TableRef::Kind::kSubquery) {
    out.alias = ref.alias;
    VDM_ASSIGN_OR_RETURN(PlanRef sub, BindSelect(*ref.subquery));
    // Alias-qualify the subquery's outputs.
    std::vector<ProjectOp::Item> items;
    for (const std::string& name : sub->OutputNames()) {
      std::string qualified = out.alias + "." + BareName(name);
      items.push_back({Col(name), qualified});
      out.output_names.push_back(std::move(qualified));
    }
    out.plan = std::make_shared<ProjectOp>(std::move(sub), std::move(items));
    return out;
  }

  out.alias = ref.alias.empty() ? ref.name : ref.alias;

  if (const TableSchema* schema = catalog_->FindTable(ref.name)) {
    auto scan = std::make_shared<ScanOp>(*schema, out.alias,
                                         std::vector<size_t>{});
    out.output_names = scan->OutputNames();
    out.plan = std::move(scan);
    return out;
  }

  const ViewDef* view = catalog_->FindView(ref.name);
  if (view == nullptr) {
    return Status::NotFound("unknown table or view: " + ref.name);
  }
  PlanRef view_plan_override;
  if (!view->materialized_table.empty()) {
    // Static cached view (§3): read the snapshot instead of inlining.
    const TableSchema* snapshot =
        catalog_->FindTable(view->materialized_table);
    if (snapshot == nullptr) {
      return Status::Internal("missing snapshot table for view " +
                              view->name);
    }
    auto scan = std::make_shared<ScanOp>(*snapshot, out.alias,
                                         std::vector<size_t>{});
    // Rename scan outputs to the view's bare column names so the DAC
    // filter and alias projection below work unchanged.
    std::vector<ProjectOp::Item> items;
    for (size_t c = 0; c < snapshot->NumColumns(); ++c) {
      items.push_back(
          {Col(scan->QualifiedName(c)), snapshot->column(c).name});
    }
    view_plan_override =
        std::make_shared<ProjectOp>(std::move(scan), std::move(items));
  }
  if (++view_depth_ > kMaxViewDepth) {
    --view_depth_;
    return Status::BindError("view nesting too deep (cycle?): " + ref.name);
  }
  PlanRef view_plan;
  if (view_plan_override) {
    view_plan = view_plan_override;
  } else {
    Result<PlanRef> bound = BindSql(view->sql);
    if (!bound.ok()) {
      --view_depth_;
      return Status(bound.status().code(),
                    "in view " + view->name + ": " + bound.status().message());
    }
    view_plan = std::move(bound).value();
  }
  --view_depth_;

  // Inject the record-wise data access control filter (§3).
  if (!view->dac_filter_sql.empty()) {
    VDM_ASSIGN_OR_RETURN(ExprRef dac, ParseExpression(view->dac_filter_sql));
    Scope view_scope;
    for (const std::string& name : view_plan->OutputNames()) {
      view_scope.AddOutput(name);
    }
    VDM_ASSIGN_OR_RETURN(ExprRef bound_dac, BindExpr(dac, view_scope));
    view_plan = std::make_shared<FilterOp>(std::move(view_plan),
                                           std::move(bound_dac));
  }

  // Alias-qualify the view's outputs.
  std::vector<ProjectOp::Item> items;
  for (const std::string& name : view_plan->OutputNames()) {
    std::string qualified = out.alias + "." + BareName(name);
    items.push_back({Col(name), qualified});
    out.output_names.push_back(std::move(qualified));
  }
  out.plan =
      std::make_shared<ProjectOp>(std::move(view_plan), std::move(items));
  out.view = view;
  return out;
}

Result<ExprRef> Binder::BindExpr(const ExprRef& expr, const Scope& scope) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      const std::string& name =
          static_cast<const ColumnRefExpr&>(*expr).name();
      VDM_ASSIGN_OR_RETURN(std::string resolved, scope.Resolve(name));
      return Col(std::move(resolved));
    }
    case ExprKind::kMacroRef: {
      const std::string& name =
          static_cast<const MacroRefExpr&>(*expr).name();
      for (const ViewDef* view : scope.views) {
        if (view == nullptr) continue;
        const ExpressionMacro* macro = view->FindMacro(name);
        if (macro != nullptr) {
          VDM_ASSIGN_OR_RETURN(ExprRef body,
                               ParseExpression(macro->body_sql));
          return BindExpr(body, scope);
        }
      }
      return Status::BindError("unknown expression macro: " + name);
    }
    default: {
      std::vector<ExprRef> children;
      bool changed = false;
      for (const ExprRef& child : expr->children()) {
        VDM_ASSIGN_OR_RETURN(ExprRef bound, BindExpr(child, scope));
        changed |= (bound != child);
        children.push_back(std::move(bound));
      }
      return changed ? expr->WithChildren(std::move(children)) : expr;
    }
  }
}

Status Binder::ResolvePathRef(const std::string& ref, Scope* scope,
                              PlanRef* plan) {
  std::vector<std::string> segments = Split(ref, '.');
  if (segments.size() < 3) return Status::OK();
  std::string current = ToLower(segments[0]);
  // Walk association segments; the last segment is the column.
  for (size_t i = 1; i + 1 < segments.size(); ++i) {
    std::string next_alias = current + "." + ToLower(segments[i]);
    if (scope->view_of_alias.count(next_alias) > 0) {
      current = next_alias;  // already injected
      continue;
    }
    auto view_it = scope->view_of_alias.find(current);
    if (view_it == scope->view_of_alias.end() ||
        view_it->second == nullptr) {
      return Status::OK();  // not an association path; resolved normally
    }
    const AssociationDef* assoc =
        view_it->second->FindAssociation(segments[i]);
    if (assoc == nullptr) {
      return Status::BindError("view " + view_it->second->name +
                               " has no association '" + segments[i] + "'");
    }
    // Bind the association target under the path alias.
    TableRef target_ref;
    target_ref.kind = TableRef::Kind::kNamed;
    target_ref.name = assoc->target;
    target_ref.alias = next_alias;
    VDM_ASSIGN_OR_RETURN(BoundRef target, BindTableRef(target_ref));
    // Bind the ON condition: target columns are "<assoc>.<col>", source
    // columns are the view instance's bare output names.
    Scope cond_scope;
    std::string assoc_prefix = ToLower(assoc->name) + ".";
    for (const std::string& qualified : target.output_names) {
      cond_scope.names[assoc_prefix + ToLower(BareName(qualified))] =
          qualified;
    }
    std::string source_prefix = current + ".";
    for (const std::string& qualified : scope->ordered_outputs) {
      if (ToLower(qualified).rfind(source_prefix, 0) == 0 &&
          std::count(qualified.begin(), qualified.end(), '.') ==
              std::count(source_prefix.begin(), source_prefix.end(), '.')) {
        cond_scope.names.emplace(
            ToLower(qualified.substr(source_prefix.size())), qualified);
      }
    }
    VDM_ASSIGN_OR_RETURN(ExprRef condition,
                         ParseExpression(assoc->condition_sql));
    Result<ExprRef> bound = BindExpr(condition, cond_scope);
    if (!bound.ok()) {
      return Status(bound.status().code(),
                    "in association " + assoc->name + " of view " +
                        view_it->second->name + ": " +
                        bound.status().message());
    }
    // Associations are to-one (CDS default [0..1]): a declared
    // many-to-one LEFT OUTER join (§7.3 semantics).
    *plan = std::make_shared<JoinOp>(*plan, target.plan,
                                     JoinType::kLeftOuter,
                                     std::move(bound).value(),
                                     DeclaredCardinality::kAtMostOne);
    for (const std::string& qualified : target.output_names) {
      scope->AddOutput(qualified);
    }
    scope->view_of_alias[next_alias] = target.view;
    current = next_alias;
  }
  return Status::OK();
}

Result<PlanRef> Binder::BindCore(const SelectCore& core,
                                 std::vector<std::string>* output_names,
                                 const std::vector<OrderItem>* order_by,
                                 bool* order_handled) {
  Scope scope;
  PlanRef plan;

  if (core.has_from) {
    VDM_ASSIGN_OR_RETURN(BoundRef base, BindTableRef(core.from));
    plan = base.plan;
    for (const std::string& name : base.output_names) scope.AddOutput(name);
    scope.views.push_back(base.view);
    scope.view_of_alias[ToLower(base.alias)] = base.view;

    for (const JoinClause& join : core.joins) {
      VDM_ASSIGN_OR_RETURN(BoundRef right, BindTableRef(join.ref));
      for (const std::string& name : right.output_names) {
        scope.AddOutput(name);
      }
      scope.views.push_back(right.view);
      scope.view_of_alias[ToLower(right.alias)] = right.view;
      ExprRef condition = join.condition ? join.condition : LitBool(true);
      VDM_ASSIGN_OR_RETURN(ExprRef bound_cond, BindExpr(condition, scope));
      plan = std::make_shared<JoinOp>(plan, right.plan, join.join_type,
                                      std::move(bound_cond),
                                      join.cardinality, join.case_join);
    }

    // CDS path expressions (§2.3): "alias.assoc.column" references inject
    // the association's many-to-one LEFT OUTER join on demand.
    std::vector<std::string> path_refs;
    auto collect = [&](const ExprRef& expr) {
      if (!expr) return;
      std::vector<std::string> refs;
      CollectColumnRefs(expr, &refs);
      for (std::string& ref : refs) {
        if (std::count(ref.begin(), ref.end(), '.') >= 2) {
          path_refs.push_back(std::move(ref));
        }
      }
    };
    for (const SelectItem& item : core.items) collect(item.expr);
    collect(core.where);
    for (const ExprRef& g : core.group_by) collect(g);
    collect(core.having);
    if (order_by != nullptr) {
      for (const OrderItem& item : *order_by) collect(item.expr);
    }
    for (const std::string& ref : path_refs) {
      VDM_RETURN_NOT_OK(ResolvePathRef(ref, &scope, &plan));
    }
  } else {
    return Status::BindError("SELECT without FROM is not supported");
  }

  if (core.where) {
    VDM_ASSIGN_OR_RETURN(ExprRef where, BindExpr(core.where, scope));
    plan = std::make_shared<FilterOp>(std::move(plan), std::move(where));
  }

  // Expand the select list (star expansion + binding).
  struct BoundItem {
    ExprRef expr;
    std::string name;
  };
  std::vector<BoundItem> items;
  std::set<std::string> used_names;
  auto unique_name = [&used_names](std::string base) {
    std::string name = base;
    int suffix = 1;
    while (used_names.count(name) > 0) {
      name = base + "_" + std::to_string(suffix++);
    }
    used_names.insert(name);
    return name;
  };
  // Count bare-name collisions for star expansion.
  std::map<std::string, int> bare_counts;
  for (const std::string& qualified : scope.ordered_outputs) {
    ++bare_counts[ToLower(BareName(qualified))];
  }
  for (const SelectItem& item : core.items) {
    if (item.star) {
      for (const std::string& qualified : scope.ordered_outputs) {
        std::string bare = BareName(qualified);
        std::string name =
            bare_counts[ToLower(bare)] > 1 ? qualified : bare;
        items.push_back({Col(qualified), unique_name(name)});
      }
      continue;
    }
    VDM_ASSIGN_OR_RETURN(ExprRef bound, BindExpr(item.expr, scope));
    std::string name = item.alias;
    if (name.empty()) {
      if (item.expr->kind() == ExprKind::kColumnRef) {
        name = BareName(
            static_cast<const ColumnRefExpr&>(*item.expr).name());
      } else {
        name = bound->ToString();
      }
    }
    items.push_back({std::move(bound), unique_name(name)});
  }

  bool has_aggregates = false;
  for (const BoundItem& item : items) {
    if (ContainsAggregate(item.expr)) has_aggregates = true;
  }

  if (!core.group_by.empty() || has_aggregates || core.having) {
    // Build grouped aggregation.
    std::vector<std::pair<ExprRef, std::string>> groups;
    std::vector<AggregateOp::GroupItem> group_items;
    for (const ExprRef& g : core.group_by) {
      VDM_ASSIGN_OR_RETURN(ExprRef bound, BindExpr(g, scope));
      std::string name =
          bound->kind() == ExprKind::kColumnRef
              ? static_cast<const ColumnRefExpr&>(*bound).name()
              : bound->ToString();
      groups.emplace_back(bound, name);
      group_items.push_back({bound, name});
    }
    std::set<std::string> group_names;
    for (const auto& [expr, name] : groups) group_names.insert(name);
    std::vector<AggregateOp::AggItem> agg_items;
    for (const BoundItem& item : items) {
      ExprRef rewritten = ReplaceGroupRefs(item.expr, groups);
      if (!ContainsAggregate(rewritten) &&
          HasBareColumnRefs(rewritten, group_names)) {
        return Status::BindError("column " + item.expr->ToString() +
                                 " must appear in GROUP BY or an aggregate");
      }
      agg_items.push_back({std::move(rewritten), item.name});
    }
    bool has_having = static_cast<bool>(core.having);
    if (has_having) {
      VDM_ASSIGN_OR_RETURN(ExprRef having, BindExpr(core.having, scope));
      ExprRef rewritten = ReplaceGroupRefs(having, groups);
      agg_items.push_back({std::move(rewritten), "__having"});
    }
    plan = std::make_shared<AggregateOp>(std::move(plan),
                                         std::move(group_items),
                                         std::move(agg_items));
    if (has_having) {
      plan = std::make_shared<FilterOp>(
          std::move(plan), Eq(Col("__having"), LitBool(true)));
    }
    // Final projection: the select items in order (drops group columns
    // and the hidden having column).
    std::vector<ProjectOp::Item> final_items;
    for (const BoundItem& item : items) {
      final_items.push_back({Col(item.name), item.name});
    }
    plan = std::make_shared<ProjectOp>(std::move(plan),
                                       std::move(final_items));
  } else if (order_by != nullptr && !core.distinct) {
    // Simple select with an ORDER BY that may reference non-projected
    // columns: sort before the projection, binding the keys in the full
    // FROM scope.
    std::vector<SortOp::SortKey> keys;
    bool bound_all = true;
    for (const OrderItem& item : *order_by) {
      Result<ExprRef> bound = BindExpr(item.expr, scope);
      if (!bound.ok()) {
        bound_all = false;
        break;
      }
      keys.push_back({std::move(bound).value(), item.ascending});
    }
    if (bound_all) {
      plan = std::make_shared<SortOp>(std::move(plan), std::move(keys));
      if (order_handled != nullptr) *order_handled = true;
    }
    std::vector<ProjectOp::Item> project_items;
    for (const BoundItem& item : items) {
      project_items.push_back({item.expr, item.name});
    }
    plan = std::make_shared<ProjectOp>(std::move(plan),
                                       std::move(project_items));
  } else {
    std::vector<ProjectOp::Item> project_items;
    for (const BoundItem& item : items) {
      project_items.push_back({item.expr, item.name});
    }
    plan = std::make_shared<ProjectOp>(std::move(plan),
                                       std::move(project_items));
  }

  if (core.distinct) {
    plan = std::make_shared<DistinctOp>(std::move(plan));
  }

  output_names->clear();
  for (const std::string& name : plan->OutputNames()) {
    output_names->push_back(name);
  }
  return plan;
}

}  // namespace vdm

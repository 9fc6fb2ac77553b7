#include "optimizer/rewrite_util.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "expr/fold.h"

namespace vdm {

PlanRef FindNodeById(const PlanRef& plan, uint64_t id) {
  if (plan->id() == id) return plan;
  for (const PlanRef& child : plan->children()) {
    PlanRef found = FindNodeById(child, id);
    if (found) return found;
  }
  return nullptr;
}

bool ContainsNode(const PlanRef& plan, uint64_t id) {
  return FindNodeById(plan, id) != nullptr;
}

void CollectScanPredicates(const PlanRef& plan, uint64_t source_id,
                           InferenceEngine& engine, std::vector<ExprRef>* out) {
  if (plan->kind() == OpKind::kFilter) {
    const auto& filter = static_cast<const FilterOp&>(*plan);
    const InferredProps& child_props = engine.Infer(plan->child(0));
    for (const ExprRef& conjunct : SplitConjuncts(filter.predicate())) {
      bool ok = true;
      ExprRef base_form =
          RemapColumns(conjunct, [&](const std::string& name) -> ExprRef {
            const ValueSource* origin = child_props.DirectSource(name);
            if (origin == nullptr || origin->source_id != source_id ||
                origin->null_extended) {
              ok = false;
              return nullptr;
            }
            return Col(origin->column);
          });
      if (ok) out->push_back(std::move(base_form));
    }
  }
  for (const PlanRef& child : plan->children()) {
    CollectScanPredicates(child, source_id, engine, out);
  }
}

namespace {

std::optional<Exposure> ExposeAtScan(
    const std::shared_ptr<const ScanOp>& scan,
    const std::vector<std::string>& base_cols) {
  Exposure result;
  std::vector<size_t> columns = scan->column_indexes();
  for (const std::string& bc : base_cols) {
    int idx = scan->table_schema().FindColumn(bc);
    if (idx < 0) return std::nullopt;
    size_t schema_idx = static_cast<size_t>(idx);
    if (std::find(columns.begin(), columns.end(), schema_idx) ==
        columns.end()) {
      columns.push_back(schema_idx);
    }
    result.base_to_name[bc] = scan->QualifiedName(schema_idx);
  }
  result.plan = columns == scan->column_indexes()
                    ? PlanRef(scan)
                    : scan->WithColumns(std::move(columns));
  return result;
}

std::optional<Exposure> ExposeAtUnion(
    const std::shared_ptr<const UnionAllOp>& u,
    const std::vector<std::string>& base_cols,
    InferenceEngine& engine) {
  // Each child must expose each base column; columns are appended in the
  // same order to every child so positions line up.
  std::vector<PlanRef> new_children;
  for (const PlanRef& child : u->children()) {
    const InferredProps& child_props = engine.Infer(child);
    std::vector<std::string> child_names = child->OutputNames();
    // Which columns are already available, and which scan to widen for the
    // missing ones?
    std::map<std::string, std::string> available;  // base col -> child name
    uint64_t branch_scan = 0;
    for (const auto& [name, sources] : child_props.sources) {
      const ValueSource* origin = child_props.DirectSource(name);
      if (origin == nullptr || origin->null_extended) continue;
      if (available.count(origin->column) == 0) {
        available[origin->column] = name;
      }
      if (branch_scan == 0) branch_scan = origin->source_id;
    }
    std::vector<std::string> missing;
    for (const std::string& bc : base_cols) {
      if (available.count(bc) == 0) missing.push_back(bc);
    }
    PlanRef widened = child;
    std::map<std::string, std::string> exposed_names;
    if (!missing.empty()) {
      if (branch_scan == 0) return std::nullopt;
      std::optional<Exposure> e =
          ExposeColumns(child, branch_scan, missing, engine);
      if (!e.has_value()) return std::nullopt;
      widened = e->plan;
      exposed_names = e->base_to_name;
    }
    // Normalize: original child columns in order, then the base columns.
    std::vector<ProjectOp::Item> items;
    for (const std::string& name : child_names) {
      items.push_back({Col(name), name});
    }
    for (const std::string& bc : base_cols) {
      auto it = available.find(bc);
      std::string src = it != available.end() ? it->second
                                              : exposed_names[bc];
      items.push_back({Col(src), src + "$exp"});
    }
    new_children.push_back(
        std::make_shared<ProjectOp>(widened, std::move(items)));
  }
  Exposure result;
  std::vector<std::string> names = u->output_names();
  for (const std::string& bc : base_cols) {
    std::string name = StrFormat("__exp%llu.%s",
                                 static_cast<unsigned long long>(u->id()),
                                 bc.c_str());
    result.base_to_name[bc] = name;
    names.push_back(std::move(name));
  }
  result.plan = std::make_shared<UnionAllOp>(
      std::move(new_children), std::move(names), u->branch_id_column(),
      u->logical_table());
  return result;
}

}  // namespace

std::optional<Exposure> ExposeColumns(const PlanRef& plan, uint64_t source_id,
                                      const std::vector<std::string>& base_cols,
                                      InferenceEngine& engine) {
  if (plan->id() == source_id) {
    if (plan->kind() == OpKind::kScan) {
      return ExposeAtScan(std::static_pointer_cast<const ScanOp>(plan),
                          base_cols);
    }
    if (plan->kind() == OpKind::kUnionAll) {
      return ExposeAtUnion(std::static_pointer_cast<const UnionAllOp>(plan),
                           base_cols, engine);
    }
    return std::nullopt;
  }
  switch (plan->kind()) {
    case OpKind::kFilter:
    case OpKind::kSort:
    case OpKind::kLimit: {
      std::optional<Exposure> e =
          ExposeColumns(plan->child(0), source_id, base_cols, engine);
      if (!e.has_value()) return std::nullopt;
      e->plan = plan->WithChildren({e->plan});
      return e;
    }
    case OpKind::kProject: {
      const auto& project = static_cast<const ProjectOp&>(*plan);
      std::optional<Exposure> e =
          ExposeColumns(plan->child(0), source_id, base_cols, engine);
      if (!e.has_value()) return std::nullopt;
      std::vector<ProjectOp::Item> items = project.items();
      std::set<std::string> out_names;
      for (const ProjectOp::Item& item : items) out_names.insert(item.name);
      std::map<std::string, std::string> mapped;
      for (const std::string& bc : base_cols) {
        const std::string& child_name = e->base_to_name.at(bc);
        // Reuse an existing pass-through item if present.
        std::string found;
        for (const ProjectOp::Item& item : items) {
          if (item.expr->kind() == ExprKind::kColumnRef &&
              static_cast<const ColumnRefExpr&>(*item.expr).name() ==
                  child_name) {
            found = item.name;
            break;
          }
        }
        if (found.empty()) {
          std::string out_name = child_name;
          while (out_names.count(out_name) > 0) out_name += "$e";
          items.push_back({Col(child_name), out_name});
          out_names.insert(out_name);
          found = out_name;
        }
        mapped[bc] = found;
      }
      Exposure result;
      result.plan = std::make_shared<ProjectOp>(e->plan, std::move(items));
      result.base_to_name = std::move(mapped);
      return result;
    }
    case OpKind::kJoin: {
      const auto& join = static_cast<const JoinOp&>(*plan);
      bool in_left = ContainsNode(join.left(), source_id);
      const PlanRef& side = in_left ? join.left() : join.right();
      std::optional<Exposure> e =
          ExposeColumns(side, source_id, base_cols, engine);
      if (!e.has_value()) return std::nullopt;
      e->plan = std::make_shared<JoinOp>(
          in_left ? e->plan : join.left(), in_left ? join.right() : e->plan,
          join.join_type(), join.condition(), join.declared_cardinality(),
          join.is_case_join());
      return e;
    }
    default:
      // Aggregates, DISTINCT, and union-alls on the path (other than the
      // source itself) block exposure.
      return std::nullopt;
  }
}

}  // namespace vdm

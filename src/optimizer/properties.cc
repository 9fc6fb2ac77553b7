#include "optimizer/properties.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "expr/fold.h"

namespace vdm {

namespace {

constexpr size_t kMaxKeysPerNode = 8;

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

/// key ⊆ available?
bool Subset(const std::vector<std::string>& key,
            const std::set<std::string>& available) {
  for (const std::string& k : key) {
    if (available.count(k) == 0) return false;
  }
  return true;
}

/// For every key containing pinned-constant columns, also add the key with
/// those columns removed (AJ 2a-3: (x, y) unique + y = 1 ⇒ x unique).
void ReduceKeysByConstants(RelProps* props) {
  std::vector<std::vector<std::string>> extra;
  for (const std::vector<std::string>& key : props->unique_keys) {
    std::vector<std::string> reduced;
    for (const std::string& col : key) {
      if (props->constants.count(col) == 0) reduced.push_back(col);
    }
    if (!reduced.empty() && reduced.size() < key.size()) {
      extra.push_back(std::move(reduced));
    }
  }
  for (std::vector<std::string>& key : extra) {
    props->AddKey(std::move(key));
  }
}

RelProps DeriveScan(const ScanOp& scan, const DerivationConfig& config) {
  RelProps props;
  std::vector<std::string> outputs = scan.OutputNames();
  std::set<std::string> available(outputs.begin(), outputs.end());
  for (size_t i = 0; i < scan.column_indexes().size(); ++i) {
    size_t schema_idx = scan.column_indexes()[i];
    ColumnOrigin origin;
    origin.source_id = scan.id();
    origin.table = ToLower(scan.table_name());
    origin.column = ToLower(scan.table_schema().column(schema_idx).name);
    props.origins[outputs[i]] = std::move(origin);
  }
  if (config.base_table_keys) {
    for (const UniqueKeyDef& key : scan.table_schema().unique_keys()) {
      if (!key.enforced && !config.trust_declared_cardinality) continue;
      std::vector<std::string> qualified;
      bool all_present = true;
      for (const std::string& col : key.columns) {
        int idx = scan.table_schema().FindColumn(col);
        std::string name = scan.QualifiedName(static_cast<size_t>(idx));
        if (available.count(name) == 0) {
          all_present = false;
          break;
        }
        qualified.push_back(std::move(name));
      }
      if (all_present) props.AddKey(std::move(qualified));
    }
  }
  return props;
}

RelProps DeriveFilter(const FilterOp& filter, const RelProps& child,
                      const DerivationConfig& config) {
  RelProps props = child;
  if (IsAlwaysFalse(filter.predicate())) props.empty_relation = true;
  if (config.const_pinning) {
    for (const ExprRef& conjunct : SplitConjuncts(filter.predicate())) {
      std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
      if (cc.has_value()) props.constants.emplace(cc->column, cc->value);
    }
    ReduceKeysByConstants(&props);
  }
  return props;
}

RelProps DeriveProject(const ProjectOp& project, const RelProps& child,
                       const DerivationConfig& config) {
  RelProps props;
  props.empty_relation = child.empty_relation;
  props.base_constants = child.base_constants;
  // Map child column name -> first output name that passes it through.
  std::map<std::string, std::string> passthrough;
  for (const ProjectOp::Item& item : project.items()) {
    if (item.expr->kind() == ExprKind::kColumnRef) {
      const std::string& child_name =
          static_cast<const ColumnRefExpr&>(*item.expr).name();
      if (passthrough.count(child_name) == 0) {
        passthrough[child_name] = item.name;
      }
      auto origin_it = child.origins.find(child_name);
      if (origin_it != child.origins.end()) {
        props.origins[item.name] = origin_it->second;
      }
      auto const_it = child.constants.find(child_name);
      if (const_it != child.constants.end()) {
        props.constants.emplace(item.name, const_it->second);
      }
    } else if (item.expr->kind() == ExprKind::kLiteral) {
      props.constants.emplace(
          item.name, static_cast<const LiteralExpr&>(*item.expr).value());
    }
  }
  for (const std::vector<std::string>& key : child.unique_keys) {
    std::vector<std::string> mapped;
    bool ok = true;
    for (const std::string& col : key) {
      auto it = passthrough.find(col);
      if (it == passthrough.end()) {
        ok = false;
        break;
      }
      mapped.push_back(it->second);
    }
    if (ok) props.AddKey(std::move(mapped));
  }
  if (config.const_pinning) ReduceKeysByConstants(&props);
  return props;
}

RelProps DeriveAggregate(const AggregateOp& agg, const RelProps& child,
                         const DerivationConfig& config) {
  RelProps props;
  props.empty_relation = child.empty_relation && !agg.group_by().empty();
  props.base_constants = child.base_constants;
  std::vector<std::string> group_names;
  for (const AggregateOp::GroupItem& g : agg.group_by()) {
    group_names.push_back(g.name);
    if (g.expr->kind() == ExprKind::kColumnRef) {
      const std::string& child_name =
          static_cast<const ColumnRefExpr&>(*g.expr).name();
      auto origin_it = child.origins.find(child_name);
      if (origin_it != child.origins.end()) {
        props.origins[g.name] = origin_it->second;
      }
      auto const_it = child.constants.find(child_name);
      if (const_it != child.constants.end()) {
        props.constants.emplace(g.name, const_it->second);
      }
    } else if (g.expr->kind() == ExprKind::kLiteral) {
      props.constants.emplace(
          g.name, static_cast<const LiteralExpr&>(*g.expr).value());
    }
  }
  if (agg.group_by().empty()) {
    // Global aggregation: a single output row; every column is unique.
    for (const std::string& name : agg.OutputNames()) {
      props.AddKey({name});
    }
    return props;
  }
  if (!config.groupby_keys) return props;
  props.AddKey(group_names);
  // Aggregate items that merely re-project a group expression are aliases
  // of the group column: give them the same origins/constants, and emit
  // alias-substituted keys so a projection keeping only the alias still
  // sees the uniqueness (e.g. "select l_orderkey, sum(q) ... group by
  // l_orderkey" projected to the bare alias).
  std::map<std::string, std::vector<std::string>> alias_of;  // group -> names
  for (size_t gi = 0; gi < agg.group_by().size(); ++gi) {
    alias_of[agg.group_by()[gi].name] = {agg.group_by()[gi].name};
  }
  for (const AggregateOp::AggItem& item : agg.aggregates()) {
    for (size_t gi = 0; gi < agg.group_by().size(); ++gi) {
      const AggregateOp::GroupItem& g = agg.group_by()[gi];
      if (item.expr->Equals(*g.expr) ||
          (item.expr->kind() == ExprKind::kColumnRef &&
           static_cast<const ColumnRefExpr&>(*item.expr).name() == g.name)) {
        alias_of[g.name].push_back(item.name);
        auto origin_it = props.origins.find(g.name);
        if (origin_it != props.origins.end()) {
          props.origins[item.name] = origin_it->second;
        }
        auto const_it = props.constants.find(g.name);
        if (const_it != props.constants.end()) {
          props.constants.emplace(item.name, const_it->second);
        }
      }
    }
  }
  // Alias-substituted keys. Two variants cover the common shapes without
  // a combinatorial blow-up: substituting a single alias at a time, and
  // substituting every group column by its first alias at once (the shape
  // a projection keeping only the aliases sees).
  for (const auto& [group_name, aliases] : alias_of) {
    for (size_t a = 1; a < aliases.size(); ++a) {
      std::vector<std::string> key;
      for (const std::string& gn : group_names) {
        key.push_back(gn == group_name ? aliases[a] : gn);
      }
      props.AddKey(std::move(key));
    }
  }
  {
    std::vector<std::string> key;
    bool any_alias = false;
    for (const std::string& gn : group_names) {
      const std::vector<std::string>& aliases = alias_of[gn];
      if (aliases.size() > 1) {
        key.push_back(aliases[1]);
        any_alias = true;
      } else {
        key.push_back(gn);
      }
    }
    if (any_alias) props.AddKey(std::move(key));
  }
  if (config.const_pinning) ReduceKeysByConstants(&props);
  return props;
}

RelProps DeriveUnionAll(const UnionAllOp& u,
                        const std::vector<RelProps>& children,
                        const std::vector<std::vector<std::string>>&
                            child_output_names,
                        const DerivationConfig& config) {
  RelProps props;
  props.empty_relation = true;
  for (const RelProps& child : children) {
    props.empty_relation = props.empty_relation && child.empty_relation;
  }
  size_t arity = u.output_names().size();
  size_t n_children = children.size();

  // Per-position constants (pinned in every child to the same value) and
  // origin agreement (same base column in every child).
  std::vector<bool> all_pin_distinct(arity, false);
  for (size_t p = 0; p < arity; ++p) {
    const std::string& out_name = u.output_names()[p];
    // Constant agreement.
    bool all_const = true, all_same = true, all_distinct = true;
    std::vector<Value> vals;
    for (size_t c = 0; c < n_children; ++c) {
      auto it = children[c].constants.find(child_output_names[c][p]);
      if (it == children[c].constants.end()) {
        all_const = false;
        break;
      }
      vals.push_back(it->second);
    }
    if (all_const) {
      for (size_t i = 0; i < vals.size(); ++i) {
        for (size_t j = i + 1; j < vals.size(); ++j) {
          if (vals[i] == vals[j]) {
            all_distinct = false;
          } else {
            all_same = false;
          }
        }
      }
      if (all_same && !vals.empty()) {
        props.constants.emplace(out_name, vals[0]);
      }
      all_pin_distinct[p] = all_distinct && n_children > 1;
    }
    // Origin agreement.
    bool have_all = true;
    std::string column;
    std::string table;
    bool same_table = true;
    bool null_extended = false;
    for (size_t c = 0; c < n_children; ++c) {
      auto it = children[c].origins.find(child_output_names[c][p]);
      if (it == children[c].origins.end()) {
        have_all = false;
        break;
      }
      null_extended |= it->second.null_extended;
      if (c == 0) {
        column = it->second.column;
        table = it->second.table;
      } else {
        if (it->second.column != column) have_all = false;
        if (it->second.table != table) same_table = false;
      }
    }
    if (have_all) {
      ColumnOrigin origin;
      origin.source_id = u.id();
      origin.column = column;
      origin.null_extended = null_extended;
      if (!u.logical_table().empty()) {
        origin.table = ToLower(u.logical_table());
        props.origins[out_name] = std::move(origin);
      } else if (same_table) {
        origin.table = table;
        props.origins[out_name] = std::move(origin);
      }
    }
  }

  if (!config.keys_through_union_all) return props;

  // Candidate keys: keys of child 0 (mapped to union names) that are unique
  // in every child.
  std::vector<std::vector<std::string>> candidates;
  for (const std::vector<std::string>& key : children[0].unique_keys) {
    // Map child-0 names to positions, then to union names.
    std::vector<size_t> positions;
    bool ok = true;
    for (const std::string& col : key) {
      auto it = std::find(child_output_names[0].begin(),
                          child_output_names[0].end(), col);
      if (it == child_output_names[0].end()) {
        ok = false;
        break;
      }
      positions.push_back(static_cast<size_t>(
          std::distance(child_output_names[0].begin(), it)));
    }
    if (!ok) continue;
    for (size_t c = 1; c < n_children && ok; ++c) {
      std::vector<std::string> child_key;
      for (size_t p : positions) child_key.push_back(child_output_names[c][p]);
      std::set<std::string> as_set(child_key.begin(), child_key.end());
      bool unique_in_child = false;
      for (const std::vector<std::string>& ck : children[c].unique_keys) {
        if (Subset(ck, as_set)) {
          unique_in_child = true;
          break;
        }
      }
      if (!unique_in_child) ok = false;
    }
    if (!ok) continue;
    std::vector<std::string> union_key;
    for (size_t p : positions) union_key.push_back(u.output_names()[p]);
    candidates.push_back(std::move(union_key));
  }
  if (candidates.empty()) return props;

  // Branch-id position: explicit, or any position pinned to pairwise
  // distinct constants per child (Fig. 12(b)).
  std::vector<size_t> branch_positions;
  if (u.branch_id_column() >= 0) {
    branch_positions.push_back(static_cast<size_t>(u.branch_id_column()));
  }
  for (size_t p = 0; p < arity; ++p) {
    if (all_pin_distinct[p] &&
        std::find(branch_positions.begin(), branch_positions.end(), p) ==
            branch_positions.end()) {
      branch_positions.push_back(p);
    }
  }

  // (a) Branch-id keys: key ∪ {branch column} is unique (Fig. 12(b)).
  for (size_t bp : branch_positions) {
    for (const std::vector<std::string>& key : candidates) {
      std::vector<std::string> with_branch = key;
      if (!Contains(with_branch, u.output_names()[bp])) {
        with_branch.push_back(u.output_names()[bp]);
      }
      props.AddKey(std::move(with_branch));
    }
  }

  // (b) Disjoint-subset keys (Fig. 12(a)): all children are subsets of the
  // same base table, made disjoint by pairwise-distinct pinned predicates
  // on a common base column. Then base-table keys remain unique.
  if (n_children > 1) {
    // Same base table across children for each candidate key column?
    for (const std::vector<std::string>& key : candidates) {
      bool same_source_table = true;
      for (const std::string& col : key) {
        auto it = props.origins.find(col);
        if (it == props.origins.end() ||
            (!u.logical_table().empty() &&
             it->second.table == ToLower(u.logical_table()))) {
          // Logical-table unions mix distinct base tables; handled by the
          // branch-id path above.
          same_source_table = it != props.origins.end() &&
                              u.logical_table().empty();
          if (!same_source_table) break;
        }
      }
      if (!same_source_table) continue;
      // Disjointness certificate: a common base (table, column) pinned to
      // pairwise distinct values in every child.
      bool disjoint = false;
      // Collect (table.column -> value) pins per child from child
      // constants resolved through origins.
      std::vector<std::map<std::string, Value>> pins(n_children);
      for (size_t c = 0; c < n_children; ++c) {
        for (const auto& [col, val] : children[c].constants) {
          auto oit = children[c].origins.find(col);
          if (oit != children[c].origins.end() &&
              !oit->second.null_extended) {
            pins[c].emplace(oit->second.table + "." + oit->second.column,
                            val);
          }
        }
        for (const auto& [key_str, val] : children[c].base_constants) {
          pins[c].emplace(key_str, val);
        }
      }
      for (const auto& [base_col, v0] : pins[0]) {
        bool all_have = true, all_distinct = true;
        std::vector<Value> vals{v0};
        for (size_t c = 1; c < n_children; ++c) {
          auto it = pins[c].find(base_col);
          if (it == pins[c].end()) {
            all_have = false;
            break;
          }
          vals.push_back(it->second);
        }
        if (!all_have) continue;
        for (size_t i = 0; i < vals.size() && all_distinct; ++i) {
          for (size_t j = i + 1; j < vals.size(); ++j) {
            if (vals[i] == vals[j]) {
              all_distinct = false;
              break;
            }
          }
        }
        if (all_distinct) {
          disjoint = true;
          break;
        }
      }
      if (disjoint) {
        props.AddKey(key);
      }
    }
  }
  return props;
}

}  // namespace

InferOptions ToInferOptions(const DerivationConfig& config) {
  InferOptions options;
  options.base_table_keys = config.base_table_keys;
  options.groupby_keys = config.groupby_keys;
  options.const_pinning = config.const_pinning;
  options.keys_through_joins = config.keys_through_joins;
  options.keys_through_order_limit = config.keys_through_order_limit;
  options.keys_through_union_all = config.keys_through_union_all;
  options.trust_declared_cardinality = config.trust_declared_cardinality;
  return options;
}

bool RelProps::HasKey(const std::vector<std::string>& available) const {
  std::set<std::string> set(available.begin(), available.end());
  for (const std::vector<std::string>& key : unique_keys) {
    if (Subset(key, set)) return true;
  }
  return false;
}

void RelProps::AddKey(std::vector<std::string> key) {
  key = Sorted(std::move(key));
  for (const std::vector<std::string>& existing : unique_keys) {
    if (existing == key) return;
  }
  if (unique_keys.size() < kMaxKeysPerNode) {
    unique_keys.push_back(std::move(key));
  }
}

std::string RelProps::ToString() const {
  std::string out = "keys={";
  for (size_t i = 0; i < unique_keys.size(); ++i) {
    if (i > 0) out += "; ";
    out += Join(unique_keys[i], ",");
  }
  out += "} consts={";
  bool first = true;
  for (const auto& [col, val] : constants) {
    if (!first) out += "; ";
    first = false;
    out += col + "=" + val.ToString();
  }
  out += "}";
  if (empty_relation) out += " EMPTY";
  return out;
}

PropertyCache::PropertyCache(const DerivationConfig& config)
    : config_(config), engine_(ToInferOptions(config)) {}

const RelProps& PropertyCache::Get(const PlanRef& plan) {
  auto it = memo_.find(plan.get());
  if (it != memo_.end()) {
    ++reused_;
    return it->second.props;
  }
  ++computed_;
  RelProps props = Compute(plan);
  return memo_.emplace(plan.get(), Entry{plan, std::move(props)})
      .first->second.props;
}

JoinAnalysis PropertyCache::Analyze(const JoinOp& join) {
  const RelProps& left = Get(join.left());
  const RelProps& right = Get(join.right());
  return AnalyzeJoin(join, left, right, config_);
}

RelProps DeriveProps(const PlanRef& plan, const DerivationConfig& config) {
  PropertyCache cache(config);
  return cache.Get(plan);
}

RelProps PropertyCache::Compute(const PlanRef& plan) {
  const DerivationConfig& config = config_;
  switch (plan->kind()) {
    case OpKind::kScan:
      return DeriveScan(static_cast<const ScanOp&>(*plan), config);
    case OpKind::kFilter: {
      const auto& filter = static_cast<const FilterOp&>(*plan);
      const RelProps& child = Get(plan->child(0));
      RelProps props = DeriveFilter(filter, child, config);
      // Record base-table constants for union-all disjointness analysis.
      for (const ExprRef& conjunct : SplitConjuncts(filter.predicate())) {
        std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
        if (!cc.has_value()) continue;
        auto oit = child.origins.find(cc->column);
        if (oit != child.origins.end() && !oit->second.null_extended) {
          props.base_constants.emplace(
              oit->second.table + "." + oit->second.column, cc->value);
        }
      }
      return props;
    }
    case OpKind::kProject:
      return DeriveProject(static_cast<const ProjectOp&>(*plan),
                           Get(plan->child(0)), config);
    case OpKind::kJoin: {
      const auto& join = static_cast<const JoinOp&>(*plan);
      const RelProps& left = Get(join.left());
      const RelProps& right = Get(join.right());
      JoinAnalysis analysis = AnalyzeJoin(join, left, right, config);
      RelProps props;
      bool left_outer = join.join_type() == JoinType::kLeftOuter;
      props.empty_relation =
          left.empty_relation ||
          (!left_outer && right.empty_relation);
      // Origins.
      props.origins = left.origins;
      for (const auto& [col, origin] : right.origins) {
        ColumnOrigin o = origin;
        o.null_extended = o.null_extended || left_outer;
        props.origins.emplace(col, std::move(o));
      }
      // Constants.
      props.constants = left.constants;
      if (!left_outer) {
        for (const auto& [col, val] : right.constants) {
          props.constants.emplace(col, val);
        }
      }
      props.base_constants = left.base_constants;
      for (const auto& [key_str, val] : right.base_constants) {
        props.base_constants.emplace(key_str, val);
      }
      // Keys.
      if (config.keys_through_joins) {
        if (analysis.right_at_most_one) {
          for (const std::vector<std::string>& key : left.unique_keys) {
            props.AddKey(key);
          }
        }
        // For inner joins where the left side matches at most once, right
        // keys survive; computed by a flipped analysis.
        if (!left_outer) {
          JoinAnalysis flipped;
          // Build a pseudo-flipped analysis: equi pairs reversed.
          std::set<std::string> equated_left;
          for (const auto& [l, r] : analysis.equi_pairs) {
            equated_left.insert(l);
          }
          for (const auto& [col, val] : left.constants) {
            equated_left.insert(col);
          }
          for (const std::vector<std::string>& key : left.unique_keys) {
            if (Subset(key, equated_left)) {
              flipped.right_at_most_one = true;
              break;
            }
          }
          if (flipped.right_at_most_one) {
            for (const std::vector<std::string>& key : right.unique_keys) {
              props.AddKey(key);
            }
          }
        }
        // Combined keys: (left key ∪ right key) identifies the row pair.
        size_t added = 0;
        for (const std::vector<std::string>& lk : left.unique_keys) {
          for (const std::vector<std::string>& rk : right.unique_keys) {
            if (added >= 4) break;
            std::vector<std::string> combined = lk;
            combined.insert(combined.end(), rk.begin(), rk.end());
            props.AddKey(std::move(combined));
            ++added;
          }
          if (added >= 4) break;
        }
      }
      if (config.const_pinning) ReduceKeysByConstants(&props);
      return props;
    }
    case OpKind::kAggregate:
      return DeriveAggregate(static_cast<const AggregateOp&>(*plan),
                             Get(plan->child(0)), config);
    case OpKind::kUnionAll: {
      const auto& u = static_cast<const UnionAllOp&>(*plan);
      std::vector<RelProps> children;
      std::vector<std::vector<std::string>> names;
      for (const PlanRef& child : plan->children()) {
        children.push_back(Get(child));
        names.push_back(child->OutputNames());
      }
      return DeriveUnionAll(u, children, names, config);
    }
    case OpKind::kSort: {
      RelProps props = Get(plan->child(0));
      if (!config.keys_through_order_limit) props.unique_keys.clear();
      return props;
    }
    case OpKind::kLimit: {
      const auto& limit = static_cast<const LimitOp&>(*plan);
      RelProps props = Get(plan->child(0));
      if (!config.keys_through_order_limit) props.unique_keys.clear();
      if (limit.limit() == 0) props.empty_relation = true;
      return props;
    }
    case OpKind::kDistinct: {
      RelProps props = Get(plan->child(0));
      props.AddKey(plan->OutputNames());
      return props;
    }
  }
  return RelProps{};
}

namespace {

/// The right side of a candidate AJ 1a join as the referenced table's
/// scan: the scan itself, or the scan under a filter the left side already
/// implies — each conjunct pins an equated right column to the literal its
/// left partner is pinned to (what predicate transfer leaves behind), so
/// the filter keeps every row a surviving left row can match. nullptr
/// otherwise.
const ScanOp* ReferencedScan(
    const PlanRef& right,
    const std::vector<std::pair<std::string, std::string>>& equi_pairs,
    const RelProps& left_props) {
  if (right->kind() == OpKind::kScan) {
    return static_cast<const ScanOp*>(right.get());
  }
  if (right->kind() != OpKind::kFilter ||
      right->child(0)->kind() != OpKind::kScan) {
    return nullptr;
  }
  for (const ExprRef& conjunct : SplitConjuncts(
           static_cast<const FilterOp&>(*right).predicate())) {
    std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
    if (!cc.has_value()) return nullptr;
    bool implied = false;
    for (const auto& [l, r] : equi_pairs) {
      auto pinned = left_props.constants.find(l);
      implied |= r == cc->column && pinned != left_props.constants.end() &&
                 pinned->second == cc->value;
    }
    if (!implied) return nullptr;
  }
  return static_cast<const ScanOp*>(right->child(0).get());
}

}  // namespace

JoinAnalysis AnalyzeJoin(const JoinOp& join, const RelProps& left_props,
                         const RelProps& right_props,
                         const DerivationConfig& config) {
  JoinAnalysis analysis;
  std::vector<std::string> left_names = join.left()->OutputNames();
  std::vector<std::string> right_names = join.right()->OutputNames();
  std::set<std::string> left_set(left_names.begin(), left_names.end());
  std::set<std::string> right_set(right_names.begin(), right_names.end());

  std::set<std::string> equated_right;
  std::set<std::string> pinned_right;
  for (const auto& [col, val] : right_props.constants) {
    pinned_right.insert(col);
  }

  for (const ExprRef& conjunct : SplitConjuncts(join.condition())) {
    if (IsAlwaysTrue(conjunct)) continue;
    std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
    if (pair.has_value()) {
      if (left_set.count(pair->left) && right_set.count(pair->right)) {
        analysis.equi_pairs.emplace_back(pair->left, pair->right);
        equated_right.insert(pair->right);
        continue;
      }
      if (left_set.count(pair->right) && right_set.count(pair->left)) {
        analysis.equi_pairs.emplace_back(pair->right, pair->left);
        equated_right.insert(pair->left);
        continue;
      }
      analysis.pure_equi = false;
      continue;
    }
    std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
    if (cc.has_value() && right_set.count(cc->column) &&
        config.const_pinning) {
      pinned_right.insert(cc->column);
      continue;
    }
    analysis.pure_equi = false;
  }

  // Declared cardinality (§7.3) — trusted, not enforced.
  if (config.trust_declared_cardinality) {
    if (join.declared_cardinality() == DeclaredCardinality::kAtMostOne) {
      analysis.right_at_most_one = true;
    }
    if (join.declared_cardinality() == DeclaredCardinality::kExactOne) {
      analysis.right_at_most_one = true;
      analysis.right_exactly_one = true;
    }
  }

  // AJ 2b: empty augmenter — zero matches is "at most one".
  if (right_props.empty_relation) analysis.right_at_most_one = true;

  // AJ 2a: equated/pinned right columns cover a unique key.
  if (!analysis.right_at_most_one) {
    std::set<std::string> covered = equated_right;
    covered.insert(pinned_right.begin(), pinned_right.end());
    for (const std::vector<std::string>& key : right_props.unique_keys) {
      if (Subset(key, covered)) {
        analysis.right_at_most_one = true;
        break;
      }
    }
  }

  // AJ 1a: inner equi-join over a foreign key constraint guarantees
  // exactly one match.
  const ScanOp* right_scan =
      !analysis.right_exactly_one && analysis.pure_equi &&
              join.join_type() == JoinType::kInner &&
              analysis.right_at_most_one
          ? ReferencedScan(join.right(), analysis.equi_pairs, left_props)
          : nullptr;
  if (right_scan != nullptr) {
    // All left join columns must originate, un-null-extended, from one
    // scan whose table declares a matching FK to the right table.
    uint64_t left_source = 0;
    bool ok = !analysis.equi_pairs.empty();
    std::vector<std::string> fk_cols, ref_cols;
    for (const auto& [l, r] : analysis.equi_pairs) {
      auto lit = left_props.origins.find(l);
      auto rit = right_props.origins.find(r);
      if (lit == left_props.origins.end() ||
          rit == right_props.origins.end() || lit->second.null_extended) {
        ok = false;
        break;
      }
      if (left_source == 0) {
        left_source = lit->second.source_id;
      } else if (left_source != lit->second.source_id) {
        ok = false;
        break;
      }
      fk_cols.push_back(lit->second.column);
      ref_cols.push_back(rit->second.column);
    }
    if (ok && left_source != 0) {
      std::shared_ptr<const ScanOp> left_scan =
          FindScanById(join.left(), left_source);
      if (left_scan) {
        for (const ForeignKeyDef& fk : left_scan->table_schema().foreign_keys()) {
          if (!EqualsIgnoreCase(fk.referenced_table,
                                right_scan->table_name())) {
            continue;
          }
          if (fk.columns.size() != fk_cols.size()) continue;
          // Match columns as unordered pairs.
          bool all_match = true;
          for (size_t i = 0; i < fk_cols.size(); ++i) {
            bool found = false;
            for (size_t j = 0; j < fk.columns.size(); ++j) {
              if (EqualsIgnoreCase(fk.columns[j], fk_cols[i]) &&
                  EqualsIgnoreCase(fk.referenced_columns[j], ref_cols[i])) {
                found = true;
                break;
              }
            }
            if (!found) {
              all_match = false;
              break;
            }
          }
          // FK columns must be NOT NULL for a guaranteed match.
          if (all_match) {
            for (const std::string& col : fk.columns) {
              int idx = left_scan->table_schema().FindColumn(col);
              if (idx < 0 ||
                  left_scan->table_schema()
                      .column(static_cast<size_t>(idx))
                      .nullable) {
                all_match = false;
                break;
              }
            }
          }
          if (all_match) {
            analysis.right_exactly_one = true;
            break;
          }
        }
      }
    }
  }

  bool left_outer = join.join_type() == JoinType::kLeftOuter;
  analysis.purely_augmenting =
      (left_outer && analysis.right_at_most_one) ||
      (!left_outer && analysis.right_exactly_one);
  return analysis;
}

}  // namespace vdm

#include "analysis/infer/inference.h"

#include <algorithm>

#include "common/string_util.h"
#include "expr/fold.h"

namespace vdm {

namespace {

constexpr size_t kMaxSetsPerNode = 8;
constexpr size_t kMaxFdsPerNode = 16;

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

bool Subset(const std::vector<std::string>& key,
            const std::set<std::string>& available) {
  for (const std::string& k : key) {
    if (available.count(k) == 0) return false;
  }
  return true;
}

/// Columns c such that c IS NULL forces the whole expression to NULL
/// (strictness). Conservative: anything not provably strict returns {}
/// for its subtree (CASE, functions, IS NULL, AND/OR — e.g.
/// NULL AND FALSE = FALSE, so boolean connectives are not strict).
std::set<std::string> StrictNullColumns(const ExprRef& expr) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef:
      return {static_cast<const ColumnRefExpr&>(*expr).name()};
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*expr);
      if (bin.op() == BinaryOpKind::kAnd || bin.op() == BinaryOpKind::kOr) {
        return {};
      }
      std::set<std::string> cols = StrictNullColumns(bin.left());
      std::set<std::string> right = StrictNullColumns(bin.right());
      cols.insert(right.begin(), right.end());
      return cols;
    }
    case ExprKind::kUnary:
      // NOT NULL = NULL and -NULL = NULL: both strict.
      return StrictNullColumns(static_cast<const UnaryExpr&>(*expr).operand());
    default:
      return {};
  }
}

/// For every unique set containing pinned-constant columns, also add the
/// set with those columns removed (AJ 2a-3: (x, y) unique + y = 1 ⇒ x
/// unique — the "selective equality" derivation).
void ReduceSetsByConstants(InferredProps* props) {
  std::vector<std::vector<std::string>> extra;
  for (const std::vector<std::string>& key : props->unique_sets) {
    std::vector<std::string> reduced;
    for (const std::string& col : key) {
      if (props->constants.count(col) == 0) reduced.push_back(col);
    }
    if (!reduced.empty() && reduced.size() < key.size()) {
      extra.push_back(std::move(reduced));
    }
  }
  for (std::vector<std::string>& key : extra) {
    props->AddUniqueSet(std::move(key));
  }
}

/// Applies one filter-style equality conjunct `a = b` (both output
/// columns): in every surviving row both are non-NULL and equal, so each
/// side inherits the other's provenance (via_equality) and they determine
/// each other.
void ApplyColumnEquality(const std::string& a, const std::string& b,
                         InferredProps* props) {
  std::vector<ValueSource> a_sources;
  auto ait = props->sources.find(a);
  if (ait != props->sources.end()) a_sources = ait->second;
  std::vector<ValueSource> b_sources;
  auto bit = props->sources.find(b);
  if (bit != props->sources.end()) b_sources = bit->second;
  for (const ValueSource& src : b_sources) {
    if (src.null_extended) continue;
    ValueSource derived = src;
    derived.via_equality = true;
    props->AddSource(a, std::move(derived));
  }
  for (const ValueSource& src : a_sources) {
    if (src.null_extended) continue;
    ValueSource derived = src;
    derived.via_equality = true;
    props->AddSource(b, std::move(derived));
  }
  props->AddFd({a}, {b});
  props->AddFd({b}, {a});
}

/// Applies filter-style predicate consequences to `props` (whose sources
/// must already be populated): constant pins (output + per-scan-instance +
/// base), NULL rejection, column-equality provenance merging, and
/// constant-reduced unique sets. Shared by Filter, inner Join conditions,
/// and the trusted exact-one LEFT JOIN case.
void ApplyPredicate(const ExprRef& predicate, const InferOptions& options,
                    InferredProps* props) {
  if (IsAlwaysFalse(predicate)) props->empty_relation = true;
  for (const std::string& col : NullRejectedColumns(predicate)) {
    props->not_null.insert(col);
  }
  for (const ExprRef& conjunct : SplitConjuncts(predicate)) {
    if (options.const_pinning) {
      std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
      if (cc.has_value()) {
        props->constants.emplace(cc->column, cc->value);
        if (!cc->value.is_null()) {
          auto sit = props->sources.find(cc->column);
          if (sit != props->sources.end()) {
            for (const ValueSource& src : sit->second) {
              if (src.null_extended) continue;
              props->source_pins[src.source_id].emplace(src.column,
                                                        cc->value);
              props->base_constants.emplace(src.table + "." + src.column,
                                            cc->value);
            }
          }
        }
        continue;
      }
    }
    std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
    if (pair.has_value() && pair->left != pair->right) {
      ApplyColumnEquality(pair->left, pair->right, props);
    }
  }
  if (options.const_pinning) ReduceSetsByConstants(props);
}

InferredProps InferScan(const ScanOp& scan, const InferOptions& options) {
  InferredProps props;
  std::vector<std::string> outputs = scan.OutputNames();
  std::set<std::string> available(outputs.begin(), outputs.end());
  for (size_t i = 0; i < scan.column_indexes().size(); ++i) {
    size_t schema_idx = scan.column_indexes()[i];
    const ColumnDef& col = scan.table_schema().column(schema_idx);
    ValueSource source;
    source.source_id = scan.id();
    source.table = ToLower(scan.table_name());
    source.column = ToLower(col.name);
    props.AddSource(outputs[i], std::move(source));
    if (!col.nullable) props.not_null.insert(outputs[i]);
  }
  if (options.base_table_keys) {
    for (const UniqueKeyDef& key : scan.table_schema().unique_keys()) {
      if (!key.enforced && !options.trust_declared_cardinality) continue;
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
      if (all_present) props.AddUniqueSet(std::move(qualified));
    }
  }
  return props;
}

InferredProps InferProject(const ProjectOp& project,
                           const InferredProps& child,
                           const InferOptions& options) {
  InferredProps props;
  props.empty_relation = child.empty_relation;
  props.at_most_one_row = child.at_most_one_row;
  props.base_constants = child.base_constants;
  props.source_pins = child.source_pins;
  // Map child column name -> first output name that passes it through.
  std::map<std::string, std::string> passthrough;
  for (const ProjectOp::Item& item : project.items()) {
    if (item.expr->kind() == ExprKind::kColumnRef) {
      const std::string& child_name =
          static_cast<const ColumnRefExpr&>(*item.expr).name();
      if (passthrough.count(child_name) == 0) {
        passthrough[child_name] = item.name;
      }
      auto src_it = child.sources.find(child_name);
      if (src_it != child.sources.end()) {
        for (const ValueSource& src : src_it->second) {
          props.AddSource(item.name, src);
        }
      }
      auto const_it = child.constants.find(child_name);
      if (const_it != child.constants.end()) {
        props.constants.emplace(item.name, const_it->second);
      }
      if (child.not_null.count(child_name) > 0) {
        props.not_null.insert(item.name);
      }
    } else if (item.expr->kind() == ExprKind::kLiteral) {
      const Value& v = static_cast<const LiteralExpr&>(*item.expr).value();
      props.constants.emplace(item.name, v);
      if (!v.is_null()) props.not_null.insert(item.name);
    }
  }
  auto remap = [&](const std::vector<std::string>& cols,
                   std::vector<std::string>* out) {
    for (const std::string& col : cols) {
      auto it = passthrough.find(col);
      if (it == passthrough.end()) return false;
      out->push_back(it->second);
    }
    return true;
  };
  for (const std::vector<std::string>& key : child.unique_sets) {
    std::vector<std::string> mapped;
    if (remap(key, &mapped)) props.AddUniqueSet(std::move(mapped));
  }
  for (const FunctionalDep& fd : child.fds) {
    std::vector<std::string> dets;
    if (!remap(fd.determinants, &dets)) continue;
    // Dependents survive individually: dropping some is sound.
    std::vector<std::string> deps;
    for (const std::string& d : fd.dependents) {
      auto it = passthrough.find(d);
      if (it != passthrough.end()) deps.push_back(it->second);
    }
    if (!deps.empty()) props.AddFd(std::move(dets), std::move(deps));
  }
  if (options.const_pinning) ReduceSetsByConstants(&props);
  return props;
}

InferredProps InferAggregate(const AggregateOp& agg,
                             const InferredProps& child,
                             const InferOptions& options) {
  InferredProps props;
  props.empty_relation = child.empty_relation && !agg.group_by().empty();
  props.base_constants = child.base_constants;
  props.source_pins = child.source_pins;
  std::vector<std::string> group_names;
  std::map<std::string, std::string> passthrough;  // child name -> group name
  for (const AggregateOp::GroupItem& g : agg.group_by()) {
    group_names.push_back(g.name);
    if (g.expr->kind() == ExprKind::kColumnRef) {
      const std::string& child_name =
          static_cast<const ColumnRefExpr&>(*g.expr).name();
      if (passthrough.count(child_name) == 0) passthrough[child_name] = g.name;
      // Group rows all agree on the group columns, so one contributing
      // child row witnesses every sourced value simultaneously: the
      // source invariant survives grouping (DESIGN.md §12).
      auto src_it = child.sources.find(child_name);
      if (src_it != child.sources.end()) {
        for (const ValueSource& src : src_it->second) {
          props.AddSource(g.name, src);
        }
      }
      auto const_it = child.constants.find(child_name);
      if (const_it != child.constants.end()) {
        props.constants.emplace(g.name, const_it->second);
      }
      if (child.not_null.count(child_name) > 0) props.not_null.insert(g.name);
    } else if (g.expr->kind() == ExprKind::kLiteral) {
      const Value& v = static_cast<const LiteralExpr&>(*g.expr).value();
      props.constants.emplace(g.name, v);
      if (!v.is_null()) props.not_null.insert(g.name);
    }
  }
  // COUNT never returns NULL. An aggregate item that merely re-projects a
  // group expression is an alias of that group column: the binder's
  // ReplaceGroupRefs leaves a select-list pass-through as a bare ColumnRef
  // to the group name, and an item may also restate a computed group
  // expression. Its output is value-identical to the group column, so it
  // inherits that column's properties and an FD in both directions.
  std::map<std::string, std::vector<std::string>> aliases;  // group -> items
  for (const AggregateOp::AggItem& item : agg.aggregates()) {
    if (item.expr->kind() == ExprKind::kAggregate &&
        static_cast<const AggregateExpr&>(*item.expr).agg() ==
            AggKind::kCount) {
      props.not_null.insert(item.name);
    }
    for (const AggregateOp::GroupItem& g : agg.group_by()) {
      if (!item.expr->Equals(*g.expr) &&
          !(item.expr->kind() == ExprKind::kColumnRef &&
            static_cast<const ColumnRefExpr&>(*item.expr).name() ==
                g.name)) {
        continue;
      }
      aliases[g.name].push_back(item.name);
      auto src_it = props.sources.find(g.name);
      if (src_it != props.sources.end()) {
        std::vector<ValueSource> copies = src_it->second;
        for (const ValueSource& src : copies) props.AddSource(item.name, src);
      }
      auto const_it = props.constants.find(g.name);
      if (const_it != props.constants.end()) {
        props.constants.emplace(item.name, const_it->second);
      }
      if (props.not_null.count(g.name) > 0) props.not_null.insert(item.name);
      props.AddFd({g.name}, {item.name});
      props.AddFd({item.name}, {g.name});
    }
  }
  if (agg.group_by().empty()) {
    props.at_most_one_row = true;
    for (const std::string& name : agg.OutputNames()) {
      props.AddUniqueSet({name});
    }
    return props;
  }
  // Child FDs among group pass-through columns survive: the group
  // representative values are child-row values.
  for (const FunctionalDep& fd : child.fds) {
    std::vector<std::string> dets;
    bool ok = true;
    for (const std::string& c : fd.determinants) {
      auto it = passthrough.find(c);
      if (it == passthrough.end()) {
        ok = false;
        break;
      }
      dets.push_back(it->second);
    }
    if (!ok) continue;
    std::vector<std::string> deps;
    for (const std::string& d : fd.dependents) {
      auto it = passthrough.find(d);
      if (it != passthrough.end()) deps.push_back(it->second);
    }
    if (!deps.empty()) props.AddFd(std::move(dets), std::move(deps));
  }
  if (!options.groupby_keys) return props;
  props.AddUniqueSet(group_names);
  // Also state the key under the select-list aliases, so a projection that
  // keeps only aliases still sees it (e.g. "select l_orderkey, sum(q) ...
  // group by l_orderkey" projected to the bare alias). Two variants cover
  // the common shapes without a combinatorial blow-up: one alias
  // substituted at a time, and every group column replaced by its first
  // alias at once.
  for (const auto& [group_name, names] : aliases) {
    for (const std::string& alias : names) {
      std::vector<std::string> key;
      for (const std::string& g : group_names) {
        key.push_back(g == group_name ? alias : g);
      }
      props.AddUniqueSet(std::move(key));
    }
  }
  if (!aliases.empty()) {
    std::vector<std::string> aliased;
    for (const std::string& g : group_names) {
      auto it = aliases.find(g);
      aliased.push_back(it != aliases.end() ? it->second[0] : g);
    }
    props.AddUniqueSet(std::move(aliased));
  }
  if (options.const_pinning) ReduceSetsByConstants(&props);
  return props;
}

InferredProps InferUnionAll(const UnionAllOp& u,
                            const std::vector<InferredProps>& children,
                            const std::vector<std::vector<std::string>>&
                                child_names,
                            const InferOptions& options) {
  InferredProps props;
  props.empty_relation = true;
  for (const InferredProps& child : children) {
    props.empty_relation = props.empty_relation && child.empty_relation;
    // Scan ids are branch-local, so per-scan pins merge soundly: the pin
    // claim quantifies over rows of that one scan instance.
    for (const auto& [sid, pins] : child.source_pins) {
      for (const auto& [bc, v] : pins) {
        props.source_pins[sid].emplace(bc, v);
      }
    }
  }
  size_t arity = u.output_names().size();
  size_t n_children = children.size();

  std::vector<bool> all_pin_distinct(arity, false);
  for (size_t p = 0; p < arity; ++p) {
    const std::string& out_name = u.output_names()[p];
    // NULL-ability: non-NULL iff non-NULL in every branch.
    bool all_not_null = true;
    for (size_t c = 0; c < n_children; ++c) {
      if (children[c].not_null.count(child_names[c][p]) == 0) {
        all_not_null = false;
        break;
      }
    }
    if (all_not_null) props.not_null.insert(out_name);
    // Constant agreement.
    bool all_const = true, all_same = true, all_distinct = true;
    std::vector<Value> vals;
    for (size_t c = 0; c < n_children; ++c) {
      auto it = children[c].constants.find(child_names[c][p]);
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
    // Source agreement: the union is table-like when every branch feeds
    // the position from the same base column (and, without a declared
    // logical table, the same base table). The union node itself becomes
    // the source — branch scan ids would wrongly conflate instances.
    bool have_all = true;
    std::string column;
    std::string table;
    bool same_table = true;
    bool null_extended = false;
    for (size_t c = 0; c < n_children; ++c) {
      auto it = children[c].sources.find(child_names[c][p]);
      const ValueSource* direct = nullptr;
      if (it != children[c].sources.end()) {
        for (const ValueSource& src : it->second) {
          if (!src.via_equality) {
            direct = &src;
            break;
          }
        }
        if (direct == nullptr && !it->second.empty()) direct = &it->second[0];
      }
      if (direct == nullptr) {
        have_all = false;
        break;
      }
      null_extended |= direct->null_extended;
      if (c == 0) {
        column = direct->column;
        table = direct->table;
      } else {
        if (direct->column != column) have_all = false;
        if (direct->table != table) same_table = false;
      }
    }
    if (have_all) {
      ValueSource source;
      source.source_id = u.id();
      source.column = column;
      source.null_extended = null_extended;
      if (!u.logical_table().empty()) {
        source.table = ToLower(u.logical_table());
        props.AddSource(out_name, std::move(source));
      } else if (same_table) {
        source.table = table;
        props.AddSource(out_name, std::move(source));
      }
    }
  }

  // Branch-id positions: explicit, or pinned pairwise-distinct (Fig. 12(b)).
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

  // FD branch intersection: an FD holding positionally in every branch
  // holds across the union once a branch discriminator joins the
  // determinants (rows from different branches then never agree on them).
  if (!branch_positions.empty()) {
    std::map<std::string, size_t> pos0;
    for (size_t p = 0; p < arity; ++p) pos0[child_names[0][p]] = p;
    for (const FunctionalDep& fd : children[0].fds) {
      std::vector<size_t> det_pos, dep_pos;
      bool ok = true;
      for (const std::string& c : fd.determinants) {
        auto it = pos0.find(c);
        if (it == pos0.end()) {
          ok = false;
          break;
        }
        det_pos.push_back(it->second);
      }
      if (!ok) continue;
      for (const std::string& d : fd.dependents) {
        auto it = pos0.find(d);
        if (it != pos0.end()) dep_pos.push_back(it->second);
      }
      if (dep_pos.empty()) continue;
      for (size_t c = 1; c < n_children && ok; ++c) {
        std::set<std::string> dets;
        for (size_t p : det_pos) dets.insert(child_names[c][p]);
        for (size_t p : dep_pos) {
          if (!children[c].FdHolds(dets, child_names[c][p])) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) continue;
      std::vector<std::string> dets, deps;
      for (size_t p : det_pos) dets.push_back(u.output_names()[p]);
      dets.push_back(u.output_names()[branch_positions[0]]);
      for (size_t p : dep_pos) deps.push_back(u.output_names()[p]);
      props.AddFd(std::move(dets), std::move(deps));
    }
  }

  if (!options.keys_through_union_all) return props;

  // Candidate sets: unique sets of child 0 (mapped to union names) that are
  // unique in every child.
  std::vector<std::vector<std::string>> candidates;
  for (const std::vector<std::string>& key : children[0].unique_sets) {
    std::vector<size_t> positions;
    bool ok = true;
    for (const std::string& col : key) {
      auto it = std::find(child_names[0].begin(), child_names[0].end(), col);
      if (it == child_names[0].end()) {
        ok = false;
        break;
      }
      positions.push_back(
          static_cast<size_t>(std::distance(child_names[0].begin(), it)));
    }
    if (!ok) continue;
    for (size_t c = 1; c < n_children && ok; ++c) {
      std::set<std::string> as_set;
      for (size_t p : positions) as_set.insert(child_names[c][p]);
      if (!children[c].UniqueOn(as_set)) ok = false;
    }
    if (!ok) continue;
    std::vector<std::string> union_key;
    for (size_t p : positions) union_key.push_back(u.output_names()[p]);
    candidates.push_back(std::move(union_key));
  }
  if (candidates.empty()) return props;

  // (a) Branch-id sets: candidate ∪ {branch column} is unique (Fig. 12(b)).
  for (size_t bp : branch_positions) {
    for (const std::vector<std::string>& key : candidates) {
      std::vector<std::string> with_branch = key;
      if (std::find(with_branch.begin(), with_branch.end(),
                    u.output_names()[bp]) == with_branch.end()) {
        with_branch.push_back(u.output_names()[bp]);
      }
      props.AddUniqueSet(std::move(with_branch));
    }
  }

  // (b) Disjoint-subset sets (Fig. 12(a)): children of one base table made
  // disjoint by pairwise-distinct pins on a common base column.
  if (n_children > 1) {
    for (const std::vector<std::string>& key : candidates) {
      bool same_source_table = true;
      for (const std::string& col : key) {
        const ValueSource* src = nullptr;
        auto it = props.sources.find(col);
        if (it != props.sources.end() && !it->second.empty()) {
          src = &it->second[0];
        }
        if (src == nullptr ||
            (!u.logical_table().empty() &&
             src->table == ToLower(u.logical_table()))) {
          // Logical-table unions mix base tables; branch-id path covers
          // those.
          same_source_table = src != nullptr && u.logical_table().empty();
          if (!same_source_table) break;
        }
      }
      if (!same_source_table) continue;
      std::vector<std::map<std::string, Value>> pins(n_children);
      for (size_t c = 0; c < n_children; ++c) {
        for (const auto& [col, val] : children[c].constants) {
          auto sit = children[c].sources.find(col);
          if (sit == children[c].sources.end()) continue;
          for (const ValueSource& src : sit->second) {
            if (!src.null_extended) {
              pins[c].emplace(src.table + "." + src.column, val);
            }
          }
        }
        for (const auto& [key_str, val] : children[c].base_constants) {
          pins[c].emplace(key_str, val);
        }
      }
      bool disjoint = false;
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
      if (disjoint) props.AddUniqueSet(key);
    }
  }
  return props;
}

}  // namespace

bool InferredProps::UniqueOn(const std::set<std::string>& columns) const {
  if (empty_relation || at_most_one_row) return true;
  for (const std::vector<std::string>& key : unique_sets) {
    if (Subset(key, columns)) return true;
  }
  return false;
}

bool InferredProps::IsNotNull(const std::string& column) const {
  return not_null.count(column) > 0;
}

bool InferredProps::FdHolds(const std::set<std::string>& determinants,
                            const std::string& dependent) const {
  if (determinants.count(dependent) > 0) return true;
  if (constants.count(dependent) > 0) return true;
  if (UniqueOn(determinants)) return true;
  for (const FunctionalDep& fd : fds) {
    if (!Subset(fd.determinants, determinants)) continue;
    if (std::find(fd.dependents.begin(), fd.dependents.end(), dependent) !=
        fd.dependents.end()) {
      return true;
    }
  }
  return false;
}

const ValueSource* InferredProps::FindSource(
    const std::string& column, const std::string& table,
    const std::string& base_column) const {
  auto it = sources.find(column);
  if (it == sources.end()) return nullptr;
  for (const ValueSource& src : it->second) {
    if (!src.null_extended && src.table == table &&
        src.column == base_column) {
      return &src;
    }
  }
  return nullptr;
}

const Value* InferredProps::PinOf(uint64_t source_id,
                                  const std::string& base_column) const {
  auto it = source_pins.find(source_id);
  if (it == source_pins.end()) return nullptr;
  auto pit = it->second.find(base_column);
  return pit == it->second.end() ? nullptr : &pit->second;
}

const ValueSource* InferredProps::DirectSource(
    const std::string& column) const {
  auto it = sources.find(column);
  if (it == sources.end()) return nullptr;
  for (const ValueSource& src : it->second) {
    if (!src.via_equality) return &src;
  }
  return nullptr;
}

void InferredProps::AddUniqueSet(std::vector<std::string> columns) {
  columns = Sorted(std::move(columns));
  for (const std::vector<std::string>& existing : unique_sets) {
    if (existing == columns) return;
  }
  if (unique_sets.size() < kMaxSetsPerNode) {
    unique_sets.push_back(std::move(columns));
  }
}

void InferredProps::AddFd(std::vector<std::string> determinants,
                          std::vector<std::string> dependents) {
  determinants = Sorted(std::move(determinants));
  dependents = Sorted(std::move(dependents));
  for (FunctionalDep& existing : fds) {
    if (existing.determinants == determinants) {
      std::vector<std::string> merged = existing.dependents;
      merged.insert(merged.end(), dependents.begin(), dependents.end());
      existing.dependents = Sorted(std::move(merged));
      return;
    }
  }
  if (fds.size() < kMaxFdsPerNode) {
    fds.push_back({std::move(determinants), std::move(dependents)});
  }
}

void InferredProps::AddSource(const std::string& column, ValueSource source) {
  std::vector<ValueSource>& list = sources[column];
  for (const ValueSource& existing : list) {
    if (existing.source_id == source.source_id &&
        existing.column == source.column &&
        existing.null_extended == source.null_extended) {
      return;
    }
  }
  if (list.size() < kMaxSetsPerNode) list.push_back(std::move(source));
}

std::string InferredProps::ToString() const {
  std::string out = "unique={";
  std::vector<std::string> rendered;
  for (const std::vector<std::string>& key : unique_sets) {
    rendered.push_back(Join(key, ","));
  }
  std::sort(rendered.begin(), rendered.end());
  out += Join(rendered, "; ");
  out += "} fds={";
  rendered.clear();
  for (const FunctionalDep& fd : fds) {
    rendered.push_back(Join(fd.determinants, ",") + "->" +
                       Join(fd.dependents, ","));
  }
  std::sort(rendered.begin(), rendered.end());
  out += Join(rendered, "; ");
  out += "} notnull={";
  out += Join(std::vector<std::string>(not_null.begin(), not_null.end()), ",");
  out += "} consts={";
  bool first = true;
  for (const auto& [col, val] : constants) {
    if (!first) out += "; ";
    first = false;
    out += col + "=" + val.ToString();
  }
  out += "}";
  if (empty_relation) out += " EMPTY";
  if (at_most_one_row) out += " AT-MOST-ONE-ROW";
  return out;
}

InferenceEngine::InferenceEngine(InferOptions options) : options_(options) {}

const InferredProps& InferenceEngine::Infer(const PlanRef& plan) {
  auto it = cache_.find(plan.get());
  if (it != cache_.end()) {
    ++reused_;
    return it->second.props;
  }
  ++computed_;
  InferredProps props = Compute(plan);
  return cache_.emplace(plan.get(), Entry{plan, std::move(props)})
      .first->second.props;
}

JoinAnalysis InferenceEngine::Analyze(const JoinOp& join) {
  const InferredProps& left = Infer(join.left());
  const InferredProps& right = Infer(join.right());
  return AnalyzeJoin(join, left, right, options_);
}

InferredProps InferenceEngine::Compute(const PlanRef& plan) {
  switch (plan->kind()) {
    case OpKind::kScan:
      return InferScan(static_cast<const ScanOp&>(*plan), options_);
    case OpKind::kFilter: {
      const auto& filter = static_cast<const FilterOp&>(*plan);
      InferredProps props = Infer(plan->child(0));
      ApplyPredicate(filter.predicate(), options_, &props);
      return props;
    }
    case OpKind::kProject:
      return InferProject(static_cast<const ProjectOp&>(*plan),
                          Infer(plan->child(0)), options_);
    case OpKind::kJoin: {
      const auto& join = static_cast<const JoinOp&>(*plan);
      const InferredProps& left = Infer(join.left());
      const InferredProps& right = Infer(join.right());
      bool left_outer = join.join_type() == JoinType::kLeftOuter;
      bool exact_one_declared =
          options_.trust_declared_cardinality &&
          join.declared_cardinality() == DeclaredCardinality::kExactOne;
      // With a trusted exact-one declaration every left row matches, so
      // the LEFT JOIN never null-extends and behaves like an inner join
      // for property purposes (§7.3).
      bool null_extending = left_outer && !exact_one_declared;

      InferredProps props;
      props.empty_relation =
          left.empty_relation || (!left_outer && right.empty_relation);
      // Sources and NULL-ability.
      props.sources = left.sources;
      props.not_null = left.not_null;
      for (const auto& [col, list] : right.sources) {
        for (ValueSource src : list) {
          src.null_extended = src.null_extended || null_extending;
          props.AddSource(col, std::move(src));
        }
      }
      if (!null_extending) {
        props.not_null.insert(right.not_null.begin(), right.not_null.end());
      }
      // Constants and pins.
      props.constants = left.constants;
      props.source_pins = left.source_pins;
      props.base_constants = left.base_constants;
      if (!null_extending) {
        for (const auto& [col, val] : right.constants) {
          props.constants.emplace(col, val);
        }
      }
      // Right-side scan pins stay valid even across a null-extending
      // join: they quantify over surviving rows of the right scan, and a
      // null-padded output row has no right-scan row at all.
      for (const auto& [sid, pins] : right.source_pins) {
        for (const auto& [bc, v] : pins) {
          props.source_pins[sid].emplace(bc, v);
        }
      }
      for (const auto& [key_str, val] : right.base_constants) {
        props.base_constants.emplace(key_str, val);
      }
      // FDs carry from both sides (left rows replicate; right rows only
      // lose rows on the inner side — FDs are closed under row removal.
      // On the null-extending side, rows agreeing on determinants are
      // either both matched by the same left row pattern or the FD could
      // break through padding, so require non-null determinants there).
      for (const FunctionalDep& fd : left.fds) {
        props.AddFd(fd.determinants, fd.dependents);
      }
      for (const FunctionalDep& fd : right.fds) {
        if (null_extending) {
          bool dets_not_null = true;
          for (const std::string& d : fd.determinants) {
            if (right.not_null.count(d) == 0) {
              dets_not_null = false;
              break;
            }
          }
          if (!dets_not_null) continue;
        }
        props.AddFd(fd.determinants, fd.dependents);
      }

      const JoinAnalysis analysis = AnalyzeJoin(join, left, right, options_);

      // An inner (or trusted exact-one) condition filters the output like
      // a WHERE: pins, NULL rejection, and equality provenance apply.
      if (!null_extending) {
        ApplyPredicate(join.condition(), options_, &props);
      }

      // §7.3 many-to-one FD edge: with a pure equi condition and at most
      // one right match per join-column value, the left join columns
      // determine every right output (matched rows share the single
      // right row; on a null-extending join, agreeing NULL join columns
      // mean both rows are unmatched, i.e. all-NULL right side).
      if (analysis.right_at_most_one && analysis.pure_equi &&
          !analysis.equi_pairs.empty()) {
        std::vector<std::string> dets;
        for (const auto& [l, r] : analysis.equi_pairs) dets.push_back(l);
        props.AddFd(std::move(dets), join.right()->OutputNames());
      }

      // A single row is a key fact: it crosses the join only where keys do.
      props.at_most_one_row = options_.keys_through_joins &&
                              left.at_most_one_row &&
                              analysis.right_at_most_one;

      // Unique sets.
      if (options_.keys_through_joins) {
        if (analysis.right_at_most_one) {
          for (const std::vector<std::string>& key : left.unique_sets) {
            props.AddUniqueSet(key);
          }
        }
        if (!left_outer) {
          // Flipped: the left side matches at most once against right
          // unique sets covered by equated/pinned left columns.
          std::set<std::string> equated_left;
          for (const auto& [l, r] : analysis.equi_pairs) {
            equated_left.insert(l);
          }
          for (const auto& [col, val] : left.constants) {
            equated_left.insert(col);
          }
          if (left.UniqueOn(equated_left)) {
            for (const std::vector<std::string>& key : right.unique_sets) {
              props.AddUniqueSet(key);
            }
          }
        }
        size_t added = 0;
        for (const std::vector<std::string>& lk : left.unique_sets) {
          for (const std::vector<std::string>& rk : right.unique_sets) {
            if (added >= 4) break;
            std::vector<std::string> combined = lk;
            combined.insert(combined.end(), rk.begin(), rk.end());
            props.AddUniqueSet(std::move(combined));
            ++added;
          }
          if (added >= 4) break;
        }
      }
      if (options_.const_pinning) ReduceSetsByConstants(&props);
      return props;
    }
    case OpKind::kAggregate:
      return InferAggregate(static_cast<const AggregateOp&>(*plan),
                            Infer(plan->child(0)), options_);
    case OpKind::kUnionAll: {
      const auto& u = static_cast<const UnionAllOp&>(*plan);
      std::vector<InferredProps> children;
      std::vector<std::vector<std::string>> names;
      for (const PlanRef& child : plan->children()) {
        children.push_back(Infer(child));
        names.push_back(child->OutputNames());
      }
      return InferUnionAll(u, children, names, options_);
    }
    case OpKind::kSort:
    case OpKind::kLimit: {
      InferredProps props = Infer(plan->child(0));
      // Key facts (unique sets, a single row) cross ORDER BY / LIMIT only
      // with keys_through_order_limit (UAJ 1b).
      const bool keys = options_.keys_through_order_limit;
      if (!keys) {
        props.unique_sets.clear();
        props.at_most_one_row = false;
      }
      if (plan->kind() == OpKind::kLimit) {
        const auto& limit = static_cast<const LimitOp&>(*plan);
        if (limit.limit() == 0) props.empty_relation = true;
        if (limit.limit() <= 1 && keys) props.at_most_one_row = true;
      }
      return props;
    }
    case OpKind::kDistinct: {
      InferredProps props = Infer(plan->child(0));
      props.AddUniqueSet(plan->OutputNames());
      return props;
    }
  }
  return InferredProps{};
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
    const InferredProps& left) {
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
      auto pinned = left.constants.find(l);
      implied |= r == cc->column && pinned != left.constants.end() &&
                 pinned->second == cc->value;
    }
    if (!implied) return nullptr;
  }
  return static_cast<const ScanOp*>(right->child(0).get());
}

/// AJ 1a: every equi pair runs from an un-null-extended column of one left
/// scan to the referenced scan, along a declared foreign key whose columns
/// are all NOT NULL — so every left row finds its referenced row.
bool ForeignKeyMatch(const JoinOp& join, const ScanOp& right_scan,
                     const std::vector<std::pair<std::string, std::string>>&
                         equi_pairs,
                     const InferredProps& left, const InferredProps& right) {
  uint64_t left_source = 0;
  std::vector<std::string> fk_cols, ref_cols;
  for (const auto& [l, r] : equi_pairs) {
    const ValueSource* ls = left.DirectSource(l);
    const ValueSource* rs = right.DirectSource(r);
    if (ls == nullptr || rs == nullptr || ls->null_extended) return false;
    if (left_source == 0) {
      left_source = ls->source_id;
    } else if (left_source != ls->source_id) {
      return false;
    }
    fk_cols.push_back(ls->column);
    ref_cols.push_back(rs->column);
  }
  if (left_source == 0) return false;
  std::shared_ptr<const ScanOp> left_scan =
      FindScanById(join.left(), left_source);
  if (!left_scan) return false;
  const TableSchema& schema = left_scan->table_schema();
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    if (!EqualsIgnoreCase(fk.referenced_table, right_scan.table_name()) ||
        fk.columns.size() != fk_cols.size()) {
      continue;
    }
    // Match columns as unordered pairs.
    bool all_match = true;
    for (size_t i = 0; i < fk_cols.size() && all_match; ++i) {
      bool found = false;
      for (size_t j = 0; j < fk.columns.size(); ++j) {
        if (EqualsIgnoreCase(fk.columns[j], fk_cols[i]) &&
            EqualsIgnoreCase(fk.referenced_columns[j], ref_cols[i])) {
          found = true;
          break;
        }
      }
      all_match = found;
    }
    // FK columns must be NOT NULL for a guaranteed match.
    for (size_t i = 0; i < fk.columns.size() && all_match; ++i) {
      int idx = schema.FindColumn(fk.columns[i]);
      all_match = idx >= 0 && !schema.column(static_cast<size_t>(idx)).nullable;
    }
    if (all_match) return true;
  }
  return false;
}

}  // namespace

JoinAnalysis AnalyzeJoin(const JoinOp& join, const InferredProps& left,
                         const InferredProps& right,
                         const InferOptions& options) {
  JoinAnalysis analysis;
  std::vector<std::string> left_names = join.left()->OutputNames();
  std::vector<std::string> right_names = join.right()->OutputNames();
  std::set<std::string> left_set(left_names.begin(), left_names.end());
  std::set<std::string> right_set(right_names.begin(), right_names.end());

  std::set<std::string> covered;  // equated or pinned right columns
  for (const auto& [col, val] : right.constants) covered.insert(col);
  for (const ExprRef& conjunct : SplitConjuncts(join.condition())) {
    if (IsAlwaysTrue(conjunct)) continue;
    std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct);
    if (pair.has_value()) {
      if (left_set.count(pair->left) && right_set.count(pair->right)) {
        analysis.equi_pairs.emplace_back(pair->left, pair->right);
        covered.insert(pair->right);
        continue;
      }
      if (left_set.count(pair->right) && right_set.count(pair->left)) {
        analysis.equi_pairs.emplace_back(pair->right, pair->left);
        covered.insert(pair->left);
        continue;
      }
      analysis.pure_equi = false;
      continue;
    }
    std::optional<ColumnConstant> cc = MatchColumnEqConstant(conjunct);
    if (cc.has_value() && right_set.count(cc->column) &&
        options.const_pinning) {
      covered.insert(cc->column);
      continue;
    }
    analysis.pure_equi = false;
  }

  // Declared cardinality (§7.3) — trusted, not enforced.
  if (options.trust_declared_cardinality &&
      join.declared_cardinality() != DeclaredCardinality::kNone) {
    analysis.right_at_most_one = true;
    analysis.right_exactly_one =
        join.declared_cardinality() == DeclaredCardinality::kExactOne;
  }
  // AJ 2b (an empty augmenter: zero matches is "at most one") and AJ 2a
  // (equated/pinned right columns cover a unique set).
  if (!analysis.right_at_most_one) {
    analysis.right_at_most_one = right.UniqueOn(covered);
  }

  // AJ 1a: an inner equi-join over a foreign key matches exactly once.
  if (!analysis.right_exactly_one && analysis.pure_equi &&
      !analysis.equi_pairs.empty() &&
      join.join_type() == JoinType::kInner && analysis.right_at_most_one) {
    const ScanOp* right_scan =
        ReferencedScan(join.right(), analysis.equi_pairs, left);
    analysis.right_exactly_one =
        right_scan != nullptr &&
        ForeignKeyMatch(join, *right_scan, analysis.equi_pairs, left, right);
  }

  bool left_outer = join.join_type() == JoinType::kLeftOuter;
  analysis.purely_augmenting =
      (left_outer && analysis.right_at_most_one) ||
      (!left_outer && analysis.right_exactly_one);
  return analysis;
}

std::optional<SimpleRelation> ExtractSimpleRelation(const PlanRef& plan) {
  if (plan->kind() == OpKind::kScan) {
    auto scan = std::static_pointer_cast<const ScanOp>(plan);
    SimpleRelation rel;
    rel.scan = scan;
    for (size_t i = 0; i < scan->column_indexes().size(); ++i) {
      size_t schema_idx = scan->column_indexes()[i];
      rel.out_to_base[scan->QualifiedName(schema_idx)] =
          ToLower(scan->table_schema().column(schema_idx).name);
    }
    return rel;
  }
  if (plan->kind() == OpKind::kFilter) {
    const auto& filter = static_cast<const FilterOp&>(*plan);
    std::optional<SimpleRelation> rel = ExtractSimpleRelation(plan->child(0));
    if (!rel.has_value()) return std::nullopt;
    for (const ExprRef& conjunct : SplitConjuncts(filter.predicate())) {
      bool ok = true;
      ExprRef base_form =
          RemapColumns(conjunct, [&](const std::string& name) -> ExprRef {
            auto it = rel->out_to_base.find(name);
            if (it != rel->out_to_base.end()) return Col(it->second);
            auto lit = rel->out_literals.find(name);
            if (lit != rel->out_literals.end()) return Lit(lit->second);
            ok = false;
            return nullptr;
          });
      if (!ok) return std::nullopt;
      rel->base_preds.push_back(std::move(base_form));
    }
    return rel;
  }
  if (plan->kind() == OpKind::kProject) {
    const auto& project = static_cast<const ProjectOp&>(*plan);
    std::optional<SimpleRelation> rel = ExtractSimpleRelation(plan->child(0));
    if (!rel.has_value()) return std::nullopt;
    std::map<std::string, std::string> mapped;
    std::map<std::string, Value> literals;
    for (const ProjectOp::Item& item : project.items()) {
      if (item.expr->kind() == ExprKind::kLiteral) {
        literals[item.name] =
            static_cast<const LiteralExpr&>(*item.expr).value();
        continue;
      }
      if (item.expr->kind() != ExprKind::kColumnRef) return std::nullopt;
      const std::string& child_name =
          static_cast<const ColumnRefExpr&>(*item.expr).name();
      auto it = rel->out_to_base.find(child_name);
      if (it != rel->out_to_base.end()) {
        mapped[item.name] = it->second;
        continue;
      }
      auto lit = rel->out_literals.find(child_name);
      if (lit != rel->out_literals.end()) {
        literals[item.name] = lit->second;
        continue;
      }
      return std::nullopt;
    }
    rel->out_to_base = std::move(mapped);
    rel->out_literals = std::move(literals);
    return rel;
  }
  return std::nullopt;
}

bool TableKeyCovered(const TableSchema& schema,
                     const std::set<std::string>& covered_base_columns,
                     const InferOptions& options) {
  for (const UniqueKeyDef& key : schema.unique_keys()) {
    if (!key.enforced && !options.trust_declared_cardinality) continue;
    bool all = true;
    for (const std::string& kc : key.columns) {
      if (covered_base_columns.count(ToLower(kc)) == 0) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

std::set<std::string> NullRejectedColumns(const ExprRef& predicate) {
  switch (predicate->kind()) {
    case ExprKind::kColumnRef:
      // A bare boolean column: TRUE requires non-NULL.
      return {static_cast<const ColumnRefExpr&>(*predicate).name()};
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*predicate);
      if (bin.op() == BinaryOpKind::kAnd) {
        std::set<std::string> cols = NullRejectedColumns(bin.left());
        std::set<std::string> right = NullRejectedColumns(bin.right());
        cols.insert(right.begin(), right.end());
        return cols;
      }
      if (bin.op() == BinaryOpKind::kOr) {
        std::set<std::string> left = NullRejectedColumns(bin.left());
        std::set<std::string> right = NullRejectedColumns(bin.right());
        std::set<std::string> both;
        for (const std::string& c : left) {
          if (right.count(c) > 0) both.insert(c);
        }
        return both;
      }
      // Comparison or arithmetic-in-boolean position: TRUE needs both
      // operands non-NULL, which needs their strict columns non-NULL.
      std::set<std::string> cols = StrictNullColumns(bin.left());
      std::set<std::string> right = StrictNullColumns(bin.right());
      cols.insert(right.begin(), right.end());
      return cols;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(*predicate);
      if (u.op() == UnaryOpKind::kNot) {
        // NOT e is TRUE iff e is FALSE; a strict column being NULL makes
        // e NULL, never FALSE.
        return StrictNullColumns(u.operand());
      }
      return StrictNullColumns(predicate);
    }
    case ExprKind::kIsNull: {
      const auto& is_null = static_cast<const IsNullExpr&>(*predicate);
      if (is_null.negated()) return StrictNullColumns(is_null.operand());
      return {};
    }
    default:
      return {};
  }
}

}  // namespace vdm

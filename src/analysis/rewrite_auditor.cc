#include "analysis/rewrite_auditor.h"

#include <algorithm>
#include <set>

#include "analysis/plan_verifier.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "expr/fold.h"
#include "plan/plan_printer.h"

namespace vdm {

namespace {

using NameSet = std::set<std::string>;

NameSet ToSet(const std::vector<std::string>& names) {
  return NameSet(names.begin(), names.end());
}

bool Confirm(const PlanRef& plan, const NameSet& key,
             const InferOptions& d);

/// At-most-one-match proof for one side of a join: the other side's row
/// determines (via equi pairs) or the condition pins (via col = const)
/// enough columns to cover a unique key of `side`.
bool SideAtMostOne(const PlanRef& side, const NameSet& side_names,
                   const std::vector<ExprRef>& conjuncts, bool side_is_right,
                   const NameSet& other_names, const InferOptions& d) {
  NameSet determined;
  for (const ExprRef& conjunct : conjuncts) {
    if (std::optional<ColumnPair> pair = MatchColumnEqColumn(conjunct)) {
      if (side_names.count(pair->left) > 0 &&
          other_names.count(pair->right) > 0) {
        determined.insert(pair->left);
      } else if (side_names.count(pair->right) > 0 &&
                 other_names.count(pair->left) > 0) {
        determined.insert(pair->right);
      }
    } else if (std::optional<ColumnConstant> pin =
                   MatchColumnEqConstant(conjunct)) {
      if (side_names.count(pin->column) > 0) determined.insert(pin->column);
    }
  }
  (void)side_is_right;
  if (determined.empty()) return false;
  return Confirm(side, determined, d);
}

bool ConfirmScan(const ScanOp& scan, const NameSet& key,
                 const InferOptions& d) {
  if (!d.base_table_keys) return false;
  for (const UniqueKeyDef& uk : scan.table_schema().unique_keys()) {
    if (!uk.enforced && !d.trust_declared_cardinality) continue;
    bool covered = !uk.columns.empty();
    for (const std::string& column : uk.columns) {
      if (key.count(scan.alias() + "." + column) == 0) {
        covered = false;
        break;
      }
    }
    if (covered) return true;
  }
  return false;
}

bool ConfirmJoin(const JoinOp& join, const NameSet& key,
                 const InferOptions& d) {
  const NameSet left_names = ToSet(join.left()->OutputNames());
  const NameSet right_names = ToSet(join.right()->OutputNames());
  const std::vector<ExprRef> conjuncts = SplitConjuncts(join.condition());

  const bool declared_at_most_one =
      d.trust_declared_cardinality &&
      join.declared_cardinality() != DeclaredCardinality::kNone;
  auto right_at_most_one = [&] {
    return declared_at_most_one ||
           SideAtMostOne(join.right(), right_names, conjuncts,
                         /*side_is_right=*/true, left_names, d);
  };
  auto left_at_most_one = [&] {
    return SideAtMostOne(join.left(), left_names, conjuncts,
                         /*side_is_right=*/false, right_names, d);
  };

  NameSet key_left, key_right;
  for (const std::string& name : key) {
    bool in_left = left_names.count(name) > 0;
    bool in_right = right_names.count(name) > 0;
    if (in_left == in_right) return false;  // unresolved or ambiguous
    (in_left ? key_left : key_right).insert(name);
  }

  // Key entirely from the left: sound when each left row matches at most
  // one right row (both join types: matches duplicate nothing, left outer
  // null-extension adds at most one row per left row).
  if (key_right.empty()) {
    return Confirm(join.left(), key_left, d) && right_at_most_one();
  }
  // Mirror case; only sound for inner joins (left outer null-extends
  // unmatched left rows, giving repeated all-NULL right-side key tuples).
  if (key_left.empty()) {
    return join.join_type() == JoinType::kInner &&
           Confirm(join.right(), key_right, d) && left_at_most_one();
  }
  // Split key: (unique left part, unique right part) identifies the pair.
  return Confirm(join.left(), key_left, d) &&
         Confirm(join.right(), key_right, d);
}

bool ConfirmUnion(const UnionAllOp& u, const NameSet& key,
                  const InferOptions& d) {
  const std::vector<std::string>& names = u.output_names();
  // Map the key positionally into each child's namespace.
  auto mapped_key = [&](const PlanRef& child) {
    NameSet out;
    std::vector<std::string> child_names = child->OutputNames();
    for (size_t i = 0; i < names.size(); ++i) {
      if (key.count(names[i]) > 0) out.insert(child_names[i]);
    }
    return out;
  };
  if (u.NumChildren() == 1) {
    return Confirm(u.child(0), mapped_key(u.child(0)), d);
  }
  // Multiple branches: only the branch-id discriminator argument is
  // reproduced here (Fig. 12(b)); disjoint-branch certificates are left to
  // the data-backed check.
  if (u.branch_id_column() < 0) return false;
  const std::string& branch_col =
      names[static_cast<size_t>(u.branch_id_column())];
  if (key.count(branch_col) == 0) return false;
  for (const PlanRef& child : u.children()) {
    if (!Confirm(child, mapped_key(child), d)) return false;
  }
  return true;
}

bool Confirm(const PlanRef& plan, const NameSet& key,
             const InferOptions& d) {
  switch (plan->kind()) {
    case OpKind::kScan:
      if (key.empty()) return false;
      return ConfirmScan(static_cast<const ScanOp&>(*plan), key, d);
    case OpKind::kFilter: {
      const auto& filter = static_cast<const FilterOp&>(*plan);
      NameSet extended = key;
      if (d.const_pinning) {
        // Columns pinned to a constant may be added: all surviving rows
        // agree on them, so key ∪ pinned unique below implies key unique
        // here.
        for (const ExprRef& conjunct : SplitConjuncts(filter.predicate())) {
          if (std::optional<ColumnConstant> pin =
                  MatchColumnEqConstant(conjunct)) {
            extended.insert(pin->column);
          }
        }
      }
      return Confirm(plan->child(0), extended, d);
    }
    case OpKind::kProject: {
      const auto& project = static_cast<const ProjectOp&>(*plan);
      NameSet mapped;
      for (const std::string& name : key) {
        const ProjectOp::Item* item = nullptr;
        for (const ProjectOp::Item& candidate : project.items()) {
          if (candidate.name == name) {
            item = &candidate;
            break;
          }
        }
        if (item == nullptr) return false;
        if (item->expr->kind() == ExprKind::kColumnRef) {
          mapped.insert(
              static_cast<const ColumnRefExpr&>(*item->expr).name());
        } else if (item->expr->kind() == ExprKind::kLiteral) {
          // A constant column contributes nothing to uniqueness; drop it.
        } else {
          return false;
        }
      }
      if (mapped.empty()) return false;
      return Confirm(plan->child(0), mapped, d);
    }
    case OpKind::kJoin:
      if (key.empty()) return false;
      return ConfirmJoin(static_cast<const JoinOp&>(*plan), key, d);
    case OpKind::kAggregate: {
      const auto& agg = static_cast<const AggregateOp&>(*plan);
      if (agg.group_by().empty()) return true;  // at most one row
      for (const AggregateOp::GroupItem& item : agg.group_by()) {
        if (key.count(item.name) == 0) return false;
      }
      return true;
    }
    case OpKind::kUnionAll:
      if (key.empty()) return false;
      return ConfirmUnion(static_cast<const UnionAllOp&>(*plan), key, d);
    case OpKind::kSort:
    case OpKind::kLimit:
      // Sort is 1:1, limit selects a subset; both preserve uniqueness.
      return Confirm(plan->child(0), key, d);
    case OpKind::kDistinct: {
      NameSet all = ToSet(plan->OutputNames());
      bool covers_all = true;
      for (const std::string& name : all) {
        if (key.count(name) == 0) {
          covers_all = false;
          break;
        }
      }
      if (covers_all) return true;
      return Confirm(plan->child(0), key, d);
    }
  }
  return false;
}

bool HasLimit(const PlanRef& plan) {
  bool found = false;
  VisitPlan(plan, [&](const PlanRef& node) {
    if (node->kind() == OpKind::kLimit) found = true;
  });
  return found;
}

std::vector<std::string> RenderRows(const Chunk& chunk) {
  std::vector<std::string> rows;
  rows.reserve(chunk.NumRows());
  for (size_t r = 0; r < chunk.NumRows(); ++r) {
    std::string row;
    for (size_t c = 0; c < chunk.NumColumns(); ++c) {
      row += chunk.columns[c].GetValue(r).ToString();
      row += '\x1f';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Validates a claimed unique key against actual rows; NULL-containing key
/// tuples are skipped (SQL uniqueness ignores NULLs).
Status CheckKeyOnData(const Chunk& result,
                      const std::vector<std::string>& key) {
  std::vector<int> indexes;
  for (const std::string& column : key) {
    int idx = result.FindColumn(column);
    if (idx < 0) {
      return Status::Internal("derived key column '" + column +
                              "' missing from the executed result");
    }
    indexes.push_back(idx);
  }
  std::set<std::string> seen;
  for (size_t r = 0; r < result.NumRows(); ++r) {
    std::string tuple;
    bool has_null = false;
    for (int idx : indexes) {
      Value v = result.columns[static_cast<size_t>(idx)].GetValue(r);
      if (v.is_null()) {
        has_null = true;
        break;
      }
      tuple += v.ToString();
      tuple += '\x1f';
    }
    if (has_null) continue;
    if (!seen.insert(tuple).second) {
      return Status::InvalidArgument(
          "derived unique key {" + Join(key, ", ") +
          "} is violated by the data (duplicate key tuple at row " +
          std::to_string(r) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

int RewriteAuditor::total_fired() const {
  int total = 0;
  for (const auto& [name, count] : fired_) total += count;
  return total;
}

bool ConfirmUniqueKey(const PlanRef& plan,
                      const std::vector<std::string>& key,
                      const InferOptions& derivation) {
  return Confirm(plan, ToSet(key), derivation);
}

Status RewriteAuditor::AfterPass(const std::string& pass_name,
                                 const PlanRef& before,
                                 const PlanRef& after) {
  ++fired_[pass_name];
  Status failed = [&]() -> Status {
    VDM_RETURN_NOT_OK(PlanVerifier::Verify(after));
    VDM_RETURN_NOT_OK(PlanVerifier::VerifySameOutputSchema(before, after));

    // Cross-check the derived uniqueness properties with the independent
    // prover; unconfirmed claims are validated on data when available.
    InferenceEngine engine(options_.derivation);
    const InferredProps& props = engine.Infer(after);
    std::vector<std::vector<std::string>> unconfirmed;
    for (const std::vector<std::string>& key : props.unique_sets) {
      if (!ConfirmUniqueKey(after, key, options_.derivation)) {
        unconfirmed.push_back(key);
      }
    }
    if (options_.storage == nullptr) return Status::OK();

    Executor executor(options_.storage);
    Result<Chunk> was = executor.Execute(before);
    if (!was.ok()) {
      return Status(was.status().code(),
                    "pre-pass plan fails to execute: " +
                        was.status().message());
    }
    Result<Chunk> now = executor.Execute(after);
    if (!now.ok()) {
      return Status(now.status().code(),
                    "rewritten plan fails to execute: " +
                        now.status().message());
    }
    for (const std::vector<std::string>& key : unconfirmed) {
      VDM_RETURN_NOT_OK(CheckKeyOnData(*now, key));
    }
    if (HasLimit(before) || HasLimit(after)) {
      // LIMIT over unordered input makes row identity implementation-
      // defined; only the cardinality is contractual.
      if (was->NumRows() != now->NumRows()) {
        return Status::InvalidArgument(
            StrFormat("result cardinality changed: %zu -> %zu rows",
                      was->NumRows(), now->NumRows()));
      }
    } else if (RenderRows(*was) != RenderRows(*now)) {
      return Status::InvalidArgument(StrFormat(
          "result rows changed (%zu rows before, %zu after)", was->NumRows(),
          now->NumRows()));
    }
    return Status::OK();
  }();
  if (failed.ok()) return failed;
  return Status(failed.code(), failed.message() + "\n--- plan before ---\n" +
                                   PrintPlan(before) +
                                   "--- plan after ---\n" + PrintPlan(after));
}

}  // namespace vdm

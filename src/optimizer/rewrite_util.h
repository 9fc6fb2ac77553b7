// Structural rewrite helpers shared by the ASJ and general self-join
// elimination rules: node lookup, anchor-side predicate collection, and
// column exposure (widening interior projections so base columns of a
// source scan / union become available at the subtree root).
#ifndef VDMQO_OPTIMIZER_REWRITE_UTIL_H_
#define VDMQO_OPTIMIZER_REWRITE_UTIL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/infer/inference.h"
#include "plan/logical_plan.h"

namespace vdm {

PlanRef FindNodeById(const PlanRef& plan, uint64_t id);
bool ContainsNode(const PlanRef& plan, uint64_t id);

/// Collects every filter conjunct in the subtree whose references all pass
/// through, un-null-extended, from the given source node, rewritten to
/// bare base-column form (Fig. 10(c) subsumption input).
void CollectScanPredicates(const PlanRef& plan, uint64_t source_id,
                           InferenceEngine& engine, std::vector<ExprRef>* out);

struct Exposure {
  PlanRef plan;
  std::map<std::string, std::string> base_to_name;
};

/// Widens the subtree so the given base columns of the source node (a scan
/// or a table-like UNION ALL) are available at its root. Aggregations and
/// DISTINCT on the path block exposure.
std::optional<Exposure> ExposeColumns(const PlanRef& plan, uint64_t source_id,
                                      const std::vector<std::string>& base_cols,
                                      InferenceEngine& engine);

}  // namespace vdm

#endif  // VDMQO_OPTIMIZER_REWRITE_UTIL_H_

// Rewrite-soundness auditing: a PlanVerificationHook the optimizer driver
// calls after every pass that changed the plan (OptimizerConfig::
// verify_rewrites). Three layers of checking, in increasing cost:
//
//  1. PlanVerifier invariants on the rewritten plan, plus root-schema
//     identity against the pre-pass plan.
//  2. Key cross-check: every unique set the inference engine
//     (analysis/infer) claims for the root is re-derived by an independent,
//     deliberately conservative prover (ConfirmUniqueKey). An unconfirmed
//     key is not necessarily unsound — the prover is incomplete by design —
//     so without data it is accepted; with data (Options::storage) the
//     claim is validated by execution.
//  3. Execution diffing (Options::storage): before/after plans are run and
//     their results compared (row counts when a LIMIT makes row identity
//     nondeterministic in principle, full row multisets otherwise).
//
// Failures report the pass name (via the driver) and before/after
// PlanPrinter dumps.
#ifndef VDMQO_ANALYSIS_REWRITE_AUDITOR_H_
#define VDMQO_ANALYSIS_REWRITE_AUDITOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/optimizer.h"
#include "storage/table.h"

namespace vdm {

class RewriteAuditor : public PlanVerificationHook {
 public:
  struct Options {
    /// Derivation capabilities to cross-check (use the optimizer's own
    /// OptimizerConfig::derivation so declared-cardinality trust matches).
    InferOptions derivation;
    /// When set, plans are additionally executed against this storage and
    /// key claims / result equivalence are validated on real data. Slow;
    /// intended for small test data sets.
    const StorageManager* storage = nullptr;
  };

  RewriteAuditor() = default;
  explicit RewriteAuditor(Options options) : options_(std::move(options)) {}

  Status AfterPass(const std::string& pass_name, const PlanRef& before,
                   const PlanRef& after) override;

  /// How many times each pass fired (pass name → count) since construction.
  const std::map<std::string, int>& fired_counts() const { return fired_; }
  /// Total number of audited pass applications.
  int total_fired() const;

 private:
  Options options_;
  std::map<std::string, int> fired_;
};

/// Independent conservative proof that `key` (a set of output column names)
/// is duplicate-free for `plan`. Returns true only when a sound argument
/// exists; false means "could not confirm", not "unsound".
bool ConfirmUniqueKey(const PlanRef& plan,
                      const std::vector<std::string>& key,
                      const InferOptions& derivation);

}  // namespace vdm

#endif  // VDMQO_ANALYSIS_REWRITE_AUDITOR_H_

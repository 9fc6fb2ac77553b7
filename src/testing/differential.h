// Differential test runner: engine vs. reference-interpreter oracle.
//
// Each generated query is bound once and evaluated by the naive reference
// interpreter (ref/interpreter.h) to produce the expected rows, then
// executed by the engine across the full configuration matrix:
//
//   5 optimizer profiles (kHana, kPostgres, kSystemX, kSystemY, kSystemZ)
//     x {1, N} executor threads
//     x plan cache off (governor off + governor on) / on (cold + warm)
//
// Results are normalized (row-order compare when the query orders by every
// output column, multiset compare otherwise) and diffed; metamorphic
// variants (unused augmentation join, ASJ self-join, disjoint UNION ALL
// branch) must reproduce the oracle rows byte-identically. On any
// mismatch the runner greedily minimizes the failing query by deleting
// joins / predicates / select items / paging while the mismatch still
// reproduces, and writes a repro dump (SQL, seed, query index, profile,
// config, bound and optimized plans, expected vs. actual rows) into the
// artifacts directory.
#ifndef VDMQO_TESTING_DIFFERENTIAL_H_
#define VDMQO_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "testing/query_gen.h"
#include "types/column.h"

namespace vdm {

/// Rows per morsel in the N-thread legs of the query and DML matrices.
/// Fuzz tables hold a few hundred rows, so the default 4096-row morsel
/// would leave those legs single-morsel.
constexpr size_t kParallelLegMorselSize = 16;

struct DiffOptions {
  uint64_t seed = 42;
  int num_queries = 200;
  /// Worker threads; each owns its own set of databases. 0 = hardware
  /// concurrency capped at 8.
  int workers = 0;
  /// The "N" in the {1, N}-thread leg of the matrix.
  size_t exec_threads = 4;
  /// Repro dumps are written here on mismatch ("" disables dumping).
  std::string artifacts_dir;
  bool with_metamorphic = true;
  /// Print a progress line every N queries (0 = quiet).
  int progress_every = 0;
  /// Route every engine execution through a loopback vdmserve connection
  /// (wire encode -> session -> wire decode) instead of the in-process
  /// Database API. Oracle binding and plan dumps stay in-process; results
  /// must be byte-identical either way.
  bool through_server = false;
  /// Test-only: plants a wrong-result bug by corrupting the plan after the
  /// named optimizer pass fires (OptimizerConfig::debug_corrupt_pass). The
  /// harness must then report the mismatch — the injected-bug self-test.
  const char* debug_corrupt_pass = nullptr;
};

struct DiffStats {
  int64_t queries = 0;
  /// Engine executions diffed against the oracle.
  int64_t executions = 0;
  int64_t metamorphic_checks = 0;
  int64_t plan_cache_hits = 0;
  /// Queries with at least one engine-vs-oracle (or metamorphic) diff.
  int64_t mismatches = 0;
  /// Engine executions that returned an error Status (counted as
  /// mismatches too — the oracle succeeded).
  int64_t errors = 0;
  std::vector<std::string> repro_files;
};

/// Renders a result to comparable row strings: a header line of column
/// names, then one "v|v|...|" line per row — sorted when `ordered` is
/// false. Exposed for tests.
std::vector<std::string> NormalizeChunk(const Chunk& chunk, bool ordered);

/// Loads the pinned fuzz corpus — tiny TPC-H, S/4, and synthetic VDM view
/// populations, deterministic for a given build — into `db`, and returns
/// the matching query-generator corpus. Every runner worker database is
/// set up through this, so the same (seed, index) pair replays the same
/// query over the same data anywhere.
Result<QueryCorpus> SetUpFuzzDatabase(Database* db);

class DifferentialRunner {
 public:
  explicit DifferentialRunner(DiffOptions options) : options_(options) {}

  /// Generates options.num_queries queries and runs the full matrix.
  /// Returns an error only on harness failure (corpus setup, unbindable
  /// generated SQL); engine-vs-oracle diffs are reported via
  /// DiffStats::mismatches.
  Result<DiffStats> Run();

 private:
  DiffOptions options_;
};

}  // namespace vdm

#endif  // VDMQO_TESTING_DIFFERENTIAL_H_

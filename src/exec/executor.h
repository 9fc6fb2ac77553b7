// Morsel-driven parallel columnar executor.
//
// Scans, and every stack of Join (through its probe side), Filter and
// Project nodes above one, run as pipelines: a morsel of the base flows
// through every probe, filter and projection before anything is
// materialized. In flight a morsel is one 32-bit row-index vector per
// source (the base, each join's build side, each Project's computed
// columns); join keys are read through the indexes, a residual or filter
// gathers only the columns it reads, and the pipeline's top gathers each
// output column once, for the breaker above it (aggregate, sort/top-k,
// distinct, union, or the result). A probe emits its matches in waves of
// at most 64k, each consumed by every level above before the next is
// made. Build sides and breaker inputs are fully materialized Chunks.
// Every operator has one implementation, and the worker pool is only a
// parameter of it: without a pool every morsel runs inline on the calling
// thread. Results are byte-for-byte independent of the thread count and
// the morsel size: morsels are fixed row ranges, every morsel writes its
// own slot, and pieces are concatenated (or aggregate partials merged) in
// morsel order.
//
// Joins are hash joins that always build on the augmenter (right) side
// and probe in anchor order — which is what makes limit pushdown across
// augmentation joins (§4.4) behave the way the paper describes. Keys are
// one 64-bit word per column (exec/hash_table.h), probed a morsel at a
// time.
//
// A LIMIT's row budget (offset + limit) is threaded down through
// order-preserving operators; pipelines run in waves and stop once some
// level has met its budget, so `LIMIT k` over a large augmentation join
// probes ~k anchor rows instead of all of them. Under LIMIT over ORDER BY
// each morsel keeps only its own top k rows before the gather.
#ifndef VDMQO_EXEC_EXECUTOR_H_
#define VDMQO_EXEC_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/query_context.h"
#include "common/status.h"
#include "plan/logical_plan.h"
#include "storage/table.h"
#include "types/column.h"

namespace vdm {

class ThreadPool;

/// Execution knobs. Results are identical under every setting.
struct ExecOptions {
  /// Worker count; 0 = hardware concurrency. Read by Database only: 1
  /// runs every query inline, and more grows the worker pool it hands to
  /// the Executor. The Executor itself never creates threads.
  size_t num_threads = 0;
  /// Rows per morsel (scan / probe / aggregation granule).
  size_t morsel_size = 4096;
  /// Stop probe/scan waves once a downstream LIMIT's budget is met.
  bool enable_limit_early_exit = true;
  /// Lower filter predicates over main-fragment morsels to dictionary-code
  /// / int64 kernels (exec/kernels/) with late materialization. Off falls
  /// back to the generic EvalExpr morsel path; results are identical.
  bool enable_compressed_exec = true;
};

/// Row-flow counters, used by benchmarks to show *why* an optimized plan is
/// faster (fewer rows scanned / hashed), not just that it is.
struct ExecMetrics {
  uint64_t rows_scanned = 0;
  uint64_t rows_decoded = 0;       // string cells materialized from dicts
  uint64_t rows_build_input = 0;   // rows hashed on join build sides
  uint64_t rows_probe_input = 0;   // rows actually probed through joins
  uint64_t rows_aggregated = 0;
  uint64_t operators_executed = 0;
  uint64_t morsels_scanned = 0;    // scan-pipeline morsels processed
  uint64_t morsels_probed = 0;     // join probe morsels processed
  uint64_t peak_hash_table_entries = 0;  // largest join/group table built
  uint64_t limit_early_exits = 0;  // waves cut short by a LIMIT budget
  // Values copied by row index between operators: residual and filter
  // inputs, each chain's output, sorts, LIMIT slices and group keys.
  uint64_t values_gathered = 0;
  // Governor counters (common/query_context.h). The engine fills the last
  // two: degraded_serial_retries counts kResourceExhausted queries that
  // completed on the serial-retry rung, admission_wait_ns is time spent
  // queued at the admission gate.
  uint64_t cancel_checks = 0;          // CheckAlive polls during execution
  uint64_t peak_memory_bytes = 0;      // per-query tracked allocation peak
  uint64_t degraded_serial_retries = 0;
  uint64_t admission_wait_ns = 0;
  /// Exclusive wall time per operator kind, nanoseconds. Fused
  /// scan/filter/project pipelines report as "Pipeline".
  std::map<std::string, uint64_t> op_wall_ns;

  void Reset() { *this = ExecMetrics{}; }
};

class Executor {
 public:
  /// `pool`, when given, runs morsels on its workers and the calling
  /// thread; when null (or a one-worker pool) every morsel runs inline on
  /// the calling thread.
  explicit Executor(const StorageManager* storage, ExecOptions options = {},
                    ThreadPool* pool = nullptr)
      : storage_(storage), options_(options), pool_(pool) {}

  const ExecOptions& options() const { return options_; }

  /// Executes the plan; returns the materialized result. Column names of
  /// the result are the plan's output names. `ctx`, when given, governs
  /// the run: cancellation/deadline are polled at morsel granularity and
  /// hash-table / intermediate allocations are charged to ctx->memory();
  /// a null ctx runs with a private unlimited context.
  Result<Chunk> Execute(const PlanRef& plan, ExecMetrics* metrics = nullptr,
                        QueryContext* ctx = nullptr) const;

 private:
  const StorageManager* storage_;
  ExecOptions options_;
  ThreadPool* pool_;
};

}  // namespace vdm

#endif  // VDMQO_EXEC_EXECUTOR_H_

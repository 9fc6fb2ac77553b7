// The benchmark's three workloads (see README.md in this directory).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;  // paging | vdm_adhoc | htap_postings
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Generator threads and connections may not exceed this.
  int nproc = 4;
  /// Directory for the span dump of a traced run ("" = none).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  /// False when any output check failed.
  bool correct = true;
  /// False when the generator broke its own rules (fell behind, or
  /// exceeded the thread or connection cap): the run is not reported.
  bool valid = true;
  std::string invalid_reason;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;  // untraced runs
  std::vector<Metric> per_layer;   // traced runs
  /// Run header entries (key, value), printed before the metrics.
  std::vector<std::pair<std::string, std::string>> header;
  /// Human-readable detail lines (check failures, sample counts, ...).
  std::vector<std::string> notes;
};

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Sets up, drives, checks and measures one workload run.
RunOutcome RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// perfbench: sets up, drives, checks and measures one workload run over
// an in-process vdmserve on loopback. Normally started through run.py,
// which builds it and keeps only the metrics BENCHMARK.json declares.
//
//   perfbench --workload paging|vdm_adhoc|htap_postings --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//             [--commit SHA] [--source-sha SHA]
//
// Prints a run header, every metric by name with its unit, check
// details, and as the last line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. End-to-end metrics come from untraced runs
// (--trace 0), per-layer metrics from traced runs (--trace 1).
//
// Exit status: 0 run valid and every output check passed; 1 an output
// check failed; 2 usage error; 3 the run is invalid (the generator broke
// its own rules) and reports nothing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paging|vdm_adhoc|htap_postings "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--commit SHA] [--source-sha SHA]\n");
  return 2;
}

/// Engine knobs come from the environment; pin them so a run measures
/// the benchmark's configuration and nothing inherited. The admission
/// gate is on at the core count, so its wait is measured.
void PinEngineEnvironment(int nproc) {
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "VDM_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      knobs.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<size_t>(eq - *e));
    }
  }
  for (const std::string& k : knobs) unsetenv(k.c_str());
  setenv("VDM_MAX_CONCURRENT", std::to_string(nproc).c_str(), 1);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !v.empty();
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && config.seconds > 0 &&
                     config.seconds <= 600;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return Usage();
      config.trace = v == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      config.out_dir = v;
    } else if (arg == "--commit") {
      commit = v;
    } else if (arg == "--source-sha") {
      source_sha = v;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage();
  }
  config.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (config.nproc <= 0) config.nproc = 1;
  if (config.nproc < 2) {
    std::fprintf(stderr, "perfbench: needs at least 2 cores\n");
    return 3;
  }
  PinEngineEnvironment(config.nproc);

  perfbench::RunOutcome out = perfbench::RunWorkload(config);

  std::printf("# run header\n");
  std::printf("commit %s\n", commit.c_str());
  std::printf("source_sha %s\n", source_sha.c_str());
  std::printf("build_type %s\n", PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : out.header) {
    std::printf("%s %s\n", key.c_str(), value.c_str());
  }
  std::printf("# details\n");
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  if (!out.valid) {
    std::printf("INVALID RUN: %s\n", out.invalid_reason.c_str());
    std::fflush(stdout);
    return 3;
  }
  const std::vector<perfbench::Metric>& reported =
      config.trace ? out.per_layer : out.end_to_end;
  std::printf("# %s metrics\n", config.trace ? "per-layer" : "end-to-end");
  for (const perfbench::Metric& m : config.trace ? out.end_to_end
                                                 : std::vector<perfbench::Metric>{}) {
    std::printf("(untraced-equivalent) %-32s %14.6f %s\n", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : reported) {
    std::printf("%-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("checks: %s (%lld attempted, %lld failed)\n",
              out.correct ? "passed" : "FAILED",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + reported[i].name +
            "\": {\"value\": " + JsonNumber(reported[i].value) +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

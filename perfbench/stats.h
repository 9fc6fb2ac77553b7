// Sample statistics for the benchmark: percentiles under the tail rule,
// medians, and small helpers shared by the workloads and the tests.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A latency tail reported under the benchmark's percentile rule.
struct Tail {
  double value = 0;     // the sample at that rank
  double pct = 0;       // the percentile it stands for, in (0, 1)
  size_t samples = 0;   // sample count it was taken from
  bool valid = false;   // false when fewer than kTailBeyond + 1 samples
};

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kTailBeyond = 10;

/// The highest percentile, up to 99, with at least kTailBeyond samples
/// beyond it: rank k = min(ceil(0.99 n), n - 10) (1-based) of the sorted
/// samples, reported as p99 when k = ceil(0.99 n) and as percentile k / n
/// otherwise. `sorted` must be ascending.
Tail TailOf(const std::vector<double>& sorted);

/// Nearest-rank percentile (p in [0, 1]) of ascending samples; 0 if empty.
double PercentileOf(const std::vector<double>& sorted, double p);

/// Median of unsorted values (mean of the middle two for even counts);
/// 0 if empty.
double MedianOf(std::vector<double> values);

/// Mean; 0 if empty.
double MeanOf(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

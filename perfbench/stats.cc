#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Tail TailOf(const std::vector<double>& sorted) {
  Tail tail;
  const size_t n = sorted.size();
  tail.samples = n;
  if (n < kTailBeyond + 1) return tail;
  const size_t p99_rank =
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  const size_t rank = std::min(p99_rank, n - kTailBeyond);
  tail.value = sorted[rank - 1];
  // The nearest-rank p99 is p99 even where ceil(0.99 n) / n exceeds 0.99.
  tail.pct = rank == p99_rank
                 ? 0.99
                 : static_cast<double>(rank) / static_cast<double>(n);
  tail.valid = true;
  return tail;
}

double PercentileOf(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = len + 1, then for
  // i = 1..3, j = i*m // 4 clamped to [1, len-1] and a linear blend of the
  // j-th and (j+1)-th order statistics with integer weights.
  const long n = 4;
  const long len = static_cast<long>(values.size());
  const long m = len + 1;
  std::array<double, 3> result{};
  for (long i = 1; i < n; ++i) {
    long j = std::clamp(i * m / n, 1L, len - 1);
    const long delta = i * m - j * n;
    result[static_cast<size_t>(i - 1)] =
        (values[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
         values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return result;
}

namespace {

size_t NearestRank(size_t count, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, count);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t count, double p) {
  if (count == 0) return 0;
  return count - NearestRank(count, p);
}

double HighestSupportedPercentile(size_t count, size_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(count, p) >= min_beyond) best = p;
  }
  return best;
}

}  // namespace perfbench

// Order statistics the benchmark reports. Every timing it prints is a median
// or a percentile over many samples taken within one run, never a single
// sample (see README.md, "Noise").

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for even sizes); 0 for
/// an empty input.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones computed over repeated runs. Needs at
/// least two values; a single value is returned as all three quartiles.
std::array<double, 3> Quartiles(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank `p`-th percentile of `count`
/// samples.
size_t SamplesBeyond(size_t count, double p);

/// The highest of {50, 90, 99, 99.9, 99.99} that has at least
/// `min_beyond` samples beyond it, or 0 when even the median has fewer. A
/// tail percentile with fewer samples beyond it is one or two outliers, not
/// a tail, and does not repeat from run to run.
double HighestSupportedPercentile(size_t count, size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

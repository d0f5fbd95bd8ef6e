// Named metrics and the JSON the benchmark prints.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metric set; Set() on an existing name overwrites it.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// nullptr when absent.
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// JSON string literal for `text`.
std::string JsonString(const std::string& text);

/// JSON number with every significant digit (obs::JsonNumber keeps 9).
/// Non-finite values become 0, not null, so a result line always holds
/// numbers; a run that produced one has already failed its gate.
std::string JsonNumber(double value);

/// `{"name": {"value": v, "unit": "u"}, ...}`.
std::string MetricsJson(const MetricSet& metrics);

/// The result line: exactly correct / attempted / failed / metrics.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

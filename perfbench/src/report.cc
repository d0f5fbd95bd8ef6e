#include "report.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace perfbench {

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : items_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& metric : items_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  sarn::obs::JsonEscape(text, &out);
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const MetricSet& metrics) {
  std::string out = "{";
  bool first = true;
  for (const Metric& metric : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(metric.name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

}  // namespace perfbench

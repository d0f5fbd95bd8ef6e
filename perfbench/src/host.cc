#include "host.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/parallel.h"
#include "report.h"
#include "tensor/simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies result;
  std::ifstream file("/proc/stat");
  std::string label;
  if (!(file >> label) || label != "cpu") return result;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already counted in user/nice.
  uint64_t fields[8] = {};
  for (uint64_t& field : fields) {
    if (!(file >> field)) return result;
  }
  for (uint64_t field : fields) result.total += field;
  result.steal = fields[7];
  result.valid = true;
  return result;
}

double StealPercent(const CpuJiffies& begin, const CpuJiffies& end) {
  if (!begin.valid || !end.valid || end.total <= begin.total) return -1.0;
  return 100.0 * static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

std::string SetOverrideVariable() {
  for (const char* name : {"SARN_PLAN", "SARN_SIMD", "SARN_LOG_LEVEL"}) {
    if (std::getenv(name) != nullptr) return name;
  }
  return "";
}

std::string FingerprintJson(const std::string& revision, double steal_percent) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel_pool_threads\": " << sarn::GetParallelThreads()
      << ", \"simd_tier\": "
      << JsonString(sarn::tensor::simd::TierName(sarn::tensor::simd::ActiveTier()))
      << ", \"steal_pct\": " << steal_percent
      << ", \"revision\": " << JsonString(revision)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS) << "}";
  return out.str();
}

}  // namespace perfbench

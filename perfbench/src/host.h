// Host-side measurements and the run's host fingerprint.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Process CPU time (user + system, all threads), seconds.
double ProcessCpuSeconds();

/// ru_maxrss of this process, MiB.
double PeakRssMiB();

/// Aggregate CPU jiffies from /proc/stat; `valid` is false where the file
/// is unreadable (non-Linux hosts).
struct CpuJiffies {
  bool valid = false;
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();

/// Steal time between two readings as a percentage of all CPU time; -1 when
/// either reading is invalid.
double StealPercent(const CpuJiffies& begin, const CpuJiffies& end);

/// Names the first of SARN_PLAN, SARN_SIMD, SARN_LOG_LEVEL that is set in
/// the environment; empty when none is. Each would change the program under
/// measurement (plan engine, kernel tier, logging cost), so the benchmark
/// refuses to run with any of them.
std::string SetOverrideVariable();

/// The fingerprint recorded with every result, as a JSON object: nproc,
/// kernel pool threads, SIMD tier, CPU steal % over the run, source
/// revision and build type/flags. `revision` is supplied by the caller.
std::string FingerprintJson(const std::string& revision, double steal_percent);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_

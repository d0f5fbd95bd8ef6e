// sarn_perfbench: runs one benchmark workload in process and prints its
// metrics. Normally started through perfbench/run.py, which builds it:
//
//   sarn_perfbench --workload serve-scan --seed 3 --seconds 20 --trace 0
//
// Output (stdout): a fingerprint line, a detail line, an end-to-end line
// and as the last line the result object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end metrics; with
// --trace 1 they are the per-layer metrics, and the run also writes a
// Chrome trace (benchmark spans around every public call, plus the
// program's own spans) into --results-dir. run.py adds the tracing overhead
// by comparing a traced and an untraced run, each in its own process.
//
// Exit codes: 0 with a result line; 2 for bad arguments or a refused
// environment (no result line).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "host.h"
#include "obs/trace.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::RunResult;

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "sarn_perfbench: %s\n"
               "usage: sarn_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--results-dir <dir>] "
               "[--revision <text>]\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string workdir = ".bench_build/run";
  std::string results_dir = ".bench_build/results";
  std::string revision = "unknown";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) return Usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0.0 && seconds <= 600.0)) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--results-dir") {
      results_dir = value;
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (workload.empty() || seed < 0 || seconds < 0.0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown workload " + workload);
  if (const std::string variable = perfbench::SetOverrideVariable(); !variable.empty()) {
    std::fprintf(stderr,
                 "sarn_perfbench: refusing to run with %s set: the benchmark measures "
                 "the production defaults\n",
                 variable.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  std::filesystem::create_directories(results_dir, ec);
  if (ec) return Usage("cannot create " + workdir + " or " + results_dir);

  perfbench::RunOptions options;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.workdir = workdir;
  const std::string tag =
      workload + "-seed" + std::to_string(seed) + "-trace" + std::to_string(trace);

  const perfbench::CpuJiffies steal_begin = perfbench::ReadCpuJiffies();
  sarn::obs::Tracer& tracer = sarn::obs::Tracer::Instance();
  options.traced = trace == 1;
  tracer.SetEnabled(options.traced);
  RunResult run = perfbench::RunWorkload(*spec, options);
  tracer.SetEnabled(false);
  std::string trace_path;
  if (options.traced) {
    trace_path = results_dir + "/trace-" + tag + ".json";
    if (!sarn::obs::Tracer::WriteChromeTrace(trace_path, tracer.Drain())) {
      run.gate_failures.push_back("cannot write " + trace_path);
    }
  }
  const double steal = perfbench::StealPercent(steal_begin, perfbench::ReadCpuJiffies());

  const std::string fingerprint = perfbench::FingerprintJson(revision, steal);
  std::string gates = "[";
  for (size_t i = 0; i < run.gate_failures.size(); ++i) {
    gates += (i > 0 ? ", " : "") + perfbench::JsonString(run.gate_failures[i]);
    std::fprintf(stderr, "sarn_perfbench: correctness gate failed: %s\n",
                 run.gate_failures[i].c_str());
  }
  gates += "]";
  const std::string result =
      perfbench::ResultLine(run.gate_failures.empty(), run.attempted, run.failed,
                            options.traced ? run.per_layer : run.end_to_end);
  const std::string end_to_end = perfbench::MetricsJson(run.end_to_end);
  std::ofstream report(results_dir + "/report-" + tag + ".json", std::ios::trunc);
  report << "{\"fingerprint\": " << fingerprint << ", \"detail\": " << run.detail_json
         << ", \"end_to_end\": " << end_to_end << ", \"gate_failures\": " << gates
         << ", \"trace_file\": " << perfbench::JsonString(trace_path)
         << ", \"result\": " << result << "}\n";

  std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());
  std::printf("{\"detail\": %s}\n", run.detail_json.c_str());
  std::printf("{\"end_to_end\": %s}\n", end_to_end.c_str());
  std::printf("%s\n", result.c_str());
  std::filesystem::remove_all(workdir, ec);
  return 0;
}

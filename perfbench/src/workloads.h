// The benchmark's workloads. Each one runs the whole ROADMAP pipeline —
// generate -> build the model -> train -> snapshot -> cold start -> serve —
// through the public APIs of roadnet, core, tasks, snapshot and serve, with
// the production defaults, and differs in which stage carries the weight
// (see README.md for why each exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"
#include "report.h"
#include "tasks/embedding_index.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Chengdu-like city the train stage trains on.
  double train_scale = 0.1;
  /// Chengdu-like city served from an untrained encoder's embeddings; when
  /// equal to train_scale, the train city itself (one city, one model).
  double serve_scale = 0.1;
  /// Training epochs per second of run budget (epoch 0 is extra: it is the
  /// warm-up and is never timed as steady).
  double epochs_per_second = 0.2;
  int min_steady_epochs = 3;
  /// Set-ups timed per run, spread over the run; setup_s is their median.
  int setup_reps = 5;
  /// Cold starts timed per run; cold_start_ms is their median.
  int cold_starts = 30;
  sarn::tasks::IndexPrecision precision = sarn::tasks::IndexPrecision::kFloat32;
  QueryMix mix;
  /// Fixed open-loop rate (required), and the seed throughput_qps (closed
  /// loop, this workload, reference host) it was derived from (see
  /// README.md).
  double open_rate_qps = 0.0;
  double base_qps = 0.0;
  /// Hot-swap to an alternate snapshot in every other closed-loop block
  /// (one every couple of seconds), beside the reads.
  bool hot_swaps = false;
  /// Share of the run budget spent in the open and the closed loop.
  double open_share = 0.15;
  double closed_share = 0.1;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 20.0;
  /// Record benchmark-side spans (obs::Tracer) and collect per-layer
  /// metrics.
  bool traced = false;
  /// Scratch directory for snapshot files (must exist).
  std::string workdir = ".";
};

struct RunResult {
  MetricSet end_to_end;
  MetricSet per_layer;  // Filled by traced runs only.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed correctness check; empty when the run is correct.
  std::vector<std::string> gate_failures;
  /// Sample counts, rates and other context, as a JSON object.
  std::string detail_json;
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

/// One steady epoch's phase breakdown as the train stage records it.
struct EpochSample {
  double wall_s = 0.0;  // Benchmark clock between OnEpoch callbacks.
  std::vector<std::pair<std::string, double>> phase_seconds;
};

/// Mean phase rows over `epochs` plus "untracked" (= mean wall - sum of the
/// mean phases) and "wall". By construction the phase rows plus untracked
/// sum to wall; a negative untracked means the phases overlap or the wall
/// clock is wrong.
std::vector<std::pair<std::string, double>> PhaseRows(const std::vector<EpochSample>& epochs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Reproduces Figure 5: ablation study on the SF-like network across all
// three downstream tasks, with the paper's four variants, each a plain
// SarnConfig setting over the bench defaults:
//   SARN-w/o-MNL  — no spatial matrix (max_spatial_neighbors = 0) and plain
//                   InfoNCE (negatives = "random"): the weighted-GCL
//                   baseline of §3,
//   SARN-w/o-NL   — spatial matrix only (negatives = "random"),
//   SARN-w/o-M    — spatial negatives + two-level loss only
//                   (max_spatial_neighbors = 0),
//   SARN          — everything.

#include <cstdio>
#include <map>

#include "bench_common.h"
#include "tasks/embedding_source.h"
#include "tasks/spd_task.h"

namespace sarn::bench {
namespace {

struct VariantSpec {
  std::string name;
  bool spatial_matrix;    // false: max_spatial_neighbors = 0.
  const char* negatives;  // "random": plain InfoNCE.
};

void Run() {
  BenchEnv env = GetEnv();
  PrintTitle("Figure 5: Ablation Study on SF (scale=" + Num(env.scale, 3) + ")");
  const std::vector<VariantSpec> variants = {
      {"SARN-w/o-MNL", false, "random"},
      {"SARN-w/o-NL", true, "random"},
      {"SARN-w/o-M", false, "spatial"},
      {"SARN", true, "spatial"},
  };

  roadnet::RoadNetwork network = BuildCity("SF", env);
  std::printf("[SF] %lld segments\n", static_cast<long long>(network.num_segments()));

  struct Cells {
    Stat f1, auc, hr5, hr20, mre, mae;
  };
  std::map<std::string, Cells> results;

  for (int rep = 0; rep < env.reps; ++rep) {
    tasks::RoadPropertyConfig property_config;
    property_config.seed = 51 + rep;
    tasks::RoadPropertyTask property_task(network, property_config);
    tasks::SpdConfig spd_config;
    spd_config.seed = 61 + rep;
    tasks::SpdTask spd_task(network, spd_config);
    std::vector<traj::MatchedTrajectory> trajectories =
        MakeTrajectories(network, env.trajectories, env.traj_max_segments, rep);
    tasks::TrajSimConfig traj_config;
    traj_config.seed = 71 + rep;
    tasks::TrajectorySimilarityTask traj_task(network, trajectories, traj_config);

    for (const VariantSpec& variant : variants) {
      core::SarnConfig config = BenchSarnConfig(env, rep, network);
      if (!variant.spatial_matrix) config.max_spatial_neighbors = 0;
      config.negatives = variant.negatives;
      auto model = TrainSarn(network, config);
      tasks::FrozenEmbeddingSource source(model->Embeddings());
      Cells& cells = results[variant.name];
      tasks::RoadPropertyResult property = property_task.Evaluate(source);
      cells.f1.Add(100.0 * property.f1);
      cells.auc.Add(100.0 * property.auc);
      tasks::TrajSimResult traj = traj_task.Evaluate(source);
      cells.hr5.Add(100.0 * traj.hr5);
      cells.hr20.Add(100.0 * traj.hr20);
      tasks::SpdResult spd = spd_task.Evaluate(source);
      cells.mre.Add(100.0 * spd.mre);
      cells.mae.Add(spd.mae_meters);
    }
  }

  std::vector<int> widths = {14, 12, 12, 12, 12, 12, 12};
  PrintRow({"Variant", "F1 (%)", "AUC (%)", "HR@5 (%)", "HR@20 (%)", "MRE (%)",
            "MAE (m)"},
           widths);
  PrintRule(widths);
  for (const VariantSpec& variant : variants) {
    Cells& cells = results[variant.name];
    PrintRow({variant.name, cells.f1.Cell(1), cells.auc.Cell(1), cells.hr5.Cell(1),
              cells.hr20.Cell(1), cells.mre.Cell(1), cells.mae.Cell(0)},
             widths);
  }
  std::printf(
      "\nPaper shape (Fig. 5): every added component helps; the full SARN is\n"
      "best on all tasks; -w/o-M beats -w/o-NL on SPD while -w/o-NL beats\n"
      "-w/o-M on road property prediction.\n");
}

}  // namespace
}  // namespace sarn::bench

int main() {
  sarn::bench::Run();
  return 0;
}

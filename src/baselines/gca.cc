// GCA re-expressed on the pluggable contrastive plane (DESIGN.md §16): the
// registry composition {encoder "gat", augmentation "adaptive-drop",
// negatives "all-vertex"} with momentum 0 (the plane's rendering of GCA's
// parameter-shared encoders), driven by the shared ContrastiveTrainer. Only
// the documented failure mode stays local: the up-front memory guard that
// reproduces GCA's O(n^2) all-vertex similarity blow-up (paper Table 8).

#include "baselines/gca.h"

#include "common/logging.h"
#include "common/timer.h"
#include "core/sarn_model.h"

namespace sarn::baselines {

GcaResult TrainGca(const roadnet::RoadNetwork& network, const GcaConfig& config) {
  Timer timer;
  GcaResult result;
  int64_t n = network.num_segments();
  // GCA's loss touches an n x n similarity structure (anchors vs all
  // vertices, both views). Estimate and enforce the budget up front.
  if (config.memory_budget_bytes > 0) {
    int64_t required = 2 * n * n * static_cast<int64_t>(sizeof(float));
    if (required > config.memory_budget_bytes) {
      SARN_LOG(Warning) << "GCA OOM: needs " << required << " bytes for n=" << n;
      result.out_of_memory = true;
      return result;
    }
  }

  core::SarnConfig model_config;
  model_config.seed = config.seed;
  model_config.feature_dim_per_feature = config.feature_dim_per_feature;
  model_config.hidden_dim = config.hidden_dim;
  model_config.embedding_dim = config.embedding_dim;
  model_config.gat_layers = config.gat_layers;
  model_config.gat_heads = config.gat_heads;
  model_config.projection_dim = config.projection_dim;
  model_config.tau = config.tau;
  model_config.max_epochs = config.max_epochs;
  model_config.patience = config.max_epochs;  // GCA has no early stopping.
  model_config.batch_size = config.batch_size;
  model_config.learning_rate = config.learning_rate;
  model_config.momentum = 0.0f;            // Parameter-shared encoders.
  model_config.max_spatial_neighbors = 0;  // Topological edges only.
  model_config.encoder = "gat";
  model_config.augmentation = "adaptive-drop";
  model_config.negatives = "all-vertex";
  model_config.edge_drop_rate = config.edge_drop_rate;
  model_config.epsilon = config.epsilon;

  core::SarnModel model(network, model_config);
  core::TrainOptions options;
  options.run_name = "gca";
  core::TrainStats stats = model.Train(options);

  result.embeddings = model.Embeddings();
  result.epochs_run = stats.epochs_run;
  result.final_loss = stats.final_loss;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sarn::baselines

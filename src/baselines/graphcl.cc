// GraphCL re-expressed on the pluggable contrastive plane (DESIGN.md §16):
// the bespoke training loop this file used to carry is gone — the baseline
// is now the registry composition {encoder "gat", augmentation
// "uniform-drop", negatives "in-batch"} with momentum 0 (a zero-momentum
// target branch tracks the online parameters exactly, which is how the
// plane expresses GraphCL's parameter-shared encoders) driven by the same
// ContrastiveTrainer as SARN, so checkpoint/resume and telemetry come from
// one implementation.

#include "baselines/graphcl.h"

#include "common/timer.h"
#include "core/sarn_model.h"

namespace sarn::baselines {

GraphClResult TrainGraphCl(const roadnet::RoadNetwork& network,
                           const GraphClConfig& config) {
  Timer timer;
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
  model_config.patience = config.max_epochs;  // GraphCL has no early stopping.
  model_config.batch_size = config.batch_size;
  model_config.learning_rate = config.learning_rate;
  model_config.momentum = 0.0f;            // Parameter-shared encoders.
  model_config.max_spatial_neighbors = 0;  // Topological edges only.
  model_config.encoder = "gat";
  model_config.augmentation = "uniform-drop";
  model_config.negatives = "in-batch";
  model_config.edge_drop_rate = config.edge_drop_rate;
  model_config.feature_mask_rate = config.feature_mask_rate;

  core::SarnModel model(network, model_config);
  core::TrainOptions options;
  options.checkpoint_dir = config.checkpoint_dir;
  options.checkpoint_every = config.checkpoint_every;
  options.keep_last = config.keep_last;
  options.resume = config.resume;
  options.max_epochs = config.stop_after_epochs;
  options.metrics_sink = config.metrics_sink;
  options.run_name = "graphcl";
  core::TrainStats stats = model.Train(options);

  GraphClResult result;
  result.embeddings = model.Embeddings();
  result.epochs_run = stats.epochs_run;
  result.final_loss = stats.final_loss;
  result.resumed_from_epoch = stats.resumed_from_epoch;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace sarn::baselines

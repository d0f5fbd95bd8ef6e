// GraphCL baseline (You et al., NeurIPS'20) adapted to road networks, as the
// paper configures it (§5.1): the same GAT backbone and feature embedding as
// SARN, but (i) topological edges only, (ii) parameter-SHARED encoders for
// both views, (iii) uniform random edge dropping, and (iv) in-batch
// negatives (the other anchors of the same minibatch).

#ifndef SARN_BASELINES_GRAPHCL_H_
#define SARN_BASELINES_GRAPHCL_H_

#include <cstdint>
#include <string>

#include "obs/metrics_sink.h"
#include "roadnet/road_network.h"
#include "tensor/tensor.h"

namespace sarn::baselines {

struct GraphClConfig {
  uint64_t seed = 23;
  int64_t feature_dim_per_feature = 12;
  int64_t hidden_dim = 64;
  int64_t embedding_dim = 64;
  int gat_layers = 2;
  int gat_heads = 4;
  int64_t projection_dim = 32;
  /// Uniform edge-drop rate for each view.
  double edge_drop_rate = 0.2;
  /// GraphCL's attribute-masking augmentation: per view, this fraction of
  /// the seven input features is replaced by a masked (shared) bin id.
  double feature_mask_rate = 0.1;
  double tau = 0.1;
  int max_epochs = 30;
  int batch_size = 128;
  float learning_rate = 0.005f;

  // --- Crash-safe checkpointing (mirrors core::TrainOptions) -----------------
  // With checkpoint_dir set, TrainGraphCl writes atomic rolling checkpoints
  // of the full training state (parameters, Adam moments, schedule position,
  // RNG stream) and resumes from the newest valid one, so interrupted bench
  // table runs restart where they stopped — bitwise identical to an
  // uninterrupted run at the same thread count.
  std::string checkpoint_dir;  // Empty disables checkpointing and resume.
  int checkpoint_every = 1;    // Epochs between checkpoints.
  int keep_last = 2;           // Rolling retention.
  bool resume = true;          // Resume from the newest valid checkpoint.
  /// Stop once this many *total* epochs are complete (simulates a kill);
  /// < 0 trains to max_epochs. The LR schedule always spans max_epochs.
  int stop_after_epochs = -1;

  /// Optional telemetry sink (not owned; must outlive TrainGraphCl): one
  /// obs::EpochRecord per epoch (run = "graphcl") plus checkpoint lifecycle
  /// events, so baseline training curves are comparable with SARN's from
  /// the same JSONL file. Measurement-only; does not perturb training.
  obs::MetricsSink* metrics_sink = nullptr;
};

struct GraphClResult {
  tensor::Tensor embeddings;  // [n, embedding_dim]
  int epochs_run = 0;
  double final_loss = 0.0;
  double seconds = 0.0;
  /// Epochs restored from a checkpoint before this call trained (0 = fresh).
  int resumed_from_epoch = 0;
};

GraphClResult TrainGraphCl(const roadnet::RoadNetwork& network,
                           const GraphClConfig& config);

}  // namespace sarn::baselines

#endif  // SARN_BASELINES_GRAPHCL_H_

// HRNR baseline (Wu et al., KDD'20), reduced-scale reimplementation
// ("HrnrLite", DESIGN.md §3): a hierarchical supervised road-network
// encoder. Level 1 is a GAT over the segment graph; level 2 pools segments
// into grid zones, runs a GAT over the zone adjacency (zones connected when
// any topological edge crosses them), and broadcasts zone context back to
// the segments; a fusion layer produces the final embeddings. Unlike SARN,
// it is trained END-TO-END with each downstream task's supervision signal
// (the paper's "task-agnostic supervised" category), and its multi-level
// adjacency state is what makes it memory-hungry on large networks
// (Table 8: OOM on SF-L).

#ifndef SARN_BASELINES_HRNR_LITE_H_
#define SARN_BASELINES_HRNR_LITE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/embedding.h"
#include "nn/gat.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "roadnet/features.h"
#include "roadnet/road_network.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sarn::baselines {

struct HrnrLiteConfig {
  uint64_t seed = 41;
  int64_t feature_dim_per_feature = 12;
  int64_t hidden_dim = 64;
  int64_t embedding_dim = 64;
  int gat_heads = 4;
  double zone_cell_meters = 900.0;
  /// Memory guard for the hierarchical adjacency state (paper: OOM on
  /// SF-L); 0 disables.
  int64_t memory_budget_bytes = 4LL * 1024 * 1024 * 1024;
};

/// Trainable end-to-end encoder. Construct, then optimise Parameters()
/// jointly with a task head against Forward() outputs.
class HrnrLite : public nn::Module {
 public:
  /// `network` must outlive the module.
  HrnrLite(const roadnet::RoadNetwork& network, HrnrLiteConfig config);

  /// True when the memory guard fired; Forward() must not be called then.
  bool out_of_memory() const { return out_of_memory_; }

  /// Segment embeddings [n, embedding_dim], gradient-tracked.
  tensor::Tensor Forward() const;

  std::vector<tensor::Tensor> Parameters() const override;

  int64_t embedding_dim() const { return config_.embedding_dim; }

 private:
  const roadnet::RoadNetwork* network_;
  HrnrLiteConfig config_;
  bool out_of_memory_ = false;
  roadnet::SegmentFeatures features_;
  std::vector<int64_t> zone_of_;
  tensor::IndexGroupsPtr zone_groups_;  // zone_of_ grouped by zone.
  tensor::Tensor zone_count_inverse_;  // [num_zones] 1/|zone| (0 if empty).
  nn::EdgeList segment_edges_;
  nn::EdgeList zone_edges_;
  std::unique_ptr<nn::FeatureEmbedding> feature_embedding_;
  std::unique_ptr<nn::GatLayer> segment_gat_;
  std::unique_ptr<nn::GatLayer> zone_gat_;
  std::unique_ptr<nn::Linear> fusion_;
};

}  // namespace sarn::baselines

#endif  // SARN_BASELINES_HRNR_LITE_H_

#include "baselines/hrnr_lite.h"

#include <set>

#include "common/logging.h"
#include "geo/grid.h"
#include "tensor/ops.h"

namespace sarn::baselines {

using tensor::Tensor;

HrnrLite::HrnrLite(const roadnet::RoadNetwork& network, HrnrLiteConfig config)
    : network_(&network), config_(config) {
  int64_t n = network.num_segments();
  geo::Grid grid(network.bounding_box(), config.zone_cell_meters);
  const int64_t num_zones = grid.num_cells();

  // Hierarchy memory estimate: HRNR keeps several n x n and n x C adjacency
  // and assignment matrices; model the dominant dense n x n term.
  if (config_.memory_budget_bytes > 0) {
    int64_t required = 3 * n * n * static_cast<int64_t>(sizeof(float));
    if (required > config_.memory_budget_bytes) {
      SARN_LOG(Warning) << "HRNR OOM: needs " << required << " bytes for n=" << n;
      out_of_memory_ = true;
      return;
    }
  }

  features_ = roadnet::FeaturizeSegments(network);
  zone_of_.reserve(static_cast<size_t>(n));
  std::vector<float> counts(static_cast<size_t>(num_zones), 0.0f);
  for (const roadnet::RoadSegment& s : network.segments()) {
    int zone = grid.CellOf(s.Midpoint());
    zone_of_.push_back(zone);
    counts[static_cast<size_t>(zone)] += 1.0f;
  }
  std::vector<float> inverse(static_cast<size_t>(num_zones), 0.0f);
  for (size_t z = 0; z < counts.size(); ++z) {
    if (counts[z] > 0) inverse[z] = 1.0f / counts[z];
  }
  zone_count_inverse_ = Tensor::FromVector({num_zones}, std::move(inverse));
  zone_groups_ = tensor::GroupByIndex(zone_of_, num_zones);

  for (const roadnet::TopoEdge& e : network.topo_edges()) {
    segment_edges_.Add(e.from, e.to);
  }
  std::set<std::pair<int64_t, int64_t>> zone_pairs;
  for (const roadnet::TopoEdge& e : network.topo_edges()) {
    int64_t za = zone_of_[static_cast<size_t>(e.from)];
    int64_t zb = zone_of_[static_cast<size_t>(e.to)];
    if (za != zb) {
      zone_pairs.emplace(za, zb);
      zone_pairs.emplace(zb, za);
    }
  }
  for (const auto& [za, zb] : zone_pairs) zone_edges_.Add(za, zb);

  Rng rng(config_.seed);
  std::vector<int64_t> dims(features_.vocab_sizes.size(),
                            config_.feature_dim_per_feature);
  feature_embedding_ =
      std::make_unique<nn::FeatureEmbedding>(features_.vocab_sizes, dims, rng);
  int64_t head_dim = config_.hidden_dim / config_.gat_heads;
  // No residual paths: HRNR's hierarchy-reconstruction design has no direct
  // feature shortcut, which is what limits it against SARN* in the paper.
  segment_gat_ = std::make_unique<nn::GatLayer>(
      feature_embedding_->output_dim(), head_dim, config_.gat_heads,
      /*concat_heads=*/true, nn::Activation::kElu, rng, 0.2f,
      /*add_self_loops=*/true, /*residual=*/false);
  zone_gat_ = std::make_unique<nn::GatLayer>(
      config_.hidden_dim, head_dim, config_.gat_heads, /*concat_heads=*/true,
      nn::Activation::kElu, rng, 0.2f, /*add_self_loops=*/true, /*residual=*/false);
  fusion_ = std::make_unique<nn::Linear>(2 * config_.hidden_dim, config_.embedding_dim,
                                         rng);
}

Tensor HrnrLite::Forward() const {
  SARN_CHECK(!out_of_memory_) << "HrnrLite hit its memory guard";
  // Level 1: segments.
  Tensor x = feature_embedding_->Forward(features_.ids);
  Tensor h_seg = segment_gat_->Forward(x, segment_edges_);  // [n, hidden]
  // Pool to zones (mean), run the zone-level GAT.
  Tensor zone_sum = tensor::ScatterAddRows(h_seg, zone_groups_);
  Tensor h_zone_in = tensor::ScaleRows(zone_sum, zone_count_inverse_);
  Tensor h_zone = zone_gat_->Forward(h_zone_in, zone_edges_);  // [C, hidden]
  // Broadcast zone context back and fuse.
  Tensor zone_context = tensor::Rows(h_zone, zone_of_);  // [n, hidden]
  return fusion_->Forward(tensor::Concat({h_seg, zone_context}, 1));
}

std::vector<Tensor> HrnrLite::Parameters() const {
  SARN_CHECK(!out_of_memory_);
  std::vector<Tensor> params = feature_embedding_->Parameters();
  for (const Tensor& p : segment_gat_->Parameters()) params.push_back(p);
  for (const Tensor& p : zone_gat_->Parameters()) params.push_back(p);
  for (const Tensor& p : fusion_->Parameters()) params.push_back(p);
  return params;
}

}  // namespace sarn::baselines

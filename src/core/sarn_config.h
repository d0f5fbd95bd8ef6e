// Hyper-parameters of the SARN model (paper §5.1 defaults; bench binaries
// scale the structural sizes down via environment overrides).

#ifndef SARN_CORE_SARN_CONFIG_H_
#define SARN_CORE_SARN_CONFIG_H_

#include <cstdint>
#include <string>

#include "geo/point.h"

namespace sarn::core {

struct SarnConfig {
  uint64_t seed = 42;

  // --- Input feature embedding (paper §4.3) ---------------------------------
  /// Width of each of the seven per-feature embeddings; d_f = 7 * this.
  int64_t feature_dim_per_feature = 12;

  // --- Graph encoder ----------------------------------------------------------
  /// GAT hidden width (multi-head concat width) and final embedding size d.
  /// Paper: d = 128, 3 layers, L = 4 heads.
  int64_t hidden_dim = 64;
  int64_t embedding_dim = 64;
  int gat_layers = 2;
  int gat_heads = 4;

  /// Projection head output d_z < d (Eq. 11).
  int64_t projection_dim = 32;
  /// Footnote-1 ablation: false replaces GAT attention with a uniform mean
  /// over neighbors (fixed-adjacency aggregation).
  bool use_attention = true;

  // --- Spatial similarity matrix (Eqs. 3-5) ------------------------------------
  double delta_ds_meters = 200.0;
  double delta_as_radians = geo::kPi / 8.0;
  /// Cap on spatial neighbours kept per segment (highest A^s first); keeps
  /// |A^s| on par with |A^t| as in the paper's Table 3. 0 builds no spatial
  /// edges at all: the SARN-w/o-M ablation (paper §5.4).
  int max_spatial_neighbors = 4;

  // --- Spatial importance-based augmentation (Eqs. 6-7) -------------------------
  double rho_t = 0.4;
  double rho_s = 0.4;
  /// The sigma_epsilon clamp of the corruption probabilities.
  double epsilon = 0.05;

  // --- Spatial distance-based negative sampling (§4.4) ---------------------------
  /// Grid cell side clen; paper uses 600-1200 m depending on the city.
  double cell_side_meters = 600.0;
  /// Total budget K across all cell queues (paper: 1000).
  int queue_budget = 1000;

  // --- Two-level loss (Eqs. 15-17) -------------------------------------------------
  double lambda = 0.4;
  double tau = 0.05;

  /// MoCo momentum m for the target encoder/head (Eq. 12).
  float momentum = 0.999f;

  // --- Training (Algorithm 1) ---------------------------------------------------
  int max_epochs = 40;
  int patience = 20;
  float learning_rate = 0.005f;
  int batch_size = 128;

  /// Negatives per anchor of the "random" sampler (plain InfoNCE).
  int random_negatives = 64;

  // --- Variant plane (DESIGN.md §16) ----------------------------------------------
  /// Registry names of the pluggable pieces, used verbatim as the model's
  /// variant tag. Encoders: "gat" (paper), "rfn". Augmentations:
  /// "spatial-importance" (paper), "third-law", "uniform-drop",
  /// "adaptive-drop". Negatives: "spatial" (paper: grid negatives with the
  /// two-level loss), "random" (SARN-w/o-NL), "in-batch", "all-vertex".
  std::string encoder = "gat";
  std::string augmentation = "spatial-importance";
  std::string negatives = "spatial";

  // --- "third-law" augmentation (arXiv 2406.04038) ---------------------------------
  /// Minimum midpoint distance for an injected far-pair edge.
  double third_law_radius_meters = 600.0;
  /// Minimum cosine similarity of dense feature vectors for a far pair.
  double third_law_min_similarity = 0.92;
  /// Far-pair edges kept per segment (best-similarity first).
  int third_law_neighbors = 2;

  // --- "uniform-drop" / "adaptive-drop" augmentations ------------------------------
  /// Edge-drop rate (uniform: exact Bernoulli rate; adaptive: mean rate).
  double edge_drop_rate = 0.2;
  /// Attribute-mask rate of "uniform-drop" (ids remapped to shared bin 0).
  double feature_mask_rate = 0.1;
};

}  // namespace sarn::core

namespace sarn::roadnet {
class RoadNetwork;
}

namespace sarn::core {

/// Scales `cell_side_meters` so the negative-sampling grid has roughly
/// `target_cells_per_axis` cells along the network's longer extent, clamped
/// to [150 m, 1200 m]. The paper picks clen per city (600-1200 m at 6-10 km
/// extents); this keeps the local/global negative balance when benches run
/// scaled-down networks.
void FitCellSideToNetwork(SarnConfig& config, const roadnet::RoadNetwork& network,
                          int target_cells_per_axis = 6);

}  // namespace sarn::core

#endif  // SARN_CORE_SARN_CONFIG_H_

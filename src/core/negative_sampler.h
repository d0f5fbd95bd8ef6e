// The pluggable negative-sampling / contrastive-loss policy of the plane
// (DESIGN.md §16). A NegativeSampler owns whatever negative state its loss
// needs (for SARN: the grid-based momentum queues) and turns one batch of
// online + target projections into the scalar contrastive loss.
//
// Registered policies (variant_registry.h):
//  * "spatial"    — the paper's two-level loss (Eqs. 15-17): local InfoNCE
//                   against same-cell queue entries plus global InfoNCE over
//                   cell aggregates, mixed by lambda. Owns the grid queues.
//  * "random"     — plain InfoNCE (Eq. 2) with `random_negatives` uniform
//                   draws from the queue pool (the SARN-w/o-NL ablation).
//  * "in-batch"   — symmetric NT-Xent over the batch (GraphCL's loss).
//  * "all-vertex" — cross entropy against every vertex's target projection
//                   (GCA's loss); the only policy that needs z'_all.

#ifndef SARN_CORE_NEGATIVE_SAMPLER_H_
#define SARN_CORE_NEGATIVE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/negative_queue.h"
#include "core/sarn_config.h"
#include "roadnet/road_network.h"
#include "tensor/tensor.h"

namespace sarn::core {

/// Measurement-only snapshot of the sampler's negative state, surfaced in
/// epoch telemetry. All zero for stateless policies.
struct NegativeSamplerStats {
  int64_t stored = 0;
  int64_t nonempty_cells = 0;
  uint64_t pushes = 0;
  uint64_t evictions = 0;
};

class NegativeSampler {
 public:
  virtual ~NegativeSampler() = default;
  virtual const char* name() const = 0;

  /// z: [m, d] online batch projections (row-normalized); z_prime: [m, d]
  /// target batch projections; z_prime_all: [n, d] target projections of
  /// every vertex — only materialized (non-empty) when NeedsAllProjections()
  /// is true. `rng` must be drawn from deterministically (checkpointed
  /// stream). Returns a scalar loss tensor.
  virtual tensor::Tensor ComputeLoss(const tensor::Tensor& z,
                                     const tensor::Tensor& z_prime,
                                     const tensor::Tensor& z_prime_all,
                                     const std::vector<int64_t>& batch,
                                     Rng& rng) const = 0;

  /// Whether ComputeLoss reads z_prime_all. When false the trainer releases
  /// the all-vertex projection buffer before the online forward pass — the
  /// pre-refactor allocation stream — so return false unless the loss truly
  /// needs every vertex.
  virtual bool NeedsAllProjections() const { return false; }

  /// Whether the trainer should slice + normalize the batch's momentum
  /// projections and Push them after each step (Algorithm 1 L15). False for
  /// stateless policies, sparing the per-batch copy.
  virtual bool WantsPushes() const { return false; }

  /// Offers one fresh momentum projection (post-step, L2-normalized) for the
  /// batch segment. Stateless policies ignore it.
  virtual void Push(int64_t segment, std::vector<float> embedding) {
    (void)segment;
    (void)embedding;
  }

  /// Negative-state serialization for training checkpoints. Stateless
  /// policies write/read nothing.
  virtual void SaveState(ByteWriter& out) const { (void)out; }
  virtual bool LoadState(ByteReader& in) {
    (void)in;
    return true;
  }

  /// Deep copy, for two-phase (stage-then-commit) checkpoint restore.
  virtual std::unique_ptr<NegativeSampler> Clone() const = 0;

  virtual NegativeSamplerStats Stats() const { return {}; }

  /// The backing queue store, if this policy has one (tests and benches
  /// introspect it); nullptr for stateless policies.
  virtual NegativeQueueStore* queue_store() { return nullptr; }
  const NegativeQueueStore* queue_store() const {
    return const_cast<NegativeSampler*>(this)->queue_store();
  }
};

/// The paper's two-level spatial loss over grid queues.
std::unique_ptr<NegativeSampler> MakeSpatialNegativeSampler(
    const roadnet::RoadNetwork& network, const SarnConfig& config);

/// Plain InfoNCE with uniform queue-pool negatives (SARN-w/o-NL).
std::unique_ptr<NegativeSampler> MakeRandomNegativeSampler(
    const roadnet::RoadNetwork& network, const SarnConfig& config);

/// Symmetric in-batch NT-Xent (GraphCL-style).
std::unique_ptr<NegativeSampler> MakeInBatchNegativeSampler(const SarnConfig& config);

/// All-vertex cross entropy (GCA-style).
std::unique_ptr<NegativeSampler> MakeAllVertexNegativeSampler(const SarnConfig& config);

}  // namespace sarn::core

#endif  // SARN_CORE_NEGATIVE_SAMPLER_H_

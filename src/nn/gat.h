// Graph attention network (Veličković et al., ICLR'18), the paper's graph
// encoder (§4.3, Eqs. 8-10).
//
// Edges are directed src -> dst: a vertex aggregates messages over its
// incoming edges, with attention coefficients normalised per destination
// (Eq. 10). SARN feeds the union of topological and spatial edges of an
// augmented graph view, so the attention weights subsume both edge types.

#ifndef SARN_NN_GAT_H_
#define SARN_NN_GAT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sarn::nn {

/// A directed edge list in struct-of-arrays form; src[k] -> dst[k].
struct EdgeList {
  std::vector<int64_t> src;
  std::vector<int64_t> dst;

  size_t size() const { return src.size(); }
  void Add(int64_t s, int64_t d) {
    src.push_back(s);
    dst.push_back(d);
  }

  /// This edge list with one self-loop per vertex appended, built lazily and
  /// cached on the instance: a GAT stack augments the same graph view once
  /// instead of once per layer per Forward call. The cache is invalidated
  /// when the edge count or vertex count changes (the only mutator, Add,
  /// changes the count). Copies share the cache. Not safe to call
  /// concurrently on the same instance (same contract as Tensor).
  const EdgeList& WithSelfLoops(int64_t num_vertices) const;

  /// `src` / `dst` grouped by vertex (tensor::GroupByIndex), the form the
  /// scatter ops take. Built lazily, range-checked once and cached on the
  /// instance under the same contract as WithSelfLoops, so a graph view is
  /// grouped once per Forward stack rather than once per op call.
  const tensor::IndexGroupsPtr& SrcGroups(int64_t num_vertices) const;
  const tensor::IndexGroupsPtr& DstGroups(int64_t num_vertices) const;

 private:
  mutable std::shared_ptr<const EdgeList> self_loop_cache_;
  mutable int64_t cached_vertices_ = -1;
  mutable size_t cached_edges_ = 0;
  mutable tensor::IndexGroupsPtr src_groups_;
  mutable tensor::IndexGroupsPtr dst_groups_;
};

/// One multi-head GAT layer.
class GatLayer : public Module {
 public:
  /// If `concat_heads`, the output is [n, num_heads * head_dim]; otherwise
  /// heads are averaged to [n, head_dim] (the paper's final-layer variant).
  /// `residual` adds a (linearly projected) skip connection from the layer
  /// input to its output before the activation — standard in GAT stacks; it
  /// preserves per-vertex identity against neighborhood over-smoothing.
  GatLayer(int64_t in_dim, int64_t head_dim, int num_heads, bool concat_heads,
           Activation activation, Rng& rng, float leaky_relu_slope = 0.2f,
           bool add_self_loops = true, bool residual = true,
           bool use_attention = true);

  /// Disables the learned attention scores: aggregation becomes a uniform
  /// mean over incoming edges (the paper's footnote-1 alternative of using
  /// fixed adjacency weights instead of attention).
  void set_use_attention(bool value) { use_attention_ = value; }

  /// x: [n, in_dim]; vertices referenced by `edges` must be < n.
  tensor::Tensor Forward(const tensor::Tensor& x, const EdgeList& edges) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int64_t output_dim() const {
    return concat_heads_ ? head_dim_ * num_heads_ : head_dim_;
  }

 private:
  int64_t head_dim_;
  int num_heads_;
  bool concat_heads_;
  Activation activation_;
  float leaky_relu_slope_;
  bool add_self_loops_;
  bool use_attention_;
  std::vector<tensor::Tensor> weight_;   // Per head: [in, head_dim].
  std::vector<tensor::Tensor> att_src_;  // Per head: [head_dim, 1].
  std::vector<tensor::Tensor> att_dst_;  // Per head: [head_dim, 1].
  tensor::Tensor residual_weight_;       // [in, output_dim] or undefined.
};

/// A stack of GAT layers: `num_layers - 1` concat-head ELU layers of width
/// `hidden_dim`, then one mean-head layer to `out_dim` (paper: 3 layers, 4
/// heads, ELU).
class GatEncoder : public Module {
 public:
  GatEncoder(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, int num_layers,
             int num_heads, Rng& rng, bool use_attention = true);

  tensor::Tensor Forward(const tensor::Tensor& x, const EdgeList& edges) const;

  std::vector<tensor::Tensor> Parameters() const override;

  /// Parameters of the final layer only (SARN* fine-tunes just this layer).
  std::vector<tensor::Tensor> FinalLayerParameters() const;

  int64_t out_dim() const { return layers_.back().output_dim(); }
  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<GatLayer> layers_;
};

}  // namespace sarn::nn

#endif  // SARN_NN_GAT_H_

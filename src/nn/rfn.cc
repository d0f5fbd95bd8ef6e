#include "nn/rfn.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace sarn::nn {
namespace {

using tensor::Tensor;

// Uniform-mean aggregation over a relation: for every destination vertex,
// the mean of its incoming sources' rows (softmax of constant scores =
// 1/deg per edge, the same trick GatLayer uses for its no-attention path).
// Vertices with no incoming edges of this relation get a zero row.
Tensor MeanAggregate(const Tensor& x, const EdgeList& edges, int64_t n) {
  int64_t e_count = static_cast<int64_t>(edges.size());
  const tensor::IndexGroupsPtr& dst = edges.DstGroups(n);
  Tensor alpha = tensor::EdgeSoftmax(Tensor::Zeros({e_count}), dst);
  Tensor messages = tensor::ScaleRows(tensor::GroupedRows(x, edges.SrcGroups(n)), alpha);
  return tensor::ScatterAddRows(messages, dst);  // [n, d]
}

}  // namespace

RfnLayer::RfnLayer(int64_t in_dim, int64_t out_dim, Activation activation, Rng& rng)
    : self_(in_dim, out_dim, rng),
      topo_(in_dim, out_dim, rng, /*bias=*/false),
      spatial_(in_dim, out_dim, rng, /*bias=*/false),
      activation_(activation) {}

Tensor RfnLayer::Forward(const Tensor& x, const EdgeList& topo,
                         const EdgeList& spatial) const {
  SARN_CHECK_EQ(x.shape().size(), 2u);
  int64_t n = x.shape()[0];
  Tensor out = self_.Forward(x);
  if (topo.size() > 0) {
    out = tensor::Add(out, topo_.Forward(MeanAggregate(x, topo, n)));
  }
  if (spatial.size() > 0) {
    out = tensor::Add(out, spatial_.Forward(MeanAggregate(x, spatial, n)));
  }
  return Apply(activation_, out);
}

std::vector<Tensor> RfnLayer::Parameters() const {
  std::vector<Tensor> params = self_.Parameters();
  for (const Tensor& p : topo_.Parameters()) params.push_back(p);
  for (const Tensor& p : spatial_.Parameters()) params.push_back(p);
  return params;
}

RfnEncoder::RfnEncoder(int64_t in_dim, int64_t hidden_dim, int64_t out_dim,
                       int num_layers, Rng& rng) {
  SARN_CHECK_GE(num_layers, 1);
  int64_t in = in_dim;
  for (int l = 0; l < num_layers - 1; ++l) {
    layers_.emplace_back(in, hidden_dim, Activation::kElu, rng);
    in = hidden_dim;
  }
  layers_.emplace_back(in, out_dim, Activation::kNone, rng);
}

Tensor RfnEncoder::Forward(const Tensor& x, const EdgeList& topo,
                           const EdgeList& spatial) const {
  Tensor h = x;
  for (const RfnLayer& layer : layers_) h = layer.Forward(h, topo, spatial);
  return h;
}

std::vector<Tensor> RfnEncoder::Parameters() const {
  std::vector<Tensor> params;
  for (const RfnLayer& layer : layers_) {
    for (const Tensor& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor> RfnEncoder::FinalLayerParameters() const {
  return layers_.back().Parameters();
}

}  // namespace sarn::nn

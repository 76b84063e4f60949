#include "src/core/models/gat.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/tensor/ops.h"

namespace seastar {

Gat::Gat(const Dataset& data, const GatConfig& config, std::shared_ptr<const Executor> executor)
    : data_(data), config_(config), rng_(config.seed) {
  SEASTAR_CHECK_GE(config.num_layers, 1);
  SEASTAR_CHECK(data.features.defined()) << "GAT needs vertex features";
  session_ = MakeSession(std::move(executor), data_.graph);
  features_ = Var::Leaf(data_.features, /*requires_grad=*/false);

  int64_t in_dim = data_.features.dim(1);
  for (int layer_index = 0; layer_index < config_.num_layers; ++layer_index) {
    const bool last = layer_index == config_.num_layers - 1;
    const int64_t heads = last ? 1 : config_.num_heads;
    const int64_t dim = last ? data_.spec.num_classes : config_.hidden_dim;

    // Each head's weights are drawn as a head of its own — W_h [in, dim]
    // with its Xavier fans, then a_l,h and a_r,h [dim, 1] — and laid into
    // the batched tensors.
    Tensor weight({in_dim, heads * dim});
    Tensor attn_left({heads, dim});
    Tensor attn_right({heads, dim});
    for (int64_t h = 0; h < heads; ++h) {
      const Tensor w = ops::XavierUniform(in_dim, dim, rng_);
      for (int64_t i = 0; i < in_dim; ++i) {
        std::memcpy(weight.data() + i * heads * dim + h * dim, w.data() + i * dim,
                    static_cast<size_t>(dim) * sizeof(float));
      }
      for (Tensor* attn : {&attn_left, &attn_right}) {
        const Tensor a = ops::XavierUniform(dim, 1, rng_);
        std::memcpy(attn->data() + h * dim, a.data(), static_cast<size_t>(dim) * sizeof(float));
      }
    }

    Layer layer;
    layer.weight = Var::Leaf(std::move(weight), /*requires_grad=*/true);
    layer.attn_left = Var::Leaf(std::move(attn_left), /*requires_grad=*/true);
    layer.attn_right = Var::Leaf(std::move(attn_right), /*requires_grad=*/true);

    // The vertex-centric attention kernel (paper Fig. 3), every head at
    // once: eu/ev carry one score per head, h the heads' features, and
    // a * h scales each head's features by that head's attention.
    //   e = [exp(LeakyRelu(u.eu + v.ev)) for u in v.innbs]
    //   a = [c / sum(e) for c in e]
    //   return sum(a[i] * u.h)
    GirBuilder b;
    const auto width = [](int64_t w) { return static_cast<int32_t>(w); };
    Value e = Exp(LeakyRelu(b.Src("eu", width(heads)) + b.Dst("ev", width(heads)),
                            config_.negative_slope));
    Value a = e / AggSum(e);
    b.MarkOutput(AggSum(a * b.Src("h", width(heads * dim))), "out");
    layer.program = VertexProgram::Compile(std::move(b));

    layers_.push_back(std::move(layer));
    in_dim = heads * dim;
  }
}

Var Gat::Forward(bool training) {
  Var h = features_;
  for (size_t layer_index = 0; layer_index < layers_.size(); ++layer_index) {
    const Layer& layer = layers_[layer_index];
    h = ag::Dropout(h, config_.feat_dropout, rng_, training);
    Var f = ag::Matmul(h, layer.weight);                  // [N, heads * dim]
    Var eu = ag::GroupedRowDot(f, layer.attn_left);      // [N, heads]
    Var ev = ag::GroupedRowDot(f, layer.attn_right);     // [N, heads]
    Var out = layer.program.Run({.vertex = {{"eu", eu}, {"ev", ev}, {"h", f}}}, session());
    h = layer_index + 1 == layers_.size() ? out : ag::Elu(out);
  }
  return h;
}

std::vector<Var> Gat::Parameters() const {
  std::vector<Var> params;
  for (const Layer& layer : layers_) {
    params.push_back(layer.weight);
    params.push_back(layer.attn_left);
    params.push_back(layer.attn_right);
  }
  return params;
}

}  // namespace seastar

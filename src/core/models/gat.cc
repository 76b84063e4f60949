#include "src/core/models/gat.h"

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
    const int heads = last ? 1 : config_.num_heads;
    const int64_t out_dim = last ? data_.spec.num_classes : config_.hidden_dim;

    Layer layer;
    for (int h = 0; h < heads; ++h) {
      Head head;
      head.projection = Linear(in_dim, out_dim, /*with_bias=*/false, rng_);
      head.attn_left = Var::Leaf(ops::XavierUniform(out_dim, 1, rng_), /*requires_grad=*/true);
      head.attn_right = Var::Leaf(ops::XavierUniform(out_dim, 1, rng_), /*requires_grad=*/true);
      layer.heads.push_back(std::move(head));
    }

    // The vertex-centric attention kernel (paper Fig. 3):
    //   e = [exp(LeakyRelu(u.eu + v.ev)) for u in v.innbs]
    //   a = [c / sum(e) for c in e]
    //   return sum(a[i] * u.h)
    GirBuilder b;
    Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), config_.negative_slope));
    Value a = e / AggSum(e);
    b.MarkOutput(AggSum(a * b.Src("h", static_cast<int32_t>(out_dim))), "out");
    layer.program = VertexProgram::Compile(std::move(b));

    layers_.push_back(std::move(layer));
    in_dim = out_dim * heads;
  }
}

Var Gat::RunHead(const Layer& layer, const Head& head, const Var& h) const {
  Var f = head.projection.Forward(h);          // [N, dim]
  Var eu = ag::Matmul(f, head.attn_left);      // [N, 1]
  Var ev = ag::Matmul(f, head.attn_right);     // [N, 1]
  return layer.program.Run({.vertex = {{"eu", eu}, {"ev", ev}, {"h", f}}}, session());
}

Var Gat::Forward(bool training) {
  Var h = features_;
  for (size_t layer_index = 0; layer_index < layers_.size(); ++layer_index) {
    const Layer& layer = layers_[layer_index];
    const bool last = layer_index + 1 == layers_.size();
    h = ag::Dropout(h, config_.feat_dropout, rng_, training);
    std::vector<Var> head_outputs;
    head_outputs.reserve(layer.heads.size());
    for (const Head& head : layer.heads) {
      head_outputs.push_back(RunHead(layer, head, h));
    }
    Var combined =
        head_outputs.size() == 1 ? head_outputs[0] : ag::ConcatCols(head_outputs);
    h = last ? combined : ag::Elu(combined);
  }
  return h;
}

std::vector<Var> Gat::Parameters() const {
  std::vector<Var> params;
  for (const Layer& layer : layers_) {
    for (const Head& head : layer.heads) {
      for (const Var& p : head.projection.Parameters()) {
        params.push_back(p);
      }
      params.push_back(head.attn_left);
      params.push_back(head.attn_right);
    }
  }
  return params;
}

}  // namespace seastar

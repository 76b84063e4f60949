#include "src/core/models/gin.h"

#include "src/common/logging.h"

namespace seastar {

Gin::Gin(const Dataset& data, const GinConfig& config, std::shared_ptr<const Executor> executor)
    : data_(data), config_(config), rng_(config.seed) {
  SEASTAR_CHECK(data.features.defined()) << "GIN needs vertex features";
  session_ = MakeSession(std::move(executor), data_.graph);
  features_ = Var::Leaf(data_.features, /*requires_grad=*/false);

  int64_t in_dim = data_.features.dim(1);
  for (int layer_index = 0; layer_index < config_.num_layers; ++layer_index) {
    const bool last = layer_index == config_.num_layers - 1;
    const int64_t out_dim = last ? data_.spec.num_classes : config_.hidden_dim;

    Layer layer;
    // (1 + eps) * v.h + sum over in-neighbors — the whole graph part of GIN.
    GirBuilder b;
    const int32_t width = static_cast<int32_t>(in_dim);
    b.MarkOutput(AggSum(b.Src("h", width)) + b.Dst("h", width) * (1.0f + config_.epsilon),
                 "out");
    layer.program = VertexProgram::Compile(std::move(b));
    layer.mlp_hidden = Linear(in_dim, config_.hidden_dim, /*with_bias=*/true, rng_);
    layer.mlp_out = Linear(config_.hidden_dim, out_dim, /*with_bias=*/true, rng_);
    layers_.push_back(std::move(layer));
    in_dim = out_dim;
  }
}

Var Gin::Forward(bool training) {
  Var h = features_;
  for (size_t layer_index = 0; layer_index < layers_.size(); ++layer_index) {
    const Layer& layer = layers_[layer_index];
    const bool last = layer_index + 1 == layers_.size();
    Var aggregated = layer.program.Run({.vertex = {{"h", h}}}, session());
    h = layer.mlp_out.Forward(ag::Relu(layer.mlp_hidden.Forward(aggregated)));
    if (!last) {
      h = ag::Relu(h);
      h = ag::Dropout(h, config_.dropout, rng_, training);
    }
  }
  return h;
}

std::vector<Var> Gin::Parameters() const {
  std::vector<Var> params;
  for (const Layer& layer : layers_) {
    for (const Var& p : layer.mlp_hidden.Parameters()) {
      params.push_back(p);
    }
    for (const Var& p : layer.mlp_out.Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

}  // namespace seastar

#include "src/core/models/sage.h"

#include "src/common/logging.h"

namespace seastar {

Sage::Sage(const Dataset& data, const SageConfig& config,
           std::shared_ptr<const Executor> executor)
    : data_(data), config_(config), rng_(config.seed) {
  SEASTAR_CHECK(data.features.defined()) << "GraphSAGE needs vertex features";
  session_ = MakeSession(std::move(executor), data_.graph);
  features_ = Var::Leaf(data_.features, /*requires_grad=*/false);

  int64_t in_dim = data_.features.dim(1);
  for (int layer_index = 0; layer_index < config_.num_layers; ++layer_index) {
    const bool last = layer_index == config_.num_layers - 1;
    const int64_t out_dim = last ? data_.spec.num_classes : config_.hidden_dim;

    Layer layer;
    // Aggregation runs on the *input* width (the transform follows it), so
    // the kernel width is in_dim for mean, and the pool width for pool.
    if (config_.aggregator == SageAggregator::kMean) {
      GirBuilder b;
      b.MarkOutput(AggMean(b.Src("h", static_cast<int32_t>(in_dim))), "out");
      layer.program = VertexProgram::Compile(std::move(b));
      layer.neighbor_transform = Linear(in_dim, out_dim, /*with_bias=*/false, rng_);
    } else {
      const int64_t pool_dim = config_.hidden_dim;
      layer.pool_transform = Linear(in_dim, pool_dim, /*with_bias=*/true, rng_);
      GirBuilder b;
      b.MarkOutput(AggMax(Relu(b.Src("p", static_cast<int32_t>(pool_dim)))), "out");
      layer.program = VertexProgram::Compile(std::move(b));
      layer.neighbor_transform = Linear(pool_dim, out_dim, /*with_bias=*/false, rng_);
    }
    layer.self_transform = Linear(in_dim, out_dim, /*with_bias=*/true, rng_);
    layers_.push_back(std::move(layer));
    in_dim = out_dim;
  }
}

Var Sage::Forward(bool training) {
  Var h = features_;
  for (size_t layer_index = 0; layer_index < layers_.size(); ++layer_index) {
    const Layer& layer = layers_[layer_index];
    const bool last = layer_index + 1 == layers_.size();
    h = ag::Dropout(h, config_.dropout, rng_, training);

    Var aggregated;
    if (config_.aggregator == SageAggregator::kMean) {
      aggregated = layer.program.Run({.vertex = {{"h", h}}}, session());
    } else {
      Var pooled_in = layer.pool_transform.Forward(h);
      aggregated = layer.program.Run({.vertex = {{"p", pooled_in}}}, session());
    }
    h = ag::Add(layer.self_transform.Forward(h), layer.neighbor_transform.Forward(aggregated));
    if (!last) {
      h = ag::Relu(h);
    }
  }
  return h;
}

std::vector<Var> Sage::Parameters() const {
  std::vector<Var> params;
  for (const Layer& layer : layers_) {
    for (const Var& p : layer.self_transform.Parameters()) {
      params.push_back(p);
    }
    for (const Var& p : layer.neighbor_transform.Parameters()) {
      params.push_back(p);
    }
    if (config_.aggregator == SageAggregator::kPool) {
      for (const Var& p : layer.pool_transform.Parameters()) {
        params.push_back(p);
      }
    }
  }
  return params;
}

}  // namespace seastar

#include "src/core/models/gcn.h"

#include "src/common/logging.h"

namespace seastar {

Gcn::Gcn(const Dataset& data, const GcnConfig& config, std::shared_ptr<const Executor> executor)
    : data_(data), config_(config), rng_(config.seed) {
  SEASTAR_CHECK_GE(config.num_layers, 1);
  SEASTAR_CHECK(data.features.defined()) << "GCN needs vertex features";
  session_ = MakeSession(std::move(executor), data_.graph);

  features_ = Var::Leaf(data_.features, /*requires_grad=*/false);
  norm_ = Var::Leaf(data_.gcn_norm, /*requires_grad=*/false);

  int64_t in_dim = data_.features.dim(1);
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    const bool last = layer == config_.num_layers - 1;
    const int64_t out_dim = last ? data_.spec.num_classes : config_.hidden_dim;
    layers_.emplace_back(in_dim, out_dim, /*with_bias=*/false, rng_);
    biases_.push_back(Var::Leaf(Tensor::Zeros({out_dim}), /*requires_grad=*/true));

    // The vertex-centric aggregation of paper Fig. 3, one line:
    //   sum([u.h * u.norm for u in v.innbs])
    GirBuilder b;
    b.MarkOutput(AggSum(b.Src("h", static_cast<int32_t>(out_dim)) * b.Src("norm", 1)), "out");
    programs_.push_back(VertexProgram::Compile(std::move(b)));

    in_dim = out_dim;
  }
}

Var Gcn::Forward(bool training) {
  Var h = features_;
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const bool last = layer + 1 == layers_.size();
    h = ag::Dropout(h, config_.dropout, rng_, training);
    Var transformed = layers_[layer].Forward(h);
    Var aggregated =
        programs_[layer].Run({.vertex = {{"h", transformed}, {"norm", norm_}}}, session_);
    h = ag::AddRowBroadcast(aggregated, biases_[layer]);
    if (!last) {
      h = ag::Relu(h);
    }
  }
  return h;
}

std::vector<Var> Gcn::Parameters() const {
  std::vector<Var> params;
  for (const Linear& layer : layers_) {
    for (const Var& p : layer.Parameters()) {
      params.push_back(p);
    }
  }
  for (const Var& b : biases_) {
    params.push_back(b);
  }
  return params;
}

}  // namespace seastar

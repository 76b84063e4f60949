#include "src/core/models/appnp.h"

#include "src/common/logging.h"

namespace seastar {

Appnp::Appnp(const Dataset& data, const AppnpConfig& config,
             std::shared_ptr<const Executor> executor)
    : data_(data), config_(config), rng_(config.seed) {
  SEASTAR_CHECK(data.features.defined()) << "APPNP needs vertex features";
  session_ = MakeSession(std::move(executor), data_.graph);
  features_ = Var::Leaf(data_.features, /*requires_grad=*/false);
  norm_ = Var::Leaf(data_.gcn_norm, /*requires_grad=*/false);

  mlp_in_ = Linear(data_.features.dim(1), config_.hidden_dim, /*with_bias=*/true, rng_);
  mlp_out_ = Linear(config_.hidden_dim, data_.spec.num_classes, /*with_bias=*/true, rng_);

  // One propagation step, vertex-centric:
  //   (1 - alpha) * v.norm * sum([u.h * u.norm for u in v.innbs]) + alpha * v.h0
  GirBuilder b;
  const int32_t width = static_cast<int32_t>(data_.spec.num_classes);
  Value propagated = AggSum(b.Src("h", width) * b.Src("norm", 1)) * b.Dst("norm", 1);
  Value out = propagated * (1.0f - config_.alpha) + b.Dst("h0", width) * config_.alpha;
  b.MarkOutput(out, "out");
  propagate_ = VertexProgram::Compile(std::move(b));
}

Var Appnp::Forward(bool training) {
  Var h = ag::Dropout(features_, config_.dropout, rng_, training);
  h = ag::Relu(mlp_in_.Forward(h));
  h = ag::Dropout(h, config_.dropout, rng_, training);
  Var h0 = mlp_out_.Forward(h);

  Var h_k = h0;
  for (int hop = 0; hop < config_.num_hops; ++hop) {
    h_k = propagate_.Run({.vertex = {{"h", h_k}, {"norm", norm_}, {"h0", h0}}}, session());
  }
  return h_k;
}

std::vector<Var> Appnp::Parameters() const {
  std::vector<Var> params;
  for (const Var& p : mlp_in_.Parameters()) {
    params.push_back(p);
  }
  for (const Var& p : mlp_out_.Parameters()) {
    params.push_back(p);
  }
  return params;
}

}  // namespace seastar

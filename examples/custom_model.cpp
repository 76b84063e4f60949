// Custom-model example: the point of the vertex-centric frontend is that a
// *new* GNN layer is a few lines of per-vertex math, not a new CUDA kernel.
//
// Here we define a model that does not ship with DGL/PyG: an edge-weighted
// max-pool GNN with a gated residual,
//
//   m_v   = max_{u in N(v)} tanh(h_u * w_uv)          (max-pool aggregation)
//   gate  = sigmoid(AggMean of neighbors)             (soft degree gate)
//   h_v'  = m_v * gate + h_v
//
// written directly against GirBuilder, compiled once, differentiated by the
// GIR autodiff, and trained end-to-end. Run:
//
//   ./custom_model [--epochs=40]
#include <cstdio>

#include "src/common/string_util.h"
#include "src/core/executor_factory.h"
#include "src/core/nn.h"
#include "src/core/program.h"
#include "src/core/train.h"
#include "src/graph/datasets.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

class MaxPoolGnn : public GnnModel {
 public:
  MaxPoolGnn(const Dataset& data, int64_t hidden, std::shared_ptr<const Executor> executor)
      : data_(data), rng_(7) {
    session_ = MakeSession(std::move(executor), data.graph);
    in_layer_ = Linear(data.features.dim(1), hidden, /*with_bias=*/true, rng_);
    out_layer_ = Linear(hidden, data.spec.num_classes, /*with_bias=*/true, rng_);
    features_ = Var::Leaf(data.features, /*requires_grad=*/false);

    // Random (fixed) edge weights standing in for, e.g., interaction
    // strengths in a recommendation graph.
    edge_weight_ = Var::Leaf(
        ops::RandomUniform({data.graph.num_edges(), 1}, 0.5f, 1.5f, rng_), false);

    // The custom layer, written like the paper's UDFs: per-vertex math over
    // neighbors, types inferred, fusion automatic.
    GirBuilder b;
    Value h = b.Src("h", static_cast<int32_t>(hidden));
    Value w = b.Edge("w", 1);
    Value pooled = AggMax(Tanh(h * w));
    Value gate = Sigmoid(AggMean(h));
    b.MarkOutput(pooled * gate + b.Dst("h", static_cast<int32_t>(hidden)), "out");
    program_ = VertexProgram::Compile(std::move(b));
  }

  Var Forward(bool training) override {
    Var h = ag::Relu(in_layer_.Forward(features_));
    h = program_.Run({.vertex = {{"h", h}}, .edge = {{"w", edge_weight_}}}, session());
    return out_layer_.Forward(h);
  }

  std::vector<Var> Parameters() const override {
    std::vector<Var> params = in_layer_.Parameters();
    for (const Var& p : out_layer_.Parameters()) {
      params.push_back(p);
    }
    return params;
  }

  const char* name() const override { return "MaxPoolGNN"; }

 private:
  const Dataset& data_;
  Rng rng_;
  Linear in_layer_;
  Linear out_layer_;
  Var features_;
  Var edge_weight_;
  VertexProgram program_;
};

}  // namespace
}  // namespace seastar

int main(int argc, char** argv) {
  using namespace seastar;
  const int epochs = static_cast<int>(FlagInt(argc, argv, "epochs", 40));

  DatasetOptions options;
  options.max_feature_dim = 128;
  Dataset data = MakeDatasetByName("amz_photo", options);
  std::printf("dataset: %s\n", data.graph.DebugString().c_str());

  MaxPoolGnn model(data, /*hidden=*/32,
                   std::move(*ExecutorFactory::Create("seastar")));  // Seastar by default.

  TrainConfig train;
  train.epochs = epochs;
  train.verbose = true;
  TrainResult result = TrainNodeClassification(model, data, train);

  std::printf("\nfinal loss %.4f, train accuracy %.3f, %.2f ms/epoch\n", result.final_loss,
              result.train_accuracy, result.avg_epoch_ms);
  return 0;
}

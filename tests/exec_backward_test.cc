// End-to-end gradient checks: backward GIRs (built by GIR autodiff, fused by
// the FSM, executed by each backend) are validated against central finite
// differences of the forward program, and the backends are cross-checked
// against one another — including the baselines' saved-tensor path (the
// backward reading their forward values as leaves).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/common/rng.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/gir/passes.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

struct Program {
  GirGraph forward;
  BackwardGir backward;
};

Program Finalize(GirBuilder&& builder) {
  Program p;
  PassResult passes = RunStandardPasses(builder.graph());
  p.forward = std::move(passes.graph);
  p.backward = BuildBackward(p.forward, p.forward.outputs()[0]);
  OptimizeBackward(&p.backward);
  return p;
}

Graph SmallGraph(uint64_t seed, int64_t n = 12, int64_t m = 40) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

// Sum-of-outputs loss evaluated with the Seastar executor.
float ForwardLoss(const Program& p, const Graph& g, const FeatureMap& features) {
  SeastarExecutor ex;
  RunResult result = ex.Run(p.forward, g, features);
  return ops::SumAll(result.outputs.begin()->second);
}

// Backward pass with grad(out) = 1, returning grads per input-grad name.
std::map<std::string, Tensor> BackwardGrads(const Program& p, const Graph& g,
                                            FeatureMap features, const Tensor& out_shape_like) {
  features.vertex[kGradInputKey] = Tensor::Ones(out_shape_like.shape());
  SeastarExecutor ex;
  RunResult result = ex.Run(p.backward.graph, g, features);
  std::map<std::string, Tensor> grads;
  for (const InputGradInfo& info : p.backward.input_grads) {
    const Tensor& piece = result.outputs.at(info.output_name);
    auto it = grads.find(info.key);
    if (it == grads.end()) {
      grads[info.key] = piece.Clone();
    } else {
      // The same tensor accessed from both endpoints (e.g. APPNP's norm as
      // u.norm and v.norm): total gradient is the sum of both access grads.
      it->second = ops::Add(it->second, piece);
    }
  }
  return grads;
}

void CheckInputGradient(const Program& p, const Graph& g, FeatureMap& features,
                        const std::string& key, const Tensor& analytic, float eps = 1e-2f,
                        float tol = 3e-2f) {
  Tensor& value = features.vertex.at(key);
  ASSERT_EQ(analytic.shape(), value.shape()) << key;
  for (int64_t i = 0; i < value.numel(); ++i) {
    const float saved = value.at(i);
    value.at(i) = saved + eps;
    const float up = ForwardLoss(p, g, features);
    value.at(i) = saved - eps;
    const float down = ForwardLoss(p, g, features);
    value.at(i) = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic.at(i), numeric, tol * std::max(1.0f, std::fabs(numeric)))
        << key << " element " << i;
  }
}

TEST(ExecBackwardTest, GcnGradientsMatchFiniteDifferences) {
  Graph g = SmallGraph(1);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 3) * b.Src("norm", 1)), "out");
  Program p = Finalize(std::move(b));

  Rng rng(2);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 3}, 0, 1, rng);
  features.vertex["norm"] = ops::RandomUniform({g.num_vertices(), 1}, 0.5f, 1.5f, rng);

  SeastarExecutor ex;
  Tensor out = ex.Run(p.forward, g, features).outputs.at("out");
  auto grads = BackwardGrads(p, g, features, out);
  CheckInputGradient(p, g, features, "h", grads.at("h"));
  CheckInputGradient(p, g, features, "norm", grads.at("norm"));
}

TEST(ExecBackwardTest, GatGradientsMatchFiniteDifferences) {
  Graph g = SmallGraph(3);
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  Value a = e / AggSum(e);
  b.MarkOutput(AggSum(a * b.Src("h", 3)), "out");
  Program p = Finalize(std::move(b));

  Rng rng(4);
  FeatureMap features;
  features.vertex["eu"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 0.5f, rng);
  features.vertex["ev"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 0.5f, rng);
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 3}, 0, 1, rng);

  SeastarExecutor ex;
  Tensor out = ex.Run(p.forward, g, features).outputs.at("out");
  auto grads = BackwardGrads(p, g, features, out);
  CheckInputGradient(p, g, features, "h", grads.at("h"));
  CheckInputGradient(p, g, features, "eu", grads.at("eu"), 1e-2f, 5e-2f);
  CheckInputGradient(p, g, features, "ev", grads.at("ev"), 1e-2f, 5e-2f);
}

TEST(ExecBackwardTest, AppnpStyleGradients) {
  // (1-alpha) * AggSum(u.h * u.norm) * v.norm + alpha * v.h0
  Graph g = SmallGraph(5);
  GirBuilder b;
  Value prop = AggSum(b.Src("h", 3) * b.Src("norm", 1)) * b.Dst("norm", 1);
  b.MarkOutput(prop * 0.9f + b.Dst("h0", 3) * 0.1f, "out");
  Program p = Finalize(std::move(b));

  Rng rng(6);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 3}, 0, 1, rng);
  features.vertex["h0"] = ops::RandomNormal({g.num_vertices(), 3}, 0, 1, rng);
  features.vertex["norm"] = ops::RandomUniform({g.num_vertices(), 1}, 0.5f, 1.5f, rng);

  SeastarExecutor ex;
  Tensor out = ex.Run(p.forward, g, features).outputs.at("out");
  auto grads = BackwardGrads(p, g, features, out);
  CheckInputGradient(p, g, features, "h", grads.at("h"));
  CheckInputGradient(p, g, features, "h0", grads.at("h0"));
  CheckInputGradient(p, g, features, "norm", grads.at("norm"), 1e-2f, 5e-2f);
}

TEST(ExecBackwardTest, MeanAggregationGradients) {
  Graph g = SmallGraph(7);
  GirBuilder b;
  b.MarkOutput(AggMean(Tanh(b.Src("h", 2))), "out");
  Program p = Finalize(std::move(b));
  Rng rng(8);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 2}, 0, 1, rng);
  SeastarExecutor ex;
  Tensor out = ex.Run(p.forward, g, features).outputs.at("out");
  auto grads = BackwardGrads(p, g, features, out);
  CheckInputGradient(p, g, features, "h", grads.at("h"));
}

TEST(ExecBackwardTest, AllBackendsComputeSameGradients) {
  Graph g = SmallGraph(9, 40, 200);
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  Value a = e / AggSum(e);
  b.MarkOutput(AggSum(a * b.Src("h", 4)), "out");
  Program p = Finalize(std::move(b));

  Rng rng(10);
  FeatureMap features;
  features.vertex["eu"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 0.5f, rng);
  features.vertex["ev"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 0.5f, rng);
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0, 1, rng);

  SeastarExecutor seastar;
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  BaselineExecutor pyg({BaselineFlavor::kPygLike});

  Tensor out = seastar.Run(p.forward, g, features).outputs.at("out");
  FeatureMap bwd_features = features;
  bwd_features.vertex[kGradInputKey] = Tensor::Ones(out.shape());

  RunResult rs = seastar.Run(p.backward.graph, g, bwd_features);

  // Baselines: forward first to collect saved tensors, then run the
  // backward that reads them as leaves (autograd's saved-tensor path).
  for (BaselineExecutor* baseline : {&dgl, &pyg}) {
    RunResult fwd = baseline->Run(p.forward, g, features);
    std::vector<int32_t> saved;
    for (const Node& node : p.forward.nodes()) {
      if (p.backward.forward_copy[static_cast<size_t>(node.id)] >= 0 && !IsLeaf(node.kind) &&
          node.type != GraphType::kParam && fwd.saved->count(node.id) > 0) {
        saved.push_back(node.id);
      }
    }
    ASSERT_FALSE(saved.empty());
    const BackwardGir reading = ReadSavedValues(p.backward, saved);
    FeatureMap reading_features = bwd_features;
    for (int32_t id : saved) {
      if (reading.forward_copy[static_cast<size_t>(id)] >= 0) {
        (p.forward.node(id).type == GraphType::kEdge ? reading_features.edge
                                                      : reading_features.vertex)
            [SavedValueKey(id)] = fwd.saved->at(id);
      }
    }
    RunResult rb = baseline->Run(reading.graph, g, reading_features);
    for (const InputGradInfo& info : p.backward.input_grads) {
      SCOPED_TRACE(info.output_name);
      EXPECT_TRUE(rs.outputs.at(info.output_name).AllClose(rb.outputs.at(info.output_name), 1e-3f));
    }
  }
}

TEST(ExecBackwardTest, EdgeFeatureGradientIsEdgeTensor) {
  Graph g = SmallGraph(11);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Edge("w", 1) * b.Src("h", 2)), "out");
  Program p = Finalize(std::move(b));
  Rng rng(12);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 2}, 0, 1, rng);
  features.edge["w"] = ops::RandomNormal({g.num_edges(), 1}, 0, 1, rng);

  SeastarExecutor ex;
  Tensor out = ex.Run(p.forward, g, features).outputs.at("out");
  FeatureMap bwd = features;
  bwd.vertex[kGradInputKey] = Tensor::Ones(out.shape());
  RunResult result = ex.Run(p.backward.graph, g, bwd);
  const InputGradInfo* w_info = nullptr;
  for (const InputGradInfo& info : p.backward.input_grads) {
    if (info.key == "w") {
      w_info = &info;
    }
  }
  ASSERT_NE(w_info, nullptr);
  const Tensor& grad_w = result.outputs.at(w_info->output_name);
  ASSERT_EQ(grad_w.dim(0), g.num_edges());
  // d out / d w_e = sum_j h[src(e)][j].
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    const int32_t src = g.edge_src()[static_cast<size_t>(e)];
    const float expected =
        features.vertex["h"].at(src, 0) + features.vertex["h"].at(src, 1);
    EXPECT_NEAR(grad_w.at(e, 0), expected, 1e-4) << e;
  }
}

TEST(ExecBackwardTest, ResidualConnectionGradIsIdentity) {
  // out = AggSum(u.h) + v.h — the gradient of the v.h access is exactly the
  // incoming output gradient (identity adjoint), which reaches the backward
  // outputs as a leaf. Regression test for output-materialization of leaves.
  Graph g = SmallGraph(15);
  GirBuilder b;
  Value h_src = b.Src("h", 2);
  b.MarkOutput(AggSum(h_src) + b.Dst("h", 2), "out");
  Program p = Finalize(std::move(b));
  Rng rng(16);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 2}, 0, 1, rng);
  SeastarExecutor ex;
  Tensor out = ex.Run(p.forward, g, features).outputs.at("out");
  auto grads = BackwardGrads(p, g, features, out);
  CheckInputGradient(p, g, features, "h", grads.at("h"));
}

TEST(ExecBackwardTest, CustomMaxPoolGateGradients) {
  // The custom_model example's layer: max-pool + mean gate + residual.
  Graph g = SmallGraph(17);
  GirBuilder b;
  Value h = b.Src("h", 2);
  Value w = b.Edge("w", 1);
  Value pooled = AggMax(Tanh(h * w));
  Value gate = Sigmoid(AggMean(h));
  b.MarkOutput(pooled * gate + b.Dst("h", 2), "out");
  Program p = Finalize(std::move(b));
  Rng rng(18);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 2}, 0, 1, rng);
  features.edge["w"] = ops::RandomUniform({g.num_edges(), 1}, 0.5f, 1.5f, rng);
  SeastarExecutor ex;
  Tensor out = ex.Run(p.forward, g, features).outputs.at("out");
  auto grads = BackwardGrads(p, g, features, out);
  // Max-pool kinks make finite differences unreliable exactly at ties; the
  // random floats here make ties measure-zero, and tolerance absorbs noise.
  CheckInputGradient(p, g, features, "h", grads.at("h"), 1e-3f, 5e-2f);
}

TEST(ExecBackwardTest, FusionOnOffGradientsIdentical) {
  Graph g = SmallGraph(13, 30, 150);
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  b.MarkOutput(AggSum(e / AggSum(e) * b.Src("h", 4)), "out");
  Program p = Finalize(std::move(b));
  Rng rng(14);
  FeatureMap features;
  features.vertex["eu"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 0.5f, rng);
  features.vertex["ev"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 0.5f, rng);
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0, 1, rng);
  SeastarExecutor fused;
  SeastarExecutorOptions opts;
  opts.enable_fusion = false;
  SeastarExecutor unfused(opts);
  Tensor out = fused.Run(p.forward, g, features).outputs.at("out");
  FeatureMap bwd = features;
  bwd.vertex[kGradInputKey] = Tensor::Ones(out.shape());
  RunResult a = fused.Run(p.backward.graph, g, bwd);
  RunResult c = unfused.Run(p.backward.graph, g, bwd);
  for (const InputGradInfo& info : p.backward.input_grads) {
    EXPECT_TRUE(a.outputs.at(info.output_name).AllClose(c.outputs.at(info.output_name), 1e-4f))
        << info.output_name;
  }
}

}  // namespace
}  // namespace seastar

// Tests for the legacy backend names (src/core/backend.h), VertexProgram
// input validation and its requires-grad-restricted backward
// (src/core/program.h). The first suites' names are kept from the tests'
// previous file so their ids stay stable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/core/executor_factory.h"
#include "src/core/program.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

// ---- VertexProgram input validation --------------------------------------

TEST(ProfilerDeathTest, MissingProgramInputNamesTheInput) {
  const Graph g = RandomGraph(20, 60, 0xdead);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  VertexProgram program = VertexProgram::Compile(std::move(b));
  const ExecutionSession session = MakeSession(*ExecutorFactory::Create("seastar"), g);
  EXPECT_DEATH(program.Run({}, session), "missing vertex input 'h'");
}

TEST(ProfilerDeathTest, MisShapedProgramInputNamesTheInput) {
  const Graph g = RandomGraph(20, 60, 0xdeae);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  VertexProgram program = VertexProgram::Compile(std::move(b));
  const ExecutionSession session = MakeSession(*ExecutorFactory::Create("seastar"), g);
  // Wrong width (3 != 4).
  Var bad_width = Var::Leaf(Tensor::Zeros({g.num_vertices(), 3}), /*requires_grad=*/false);
  EXPECT_DEATH(program.Run({.vertex = {{"h", bad_width}}}, session),
               "vertex input 'h' has shape");
  // Wrong row count (vertex tensor sized for a different graph).
  Var bad_rows = Var::Leaf(Tensor::Zeros({g.num_vertices() + 1, 4}), /*requires_grad=*/false);
  EXPECT_DEATH(program.Run({.vertex = {{"h", bad_rows}}}, session),
               "vertex input 'h' has shape");
}

// ---- Backward restricted to the inputs that require grad ------------------

bool HasOp(const GirGraph& gir, OpKind kind) {
  for (const Node& node : gir.nodes()) {
    if (node.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(VertexProgramGradTest, GcnComputesNoGradientForANormThatNeedsNone) {
  const Graph g = RandomGraph(40, 200, 0x6c17);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 10) * b.Src("norm", 1)), "out");
  const VertexProgram program = VertexProgram::Compile(std::move(b));

  // The full backward GIR carries norm's DotProduct; restricted to h it does
  // not, and that restriction is built once.
  std::vector<bool> h_only;
  for (const InputGradInfo& info : program.backward().input_grads) {
    h_only.push_back(info.key == "h");
  }
  ASSERT_EQ(h_only.size(), 2u);
  EXPECT_TRUE(HasOp(program.backward().graph, OpKind::kDotProduct));
  const std::shared_ptr<const BackwardGir> restricted = program.backward(h_only);
  EXPECT_FALSE(HasOp(restricted->graph, OpKind::kDotProduct));
  ASSERT_EQ(restricted->input_grads.size(), 1u);
  EXPECT_EQ(restricted->input_grads[0].key, "h");
  EXPECT_EQ(program.backward(h_only), restricted);

  Rng rng(0x6c18);
  const Tensor h = ops::RandomNormal({g.num_vertices(), 10}, 0, 1, rng);
  Tensor norm = ops::RandomUniform({g.num_vertices(), 1}, 0.5f, 1.5f, rng);
  const ExecutionSession session = MakeSession(ExecutorFactory::Create("seastar").value(), g);
  // Sum-of-outputs loss; returns h's and norm's gradients.
  const auto grads = [&](bool norm_requires_grad) {
    Var hv = Var::Leaf(h, /*requires_grad=*/true);
    Var nv = Var::Leaf(norm, norm_requires_grad);
    Var out = program.Run({.vertex = {{"h", hv}, {"norm", nv}}}, session);
    // Only inputs that need a gradient are on the tape.
    EXPECT_EQ(out.node()->inputs.size(), norm_requires_grad ? 2u : 1u);
    Backward(out, Tensor::Ones(out.value().shape()));
    return std::make_pair(hv.grad(), nv.grad());
  };
  const auto [h_grad, no_norm_grad] = grads(false);
  EXPECT_FALSE(no_norm_grad.defined());
  const auto [h_grad_full, norm_grad] = grads(true);
  ASSERT_EQ(h_grad.shape(), h_grad_full.shape());
  EXPECT_EQ(std::memcmp(h_grad.data(), h_grad_full.data(), h.numel() * sizeof(float)), 0);

  // norm's gradient, when asked for, still matches central differences.
  ASSERT_TRUE(norm_grad.defined());
  const auto loss = [&]() {
    const Var hv = Var::Leaf(h, /*requires_grad=*/false);
    const Var nv = Var::Leaf(norm, /*requires_grad=*/false);
    return ops::SumAll(program.Run({.vertex = {{"h", hv}, {"norm", nv}}}, session).value());
  };
  constexpr float kEps = 1e-2f;
  for (int64_t i = 0; i < norm.numel(); ++i) {
    const float saved = norm.at(i);
    norm.at(i) = saved + kEps;
    const float up = loss();
    norm.at(i) = saved - kEps;
    const float down = loss();
    norm.at(i) = saved;
    const float numeric = (up - down) / (2.0f * kEps);
    EXPECT_NEAR(norm_grad.at(i), numeric, 3e-2f * std::max(1.0f, std::fabs(numeric)))
        << "norm element " << i;
  }
}

}  // namespace
}  // namespace seastar

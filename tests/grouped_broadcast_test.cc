// The GIR's grouped broadcast: a width-g operand against a width-g*k one,
// element c against the wide operand's group [c*k, (c+1)*k). Covers the
// width rule, its adjoints (grouped DotProduct / ReduceWidthSum), the
// grouped Axpy reducer, parity across every executor, finite-difference
// gradients, and the property the head-batched GAT rests on: a grouped
// program computes, group by group, the bits of the per-group programs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/executor_factory.h"
#include "src/core/program.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/compiled_program.h"
#include "src/exec/seastar_executor.h"
#include "src/exec/tiling.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/gir/fusion.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

// Restores the process-wide tiling flag on scope exit.
class TilingFlagGuard {
 public:
  TilingFlagGuard() : saved_(TilingEnabled()) {}
  ~TilingFlagGuard() { SetTilingEnabled(saved_); }

 private:
  bool saved_;
};

Graph TestGraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  CooEdges edges = Rmat(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), a.nbytes()) == 0;
}

// Columns [c * w, (c + 1) * w) of a [N, g * w] tensor.
Tensor ColumnBlock(const Tensor& t, int64_t c, int64_t w) {
  const int64_t n = t.dim(0);
  const int64_t total = t.dim(1);
  Tensor out({n, w});
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * w, t.data() + i * total + c * w,
                static_cast<size_t>(w) * sizeof(float));
  }
  return out;
}

// GAT's attention program (paper Fig. 3) at `heads` x `dim`.
VertexProgram GatProgram(int32_t heads, int32_t dim) {
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", heads) + b.Dst("ev", heads), 0.2f));
  Value a = e / AggSum(e);
  b.MarkOutput(AggSum(a * b.Src("h", heads * dim)), "out");
  return VertexProgram::Compile(std::move(b));
}

FeatureMap GatFeatures(const Graph& g, int64_t heads, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  features.vertex["eu"] = ops::RandomNormal({g.num_vertices(), heads}, 0, 1, rng);
  features.vertex["ev"] = ops::RandomNormal({g.num_vertices(), heads}, 0, 1, rng);
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), heads * dim}, 0, 1, rng);
  features.vertex[kGradInputKey] =
      ops::RandomNormal({g.num_vertices(), heads * dim}, 0, 1, rng);
  return features;
}

struct ProgramRun {
  Tensor out;
  std::map<std::string, Tensor> grads;  // By backward output name.
};

ProgramRun RunProgram(const VertexProgram& program, const ExecutionSession& session,
                      const FeatureMap& features) {
  ProgramRun run;
  run.out = session.Execute(program.forward(), features).outputs.at("out");
  RunResult bwd = session.Execute(program.backward().graph, features);
  for (const InputGradInfo& info : program.backward().input_grads) {
    run.grads[info.output_name] = bwd.outputs.at(info.output_name);
  }
  return run;
}

ExecutionSession Session(const std::string& spec, const Graph& g) {
  return MakeSession(std::shared_ptr<const Executor>(std::move(*ExecutorFactory::Create(spec))),
                     g);
}

// ---- The width rule -----------------------------------------------------------------------------

TEST(GroupedBroadcastTest, WidthRuleAcceptsANarrowWidthThatDivides) {
  EXPECT_EQ(GroupedBroadcast(6, 6), 1);
  EXPECT_EQ(GroupedBroadcast(1, 6), 6);
  EXPECT_EQ(GroupedBroadcast(2, 6), 3);
  EXPECT_EQ(GroupedBroadcast(6, 2), 3);
  EXPECT_EQ(GroupedBroadcast(4, 6), 0);
  GirBuilder b;
  Value narrow = b.Src("a", 2);
  Value wide = b.Dst("c", 6);
  EXPECT_EQ((narrow * wide).width(), 6);
  EXPECT_EQ((wide - narrow).width(), 6);
  EXPECT_EQ((b.Edge("s", 1) + wide).width(), 6);  // g = 1: the scalar broadcast.
}

TEST(GroupedBroadcastDeathTest, WidthsThatDoNotDivideFailNamingBoth) {
  EXPECT_DEATH(
      {
        GirBuilder b;
        b.Src("a", 4) + b.Dst("c", 6);
      },
      "incompatible widths 4 vs 6");
}

TEST(GroupedBroadcastDeathTest, AggregationWiderThanItsInputFailsNamingBoth) {
  // Aggregations have no broadcast form: a width-1 value summed into a
  // width-4 row is refused where the node is added, whoever adds it.
  EXPECT_DEATH(
      {
        GirBuilder b;
        Value s = b.Src("s", 1);
        Node agg;
        agg.kind = OpKind::kAggSum;
        agg.type = GraphType::kDst;
        agg.width = 4;
        agg.inputs = {s.id()};
        b.RawNode(agg);
      },
      "AggSum node 1 has width 4 but its input node 0 has width 1");
}

TEST(GroupedBroadcastTest, ScalarBroadcastAdjointKeepsWidthOne) {
  // g = 1 programs build exactly the nodes they did before the rule grew
  // groups: the backward's reductions keep width 1.
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("s", 1) * b.Src("h", 8)), "out");
  const BackwardGir bwd = BuildBackward(b.graph(), b.graph().outputs()[0]);
  int dots = 0;
  for (const Node& node : bwd.graph.nodes()) {
    if (node.kind == OpKind::kDotProduct) {
      ++dots;
      EXPECT_EQ(node.width, 1);
    }
  }
  EXPECT_EQ(dots, 1);
}

// ---- Adjoints -----------------------------------------------------------------------------------

TEST(GroupedBroadcastTest, MulAdjointIsAGroupedDotProduct) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("a", 2) * b.Dst("c", 6)), "out");
  const BackwardGir bwd = BuildBackward(b.graph(), b.graph().outputs()[0]);
  int dots = 0;
  for (const Node& node : bwd.graph.nodes()) {
    if (node.kind == OpKind::kDotProduct) {
      ++dots;
      EXPECT_EQ(node.width, 2);
      for (int32_t input : node.inputs) {
        EXPECT_EQ(bwd.graph.node(input).width, 6);
      }
    }
  }
  EXPECT_EQ(dots, 1);
}

TEST(GroupedBroadcastTest, AddAdjointIsAGroupedWidthSum) {
  GirBuilder b;
  b.MarkOutput(AggSum(Tanh(b.Src("a", 2) + b.Dst("c", 6))), "out");
  const BackwardGir bwd = BuildBackward(b.graph(), b.graph().outputs()[0]);
  int sums = 0;
  for (const Node& node : bwd.graph.nodes()) {
    if (node.kind == OpKind::kReduceWidthSum) {
      ++sums;
      EXPECT_EQ(node.width, 2);
      EXPECT_EQ(bwd.graph.node(node.inputs[0]).width, 6);
    }
  }
  EXPECT_EQ(sums, 1);
  for (const InputGradInfo& info : bwd.input_grads) {
    EXPECT_EQ(bwd.graph.node(info.backward_output).width, info.key == "a" ? 2 : 6)
        << info.output_name;
  }
}

TEST(GroupedBroadcastTest, GroupedMulFeedingASumLowersToTheGroupedAxpy) {
  const VertexProgram program = GatProgram(3, 4);
  const auto compiled = CompileProgram(program.forward(), FusionOptions{});
  bool grouped_axpy = false;
  for (const CompiledUnit& unit : compiled->units) {
    for (const AggInstr& agg : unit.aggs) {
      if (agg.reduce == Reduce::kAxpy && agg.y.width == 3 && agg.width == 12) {
        grouped_axpy = true;
      }
    }
  }
  EXPECT_TRUE(grouped_axpy);
}

// ---- Execution ----------------------------------------------------------------------------------

TEST(GroupedBroadcastTest, GroupedProgramComputesThePerGroupBitsTiledAndUntiled) {
  // The head-batched GAT property: each head's columns of the grouped
  // program's forward output and gradients are bit for bit what that
  // head's width-1 program computes. Groups of 4 and 100 split lane groups
  // (the grouped reducer's per-column path), groups of 8 and 16 take its
  // lane-group path, and the 300- and 320-wide outputs are cut into
  // 256-column tiles, one of them mid-group.
  TilingFlagGuard guard;
  const Graph g = TestGraph(150, 1200, 0x6a7);
  const ExecutionSession session = Session("seastar", g);
  for (const auto& [heads, dim] : {std::pair{3, 4}, std::pair{2, 8}, std::pair{2, 16},
                                   std::pair{3, 100}, std::pair{40, 8}}) {
    const VertexProgram grouped = GatProgram(heads, dim);
    const VertexProgram single = GatProgram(1, dim);
    const FeatureMap features = GatFeatures(g, heads, dim, 0x5eed + heads);
    for (const bool tiled : {true, false}) {
      SetTilingEnabled(tiled);
      SCOPED_TRACE(std::to_string(heads) + "x" + std::to_string(dim) +
                   (tiled ? " tiled" : " untiled"));
      const ProgramRun all = RunProgram(grouped, session, features);
      for (int64_t c = 0; c < heads; ++c) {
        FeatureMap head;
        head.vertex["eu"] = ColumnBlock(features.vertex.at("eu"), c, 1);
        head.vertex["ev"] = ColumnBlock(features.vertex.at("ev"), c, 1);
        head.vertex["h"] = ColumnBlock(features.vertex.at("h"), c, dim);
        head.vertex[kGradInputKey] = ColumnBlock(features.vertex.at(kGradInputKey), c, dim);
        const ProgramRun one = RunProgram(single, session, head);
        EXPECT_TRUE(BitEqual(ColumnBlock(all.out, c, dim), one.out)) << "out, head " << c;
        for (const auto& [name, grad] : one.grads) {
          const int64_t w = grad.dim(1);
          EXPECT_TRUE(BitEqual(ColumnBlock(all.grads.at(name), c, w), grad))
              << name << ", head " << c;
        }
      }
    }
  }
}

TEST(GroupedBroadcastTest, EveryExecutorAgreesOnTheGroupedProgram) {
  // Bits where the docs promise them: tiled = untiled, and a sharded run's
  // destination-keyed results (its source-keyed ones at one shard) equal
  // the whole graph's. The fused-multiply-add folds and the baselines'
  // summation orders agree within rounding; pyg runs on one thread, as its
  // float atomics are ordered only there. 3 heads of 8, and the 8 heads of
  // 8 that GAT trains with, whose backward recomputes two edge values.
  TilingFlagGuard guard;
  const Graph g = TestGraph(200, 1600, 0x6a8);
  for (const int32_t heads : {3, 8}) {
    SCOPED_TRACE(std::to_string(heads) + " heads");
    const VertexProgram program = GatProgram(heads, 8);
    const FeatureMap features = GatFeatures(g, heads, 8, 0x6a9);
    const ExecutionSession seastar = Session("seastar", g);
    SetTilingEnabled(true);
    const ProgramRun reference = RunProgram(program, seastar, features);
    SetTilingEnabled(false);
    const ProgramRun untiled = RunProgram(program, seastar, features);
    SetTilingEnabled(true);
    EXPECT_TRUE(BitEqual(reference.out, untiled.out));
    for (const auto& [name, grad] : reference.grads) {
      EXPECT_TRUE(BitEqual(grad, untiled.grads.at(name))) << name;
    }

    const auto expect_close = [&](const ProgramRun& run, float tol, const std::string& who) {
      EXPECT_TRUE(reference.out.AllClose(run.out, tol)) << who << " out";
      for (const auto& [name, grad] : reference.grads) {
        EXPECT_TRUE(grad.AllClose(run.grads.at(name), tol)) << who << " " << name;
      }
    };
    expect_close(RunProgram(program, Session("seastar-nofuse", g), features), 1e-4f, "nofuse");
    expect_close(RunProgram(program, Session("dgl", g), features), 1e-4f, "dgl");
    {
      ThreadPool single(0);
      ScopedThreadPool scoped(&single);
      expect_close(RunProgram(program, Session("pyg", g), features), 1e-4f, "pyg");
    }
    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE("sharded:" + std::to_string(shards));
      const ProgramRun run = RunProgram(
          program, Session("sharded:" + std::to_string(shards), g), features);
      EXPECT_TRUE(BitEqual(reference.out, run.out));
      for (const auto& [name, grad] : reference.grads) {
        const bool exact = shards == 1 || name.rfind("grad:D:", 0) == 0;
        EXPECT_TRUE(exact ? BitEqual(grad, run.grads.at(name))
                          : grad.AllClose(run.grads.at(name), 1e-5f))
            << name;
      }
    }
  }
}

// The backward a Seastar training step runs when every input needs a
// gradient: it reads the forward values the forward plan materialized as
// Input<__saved…> leaves.
std::shared_ptr<const BackwardGir> TrainingBackward(const VertexProgram& program) {
  const ExecutionPlan forward_plan = BuildExecutionPlan(program.forward());
  std::vector<int32_t> saved;
  for (const Node& node : program.forward().nodes()) {
    const auto id = static_cast<size_t>(node.id);
    if (program.backward().forward_copy[id] >= 0 && !IsLeaf(node.kind) &&
        forward_plan.materialized[id]) {
      saved.push_back(node.id);
    }
  }
  return program.backward(std::vector<bool>(program.backward().input_grads.size(), true), saved);
}

// The kinds of the [E, w] values `plan` materializes, in node order.
std::vector<std::string> MaterializedEdgeValues(const GirGraph& gir, const ExecutionPlan& plan) {
  std::vector<std::string> kinds;
  for (const Node& node : gir.nodes()) {
    if (node.type == GraphType::kEdge && plan.materialized[static_cast<size_t>(node.id)]) {
      kinds.emplace_back(OpKindName(node.kind));
    }
  }
  return kinds;
}

TEST(GroupedBroadcastTest, GatBackwardPlanRecomputesItsPointwiseEdgeValues) {
  // GAT's backward at 8 heads of 8, as training runs it. The forward
  // materialized Exp and its AggSum; the backward reads both as leaves
  // instead of re-deriving them, so no unit computes Exp or that AggSum, and
  // Mul(s, s) runs key-side in the Neg+AggSum unit (%14). The recompute
  // post-pass (docs/INTERNALS.md §4) folds Div(Exp, AggSum) into its one
  // reader, the DotProduct unit (%5), and the LeakyReluGrad unit rebuilds
  // Add(eu, ev) from its key and neighbour rows (%2). That leaves 4 units,
  // each with an aggregation, and 3 materialized [E, 8] values.
  const VertexProgram program = GatProgram(8, 8);
  const GirGraph& backward = TrainingBackward(program)->graph;
  std::vector<std::string> saved_leaves;
  for (const Node& node : backward.nodes()) {
    if (node.name.rfind("__saved", 0) == 0) {
      saved_leaves.push_back(node.name);
    }
  }
  const auto first = [&](OpKind kind) {
    for (const Node& node : program.forward().nodes()) {
      if (node.kind == kind) {
        return SavedValueKey(node.id);
      }
    }
    return std::string();
  };
  EXPECT_EQ(saved_leaves, (std::vector<std::string>{first(OpKind::kExp), first(OpKind::kAggSum)}));
  const ExecutionPlan plan = BuildExecutionPlan(backward);
  EXPECT_EQ(plan.ToString(backward),
            "unit 0 [A:S agg edges]: %5=Div %8=Identity %9=DotProduct %10=Mul %11=AggSum* "
            "%12=Div* %13=Mul*\n"
            "unit 1 [A:D agg edges]: %14=Mul %15=Div %16=Neg %17=AggSum*\n"
            "unit 2 [A:S agg edges]: %2=Add %18=Identity %19=Add %20=Mul %21=LeakyReluGrad* "
            "%22=AggSum*\n"
            "unit 3 [A:D agg edges]: %23=AggSum*\n");
  ASSERT_EQ(plan.units.size(), 4u);
  for (const FusedUnit& unit : plan.units) {
    EXPECT_TRUE(unit.has_aggregation);
    for (int32_t id : unit.nodes) {
      EXPECT_NE(backward.node(id).kind, OpKind::kExp) << "%" << id;
    }
  }
  EXPECT_EQ(MaterializedEdgeValues(backward, plan),
            (std::vector<std::string>{"Div", "Mul", "LeakyReluGrad"}));

  // Without fusion nothing is recomputed: one unit per compute node.
  FusionOptions nofuse;
  nofuse.enable_fusion = false;
  const ExecutionPlan unfused = BuildExecutionPlan(backward, nofuse);
  int compute_nodes = 0;
  for (const Node& node : backward.nodes()) {
    compute_nodes += !IsLeaf(node.kind) && node.type != GraphType::kParam;
  }
  EXPECT_EQ(static_cast<int>(unfused.units.size()), compute_nodes);

  // The sharded runtime returns no forward values, so it runs the backward
  // that recomputes them: 5 units, the first re-deriving Exp and its AggSum,
  // and 4 materialized [E, 8] values where the FSM alone wrote 6.
  const GirGraph& recompute = program.backward().graph;
  const ExecutionPlan recompute_plan = BuildExecutionPlan(recompute);
  EXPECT_EQ(recompute_plan.ToString(recompute),
            "unit 0 [A:D agg edges]: %2=Add %3=LeakyRelu %4=Exp* %5=AggSum* %15=Mul*\n"
            "unit 1 [A:S agg edges]: %6=Div %9=Identity %10=DotProduct %11=Mul %12=AggSum* "
            "%13=Div* %14=Mul*\n"
            "unit 2 [A:D agg edges]: %16=Div %17=Neg %18=AggSum*\n"
            "unit 3 [A:S agg edges]: %2=Add^ %19=Identity %20=Add %21=Mul %22=LeakyReluGrad* "
            "%23=AggSum*\n"
            "unit 4 [A:D agg edges]: %24=AggSum*\n");
  ASSERT_EQ(recompute_plan.units.size(), 5u);
  for (const FusedUnit& unit : recompute_plan.units) {
    EXPECT_TRUE(unit.has_aggregation);
  }
  EXPECT_EQ(MaterializedEdgeValues(recompute, recompute_plan),
            (std::vector<std::string>{"Exp", "Div", "Mul", "LeakyReluGrad"}));
}

TEST(GroupedBroadcastTest, SavedLeafBackwardMatchesTheRecomputeBackwardBitwise) {
  // Through the autograd tape: on seastar the backward reads the forward's
  // Exp and AggSum as leaves (4 units), on sharded:1 it recomputes them (the
  // sharded runtime returns no forward values). Every gradient bit agrees,
  // and with the recompute backward GIR run directly; 8 heads of 8 and 3 of
  // 4, tiled and untiled.
  TilingFlagGuard guard;
  const Graph g = TestGraph(200, 1600, 0x5a7);
  for (const auto& [heads, dim] : {std::pair{8, 8}, std::pair{3, 4}}) {
    const VertexProgram program = GatProgram(heads, dim);
    const FeatureMap features = GatFeatures(g, heads, dim, 0x5a8);
    for (const bool tiled : {true, false}) {
      SCOPED_TRACE(testing::Message() << heads << "x" << dim << (tiled ? " tiled" : " untiled"));
      SetTilingEnabled(tiled);
      const ProgramRun reference = RunProgram(program, Session("seastar", g), features);
      for (const std::string spec : {"seastar", "sharded:1"}) {
        SCOPED_TRACE(spec);
        VertexProgram::Inputs inputs;
        for (const char* key : {"eu", "ev", "h"}) {
          inputs.vertex[key] = Var::Leaf(features.vertex.at(key), /*requires_grad=*/true);
        }
        const ExecutionSession session = Session(spec, g);
        const Var out = program.Run(inputs, session);
        EXPECT_TRUE(BitEqual(out.value(), reference.out));
        const int64_t launches_before = KernelLaunchesTotal().value();
        Backward(out, features.vertex.at(kGradInputKey));
        if (spec == "seastar") {
          EXPECT_EQ(KernelLaunchesTotal().value() - launches_before, 4);
        }
        for (const InputGradInfo& info : program.backward().input_grads) {
          EXPECT_TRUE(BitEqual(inputs.vertex.at(info.key).grad(),
                               reference.grads.at(info.output_name)))
              << info.output_name;
        }
      }
    }
  }
}

TEST(GroupedBroadcastTest, ForwardRetainsOnlyWhatABackwardReads) {
  // A training forward keeps the Exp and AggSum its backward reads alive
  // with the tape; an eval forward, where no input needs a gradient, keeps
  // nothing but its output.
  const Graph g = TestGraph(200, 1600, 0x5b1);
  const VertexProgram program = GatProgram(8, 8);
  const FeatureMap features = GatFeatures(g, 8, 8, 0x5b2);
  const ExecutionSession session = Session("seastar", g);
  const TensorAllocator& allocator = TensorAllocator::Get();
  const auto held_bytes = [&](bool requires_grad) {
    VertexProgram::Inputs inputs;
    for (const char* key : {"eu", "ev", "h"}) {
      inputs.vertex[key] = Var::Leaf(features.vertex.at(key), requires_grad);
    }
    const uint64_t before = allocator.live_bytes();
    Var out = program.Run(inputs, session);
    const uint64_t after = allocator.live_bytes();
    const uint64_t output_bytes = out.value().nbytes();
    out = Var();
    EXPECT_EQ(allocator.live_bytes(), before);  // Dropping the tape frees them.
    return after - before - output_bytes;
  };
  held_bytes(true);  // Warm the plan and tile caches.
  EXPECT_EQ(held_bytes(false), 0u);
  const uint64_t edge_exp = static_cast<uint64_t>(g.num_edges()) * 8 * sizeof(float);
  const uint64_t vertex_sum = static_cast<uint64_t>(g.num_vertices()) * 8 * sizeof(float);
  EXPECT_EQ(held_bytes(true), edge_exp + vertex_sum);
}

// ---- Finite differences -------------------------------------------------------------------------

// d(sum of out)/d(feature) of `builder`'s single output against central
// differences, at every vertex feature element of a small graph.
void ExpectGradientsMatchFiniteDifferences(GirBuilder builder, FeatureMap features) {
  const VertexProgram program = VertexProgram::Compile(std::move(builder));
  Rng rng(0x1d);
  CooEdges edges = ErdosRenyi(8, 20, rng);
  AddSelfLoops(edges);
  const Graph g = ToGraph(std::move(edges));
  SeastarExecutor executor;
  const auto loss = [&] {
    return static_cast<double>(
        ops::SumAll(executor.Run(program.forward(), g, features).outputs.at("out")));
  };
  const Tensor out = executor.Run(program.forward(), g, features).outputs.at("out");
  FeatureMap bwd = features;
  bwd.vertex[kGradInputKey] = Tensor::Ones(out.shape());
  const RunResult result = executor.Run(program.backward().graph, g, bwd);
  std::map<std::string, Tensor> grads;
  for (const InputGradInfo& info : program.backward().input_grads) {
    const Tensor& piece = result.outputs.at(info.output_name);
    auto it = grads.find(info.key);
    grads[info.key] = it == grads.end() ? piece.Clone() : ops::Add(it->second, piece);
  }
  ASSERT_EQ(grads.size(), features.vertex.size());
  for (auto& [key, analytic] : grads) {
    Tensor& value = features.vertex.at(key);
    for (int64_t i = 0; i < value.numel(); ++i) {
      const float eps = 1e-2f;
      const float saved = value.data()[i];
      value.data()[i] = saved + eps;
      const double up = loss();
      value.data()[i] = saved - eps;
      const double down = loss();
      value.data()[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic.data()[i], numeric, 2e-2 * std::max(1.0, std::fabs(numeric)))
          << key << " element " << i;
    }
  }
}

FeatureMap SmallFeatures(const std::vector<std::pair<std::string, int64_t>>& widths) {
  Rng rng(0x2d);
  FeatureMap features;
  for (const auto& [name, width] : widths) {
    features.vertex[name] = ops::RandomNormal({8, width}, 0, 1, rng);
  }
  return features;
}

TEST(GroupedBroadcastTest, GroupedAxpyAndDotProductGradientsMatchFiniteDifferences) {
  // Forward: the grouped Axpy. Backward: a grouped DotProduct into a and a
  // grouped Axpy into h.
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("a", 2) * b.Src("h", 6)), "out");
  ExpectGradientsMatchFiniteDifferences(std::move(b), SmallFeatures({{"a", 2}, {"h", 6}}));
}

TEST(GroupedBroadcastTest, GroupedWidthSumGradientsMatchFiniteDifferences) {
  // The grouped Add's adjoint into a is a grouped ReduceWidthSum.
  GirBuilder b;
  b.MarkOutput(AggSum(Tanh(b.Src("a", 2) + b.Dst("c", 6))), "out");
  ExpectGradientsMatchFiniteDifferences(std::move(b), SmallFeatures({{"a", 2}, {"c", 6}}));
}

}  // namespace
}  // namespace seastar

// Property-based testing over *randomly generated* vertex programs: for any
// well-typed program the fusion FSM may carve up however it likes, every
// execution strategy must compute the same forward values and the same
// gradients, and the execution plan must satisfy its structural invariants.
// This is the strongest guard on the compiler/executor stack: it explores
// operator DAG shapes no hand-written model exercises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/gir/fusion.h"
#include "src/gir/passes.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

constexpr int32_t kWide = 6;
// Width of the universe's grouped operand: it broadcasts group-wise
// against the kWide ones (3 columns per element).
constexpr int32_t kGroups = 2;

struct RandomProgram {
  GirGraph forward;
  BackwardGir backward;
};

// Builds a random well-typed vertex program over the fixed feature universe
// {a[1]:S, b[w]:S, c[w]:D, d[1]:D, e[1]:E, f[2]:D}: f pairs with b and c as
// a grouped broadcast (and with the width-1 values as a scalar one), so
// binaries mix equal, scalar and grouped widths. Division and log are excluded to
// keep values finite for any input; exp is applied only to bounded values
// (post-tanh/sigmoid) to avoid overflow.
RandomProgram MakeRandomProgram(uint64_t seed, bool include_max_ops) {
  Rng rng(seed);
  GirBuilder b;
  std::vector<Value> pool{
      b.Src("a", 1), b.Src("b", kWide), b.Dst("c", kWide), b.Dst("d", 1), b.Edge("e", 1),
      b.Dst("f", kGroups),
  };

  const auto pick = [&](auto&& predicate) -> Value {
    std::vector<Value> candidates;
    for (const Value& v : pool) {
      if (predicate(v)) {
        candidates.push_back(v);
      }
    }
    if (candidates.empty()) {
      return pool[rng.NextBounded(pool.size())];
    }
    return candidates[rng.NextBounded(candidates.size())];
  };
  const auto any = [](const Value&) { return true; };

  const int num_ops = 4 + static_cast<int>(rng.NextBounded(10));
  for (int i = 0; i < num_ops; ++i) {
    const uint64_t choice = rng.NextBounded(include_max_ops ? 10 : 9);
    Value result;
    switch (choice) {
      case 0: {
        Value x = pick(any);
        Value y = pick(
            [&](const Value& v) { return GroupedBroadcast(v.width(), x.width()) > 0; });
        result = x + y;
        break;
      }
      case 1: {
        Value x = pick(any);
        Value y = pick(
            [&](const Value& v) { return GroupedBroadcast(v.width(), x.width()) > 0; });
        result = x - y;
        break;
      }
      case 2: {
        Value x = pick(any);
        Value y = pick(
            [&](const Value& v) { return GroupedBroadcast(v.width(), x.width()) > 0; });
        result = x * y;
        break;
      }
      case 3:
        result = LeakyRelu(pick(any), 0.1f);
        break;
      case 4:
        result = Tanh(pick(any));
        break;
      case 5:
        result = Sigmoid(pick(any));
        break;
      case 6:
        result = Relu(pick(any));
        break;
      case 7: {
        Value x = pick([](const Value& v) { return v.type() != GraphType::kParam; });
        result = rng.NextBernoulli(0.5) ? AggSum(x, AggTo::kDst) : AggSum(x, AggTo::kSrc);
        break;
      }
      case 8: {
        Value x = pick([](const Value& v) { return v.type() != GraphType::kParam; });
        result = AggMean(x, AggTo::kDst);
        break;
      }
      case 9: {
        Value x = pick([](const Value& v) { return v.type() != GraphType::kParam; });
        result = AggMax(x, AggTo::kDst);
        break;
      }
    }
    pool.push_back(result);
  }

  // Output: force a D-typed aggregate of the last interesting value so every
  // program ends in a seastar pattern.
  Value out = pool.back();
  if (out.type() != GraphType::kDst) {
    out = AggSum(out, AggTo::kDst);
  }
  b.MarkOutput(Tanh(out), "out");  // Tanh keeps outputs bounded.

  RandomProgram program;
  PassResult passes = RunStandardPasses(b.graph());
  program.forward = std::move(passes.graph);
  program.backward = BuildBackward(program.forward, program.forward.outputs()[0]);
  OptimizeBackward(&program.backward);
  return program;
}

FeatureMap MakeFeatures(const Graph& g, uint64_t seed) {
  Rng rng(seed ^ 0xfeedbeef);
  FeatureMap features;
  features.vertex["a"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 1, rng);
  features.vertex["b"] = ops::RandomNormal({g.num_vertices(), kWide}, 0, 1, rng);
  features.vertex["c"] = ops::RandomNormal({g.num_vertices(), kWide}, 0, 1, rng);
  features.vertex["d"] = ops::RandomNormal({g.num_vertices(), 1}, 0, 1, rng);
  features.edge["e"] = ops::RandomNormal({g.num_edges(), 1}, 0, 1, rng);
  features.vertex["f"] = ops::RandomNormal({g.num_vertices(), kGroups}, 0, 1, rng);
  return features;
}

Graph TestGraph(uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b9);
  CooEdges edges = rng.NextBernoulli(0.5) ? ErdosRenyi(40, 220, rng) : Rmat(40, 220, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, PlanInvariantsHold) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomProgram program = MakeRandomProgram(seed, /*include_max_ops=*/true);
  for (const GirGraph* gir : {&program.forward, &program.backward.graph}) {
    ExecutionPlan plan = BuildExecutionPlan(*gir);
    // 1. Every compute node is in a unit. One listed in several is an
    //    elementwise edge value that each of them recomputes; it is not
    //    materialized.
    std::map<int32_t, int> listed;
    for (const FusedUnit& unit : plan.units) {
      for (int32_t id : unit.nodes) {
        ++listed[id];
      }
    }
    for (const Node& node : gir->nodes()) {
      const bool compute = !IsLeaf(node.kind) && node.type != GraphType::kParam;
      const auto it = listed.find(node.id);
      EXPECT_EQ(it != listed.end(), compute) << "%" << node.id;
      if (it != listed.end() && it->second > 1) {
        EXPECT_EQ(node.type, GraphType::kEdge) << "%" << node.id;
        EXPECT_FALSE(IsAggregation(node.kind)) << "%" << node.id;
        EXPECT_FALSE(plan.materialized[static_cast<size_t>(node.id)]) << "%" << node.id;
      }
    }
    // 2. One aggregation orientation per unit.
    for (const FusedUnit& unit : plan.units) {
      std::set<GraphType> orientations;
      for (int32_t id : unit.nodes) {
        if (IsAggregation(gir->node(id).kind)) {
          orientations.insert(gir->node(id).type);
        }
      }
      EXPECT_LE(orientations.size(), 1u);
    }
    // 3. A unit reads every value it does not compute from an earlier unit,
    //    which materializes it (acyclic, topologically ordered).
    for (size_t u = 0; u < plan.units.size(); ++u) {
      const std::vector<int32_t>& nodes = plan.units[u].nodes;
      for (int32_t id : nodes) {
        EXPECT_LE(plan.unit_of[static_cast<size_t>(id)], static_cast<int32_t>(u));
        for (int32_t input : gir->node(id).inputs) {
          const int32_t in_unit = plan.unit_of[static_cast<size_t>(input)];
          if (in_unit >= 0 && std::find(nodes.begin(), nodes.end(), input) == nodes.end()) {
            EXPECT_LT(in_unit, static_cast<int32_t>(u));
            EXPECT_TRUE(plan.materialized[static_cast<size_t>(input)])
                << "cross-unit value not materialized";
          }
        }
      }
    }
    // 4. Pre-stage ops never consume same-unit aggregation results.
    for (const FusedUnit& unit : plan.units) {
      for (int32_t id : unit.nodes) {
        if (plan.stage[static_cast<size_t>(id)] != NodeStage::kPre) {
          continue;
        }
        for (int32_t input : gir->node(id).inputs) {
          if (std::find(unit.nodes.begin(), unit.nodes.end(), input) != unit.nodes.end()) {
            EXPECT_NE(plan.stage[static_cast<size_t>(input)], NodeStage::kAgg);
            EXPECT_NE(plan.stage[static_cast<size_t>(input)], NodeStage::kPost);
          }
        }
      }
    }
  }
}

TEST_P(RandomProgramTest, AllExecutorsAgreeOnForward) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomProgram program = MakeRandomProgram(seed, /*include_max_ops=*/true);
  Graph g = TestGraph(seed);
  FeatureMap features = MakeFeatures(g, seed);

  SeastarExecutor fused;
  SeastarExecutorOptions nofuse_options;
  nofuse_options.enable_fusion = false;
  SeastarExecutor unfused(nofuse_options);
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  BaselineExecutor pyg({BaselineFlavor::kPygLike});

  Tensor reference = fused.Run(program.forward, g, features).outputs.at("out");
  EXPECT_TRUE(reference.AllClose(unfused.Run(program.forward, g, features).outputs.at("out"),
                                 1e-4f))
      << "unfused";
  EXPECT_TRUE(reference.AllClose(dgl.Run(program.forward, g, features).outputs.at("out"), 1e-4f))
      << "dgl";
  EXPECT_TRUE(reference.AllClose(pyg.Run(program.forward, g, features).outputs.at("out"), 1e-4f))
      << "pyg";
}

TEST_P(RandomProgramTest, BackendsAgreeOnGradients) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // AggMax excluded: tie-breaking of equal maxima may legitimately differ
  // between a sequential register max and an atomic max.
  RandomProgram program = MakeRandomProgram(seed, /*include_max_ops=*/false);
  Graph g = TestGraph(seed);
  FeatureMap features = MakeFeatures(g, seed);

  SeastarExecutor seastar;
  BaselineExecutor dgl({BaselineFlavor::kDglLike});

  Tensor out = seastar.Run(program.forward, g, features).outputs.at("out");
  FeatureMap bwd_features = features;
  Rng rng(seed ^ 0x5eed);
  bwd_features.vertex[kGradInputKey] = ops::RandomNormal(out.shape(), 0, 1, rng);

  RunResult rs = seastar.Run(program.backward.graph, g, bwd_features);
  RunResult rd = dgl.Run(program.backward.graph, g, bwd_features);
  for (const InputGradInfo& info : program.backward.input_grads) {
    SCOPED_TRACE(info.output_name);
    EXPECT_TRUE(
        rs.outputs.at(info.output_name).AllClose(rd.outputs.at(info.output_name), 1e-3f));
  }
}

TEST_P(RandomProgramTest, GradientsMatchFiniteDifferences) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  if (seed % 4 != 0) {
    GTEST_SKIP() << "finite differences sampled on every 4th seed (cost)";
  }
  RandomProgram program = MakeRandomProgram(seed, /*include_max_ops=*/false);
  Rng small_rng(seed);
  CooEdges edges = ErdosRenyi(8, 24, small_rng);
  AddSelfLoops(edges);
  Graph g = ToGraph(std::move(edges));
  FeatureMap features = MakeFeatures(g, seed);

  SeastarExecutor ex;
  const auto loss = [&] {
    return ops::SumAll(ex.Run(program.forward, g, features).outputs.at("out"));
  };
  Tensor out = ex.Run(program.forward, g, features).outputs.at("out");
  FeatureMap bwd = features;
  bwd.vertex[kGradInputKey] = Tensor::Ones(out.shape());
  RunResult result = ex.Run(program.backward.graph, g, bwd);

  // Accumulate per-key analytic gradients (a key may be read from both
  // endpoints).
  std::map<std::string, Tensor> grads;
  for (const InputGradInfo& info : program.backward.input_grads) {
    if (info.access == GraphType::kEdge) {
      continue;  // Spot-check vertex features only.
    }
    const Tensor& piece = result.outputs.at(info.output_name);
    auto it = grads.find(info.key);
    if (it == grads.end()) {
      grads[info.key] = piece.Clone();
    } else {
      it->second = ops::Add(it->second, piece);
    }
  }
  for (auto& [key, analytic] : grads) {
    Tensor& value = features.vertex.at(key);
    for (int64_t i = 0; i < value.numel(); i += 3) {  // Sample every 3rd element.
      const float eps = 1e-2f;
      const float saved = value.at(i);
      value.at(i) = saved + eps;
      const float up = loss();
      value.at(i) = saved - eps;
      const float down = loss();
      value.at(i) = saved;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic.at(i), numeric, 5e-2f * std::max(1.0f, std::fabs(numeric)))
          << key << " element " << i << " (seed " << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 24));

TEST(RandomProgramUniverseTest, SeedsExerciseTheGroupedBroadcast) {
  // Some seeded program combines f with a kWide value, so the seeds above
  // cover the grouped width rule, forward and backward.
  int grouped = 0;
  for (int seed = 0; seed < 24; ++seed) {
    const RandomProgram program = MakeRandomProgram(static_cast<uint64_t>(seed), true);
    for (const Node& node : program.forward.nodes()) {
      if (IsElementwiseBinary(node.kind) &&
          GroupedBroadcast(program.forward.node(node.inputs[0]).width,
                           program.forward.node(node.inputs[1]).width) == kWide / kGroups) {
        ++grouped;
      }
    }
  }
  EXPECT_GT(grouped, 0);
}

}  // namespace
}  // namespace seastar

// Semantic-preservation property tests: the optimization passes must never
// change a program's meaning. Random programs are executed before and after
// RunStandardPasses and compared; the kernel-launch accounting is also
// validated here.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/tracing.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/gir/passes.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

// A generator biased toward redundancy (repeated subexpressions, constants,
// algebraic identities) so the passes have real work to do.
GirGraph MakeRedundantProgram(uint64_t seed) {
  Rng rng(seed);
  GirBuilder b;
  std::vector<Value> pool{b.Src("x", 4), b.Src("y", 1), b.Dst("z", 4)};
  const int num_ops = 5 + static_cast<int>(rng.NextBounded(8));
  for (int i = 0; i < num_ops; ++i) {
    Value v = pool[rng.NextBounded(pool.size())];
    switch (rng.NextBounded(6)) {
      case 0:
        pool.push_back(v * 1.0f);  // Identity fodder.
        break;
      case 1:
        pool.push_back(v + 0.0f);
        break;
      case 2:
        pool.push_back(Tanh(v));
        break;
      case 3:
        pool.push_back(Tanh(v));  // Deliberate duplicate for CSE.
        break;
      case 4:
        pool.push_back(v * (2.0f * 0.5f));  // Constant folding fodder.
        break;
      case 5: {
        Value w = pool[rng.NextBounded(pool.size())];
        if (w.width() == v.width() || w.width() == 1 || v.width() == 1) {
          pool.push_back(v + w);
        } else {
          pool.push_back(LeakyRelu(v, 0.2f));
        }
        break;
      }
    }
  }
  // Guarantee at least one foldable node so the shrink property is strict.
  Value out = pool.back() * 1.0f;
  if (out.type() != GraphType::kDst) {
    out = AggSum(out, AggTo::kDst);
  }
  b.MarkOutput(out, "out");
  return b.TakeGraph();
}

class PassEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PassEquivalenceTest, OptimizedProgramComputesSameValues) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  GirGraph original = MakeRedundantProgram(seed);
  PassResult optimized = RunStandardPasses(original);
  EXPECT_LE(optimized.graph.num_nodes(), original.num_nodes());

  Rng rng(seed ^ 0xabc);
  CooEdges edges = ErdosRenyi(25, 120, rng);
  AddSelfLoops(edges);
  Graph g = ToGraph(std::move(edges));
  FeatureMap features;
  features.vertex["x"] = ops::RandomNormal({25, 4}, 0, 1, rng);
  features.vertex["y"] = ops::RandomNormal({25, 1}, 0, 1, rng);
  features.vertex["z"] = ops::RandomNormal({25, 4}, 0, 1, rng);

  SeastarExecutor ex;
  Tensor before = ex.Run(original, g, features).outputs.at("out");
  Tensor after = ex.Run(optimized.graph, g, features).outputs.at("out");
  EXPECT_TRUE(before.AllClose(after, 1e-5f)) << "seed " << seed;
}

TEST_P(PassEquivalenceTest, PassesShrinkRedundantPrograms) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  GirGraph original = MakeRedundantProgram(seed);
  PassResult optimized = RunStandardPasses(original);
  // The generator always injects at least one foldable/dedupable node.
  EXPECT_LT(optimized.graph.num_nodes(), original.num_nodes()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassEquivalenceTest, ::testing::Range(100, 112));

// The GAT attention program: 7 operators that Seastar fuses into 2 units.
struct GatAttention {
  Graph graph;
  GirGraph gir;
  FeatureMap features;
};

GatAttention MakeGatAttention() {
  Rng rng(1);
  CooEdges edges = ErdosRenyi(30, 150, rng);
  AddSelfLoops(edges);
  GatAttention gat;
  gat.graph = ToGraph(std::move(edges));
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  b.MarkOutput(AggSum(e / AggSum(e) * b.Src("h", 4)), "out");
  gat.gir = b.TakeGraph();
  gat.features.vertex["eu"] = ops::RandomNormal({30, 1}, 0, 1, rng);
  gat.features.vertex["ev"] = ops::RandomNormal({30, 1}, 0, 1, rng);
  gat.features.vertex["h"] = ops::RandomNormal({30, 4}, 0, 1, rng);
  return gat;
}

// Runs `gat` `runs` times under one run-scoped trace and returns the
// kernel_launches arg of every run span, in order.
std::vector<int64_t> RunSpanLaunches(const Executor& executor, const GatAttention& gat,
                                     int runs = 1) {
  trace::Tracer tracer(trace::TracerConfig{}, trace::Retention::kRun);
  {
    trace::ScopedRun scope(&tracer, "run", "test");
    for (int i = 0; i < runs; ++i) {
      executor.Execute(gat.gir, GraphView(gat.graph), gat.features);
    }
  }
  std::vector<int64_t> launches;
  tracer.ForEachRetained([&](const trace::RequestTrace& run) {
    for (int i = 0; i < run.num_spans(); ++i) {
      if (std::string(run.span(i).category) == "exec") {
        launches.push_back(run.span(i).arg(trace::Arg::kKernelLaunches));
      }
    }
  });
  return launches;
}

TEST(KernelCounterTest, SeastarCountsUnitsBaselineCountsOperators) {
  const GatAttention gat = MakeGatAttention();
  metrics::Counter& total = KernelLaunchesTotal();
  const int64_t total_before = total.value();

  // The two fused GAT units.
  EXPECT_EQ(RunSpanLaunches(SeastarExecutor(), gat), std::vector<int64_t>{2});
  // 7 operators, minus the BinaryReduce-fused Mul: 6 kernels.
  EXPECT_EQ(RunSpanLaunches(BaselineExecutor({BaselineFlavor::kDglLike}), gat),
            std::vector<int64_t>{6});
  // PyG: 7 operator kernels + gathers (eu, ev, h, and sum re-read per edge).
  const std::vector<int64_t> pyg =
      RunSpanLaunches(BaselineExecutor({BaselineFlavor::kPygLike}), gat);
  ASSERT_EQ(pyg.size(), 1u);
  EXPECT_GT(pyg[0], 7);
  // The registry counter adds each run's count once.
  EXPECT_EQ(total.value() - total_before, 2 + 6 + pyg[0]);
}

// Each run counts its own launches: a run span's count is the same whether
// or not another executor launches kernels on another thread meanwhile.
TEST(KernelCounterTest, ConcurrentRunsCountOnlyTheirOwnLaunches) {
  const GatAttention gat = MakeGatAttention();
  const SeastarExecutor seastar;
  const BaselineExecutor dgl({BaselineFlavor::kDglLike});
  const int64_t seastar_alone = RunSpanLaunches(seastar, gat).at(0);
  const int64_t dgl_alone = RunSpanLaunches(dgl, gat).at(0);

  constexpr int kRuns = 200;
  std::vector<int64_t> seastar_runs;
  std::vector<int64_t> dgl_runs;
  const auto run_on_own_pool = [&](const Executor& executor, std::vector<int64_t>* launches) {
    ThreadPool pool(1);  // RunOnAllWorkers takes one submitter per pool.
    ScopedThreadPool scoped(&pool);
    *launches = RunSpanLaunches(executor, gat, kRuns);
  };
  std::thread seastar_thread(run_on_own_pool, std::cref(seastar), &seastar_runs);
  std::thread dgl_thread(run_on_own_pool, std::cref(dgl), &dgl_runs);
  seastar_thread.join();
  dgl_thread.join();

  EXPECT_EQ(seastar_runs, std::vector<int64_t>(kRuns, seastar_alone));
  EXPECT_EQ(dgl_runs, std::vector<int64_t>(kRuns, dgl_alone));
}

}  // namespace
}  // namespace seastar

// Tests for the execution-plan cache: one compile per distinct (GIR
// fingerprint, fusion options) pair, hits for rebuilt-but-identical GIRs,
// and plan reuse across different graphs with unchanged results.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/plan_cache.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

// A small GCN-style program: normalized neighbor sum.
void BuildGcnLike(GirBuilder* b, int32_t width) {
  Value h = b->Src("h", width);
  Value norm = b->Src("norm", 1);
  b->MarkOutput(AggSum(h * norm), "out");
}

Graph TestGraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

FeatureMap TestFeatures(const Graph& g, int32_t width, uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), width}, 0.0f, 1.0f, rng);
  features.vertex["norm"] = ops::RandomUniform({g.num_vertices(), 1}, 0.1f, 1.0f, rng);
  return features;
}

TEST(PlanCacheTest, MissThenHitReturnsSameProgram) {
  PlanCache& cache = PlanCache::Get();
  cache.Clear();
  GirBuilder b;
  BuildGcnLike(&b, 8);

  bool hit = true;
  auto first = cache.GetOrCompile(b.graph(), FusionOptions{}, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.size(), 1u);

  auto second = cache.GetOrCompile(b.graph(), FusionOptions{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.get(), first.get());  // Cached object, not a recompile.
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, RebuiltIdenticalGirHitsViaFingerprint) {
  PlanCache& cache = PlanCache::Get();
  cache.Clear();
  // Two independently built, structurally identical GIRs: keying is by
  // content fingerprint, not object identity.
  GirBuilder b1;
  BuildGcnLike(&b1, 16);
  GirBuilder b2;
  BuildGcnLike(&b2, 16);
  ASSERT_EQ(b1.graph().Fingerprint(), b2.graph().Fingerprint());

  bool hit = true;
  auto first = cache.GetOrCompile(b1.graph(), FusionOptions{}, &hit);
  EXPECT_FALSE(hit);
  auto second = cache.GetOrCompile(b2.graph(), FusionOptions{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.get(), first.get());
}

TEST(PlanCacheTest, DifferentGirOrOptionsMiss) {
  PlanCache& cache = PlanCache::Get();
  cache.Clear();
  GirBuilder narrow;
  BuildGcnLike(&narrow, 8);
  GirBuilder wide;
  BuildGcnLike(&wide, 32);  // Width is part of the content fingerprint.
  ASSERT_NE(narrow.graph().Fingerprint(), wide.graph().Fingerprint());

  bool hit = true;
  cache.GetOrCompile(narrow.graph(), FusionOptions{}, &hit);
  EXPECT_FALSE(hit);
  cache.GetOrCompile(wide.graph(), FusionOptions{}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);

  // Same GIR, fusion disabled -> distinct plan (the no-fusion ablation
  // materializes every intermediate), so it must be a distinct entry.
  FusionOptions unfused;
  unfused.enable_fusion = false;
  cache.GetOrCompile(narrow.graph(), unfused, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PlanCacheTest, ClearDropsEntriesAndNextLookupRecompiles) {
  PlanCache& cache = PlanCache::Get();
  cache.Clear();
  GirBuilder b;
  BuildGcnLike(&b, 4);
  bool hit = true;
  cache.GetOrCompile(b.graph(), FusionOptions{}, &hit);
  ASSERT_FALSE(hit);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.GetOrCompile(b.graph(), FusionOptions{}, &hit);
  EXPECT_FALSE(hit);
}

TEST(PlanCacheTest, RacingFirstRequestsCompileAndCountOnce) {
  PlanCache& cache = PlanCache::Get();
  cache.Clear();
  GirBuilder b;
  BuildGcnLike(&b, 12);
  const GirGraph gir = b.graph();
  const uint64_t misses_before = cache.misses();

  // Every thread blocks on the start flag, then asks for the same new GIR.
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const CompiledProgram>> programs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      programs[static_cast<size_t>(t)] = cache.GetOrCompile(gir, FusionOptions{});
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(cache.misses() - misses_before, 1u);
  EXPECT_EQ(cache.size(), 1u);
  for (const auto& program : programs) {
    ASSERT_NE(program, nullptr);
    EXPECT_EQ(program.get(), programs[0].get()) << "every thread shares the one compile";
  }
}

TEST(PlanCacheTest, ExecutorCompilesOncePerProgramAcrossRuns) {
  PlanCache& cache = PlanCache::Get();
  cache.Clear();
  GirBuilder b;
  BuildGcnLike(&b, 8);
  Graph g = TestGraph(150, 900, 7);
  FeatureMap features = TestFeatures(g, 8, 11);

  const uint64_t misses_before = cache.misses();
  const uint64_t hits_before = cache.hits();
  // Fresh executor per run, like the training loop constructs per call: the
  // cache, not the executor, carries the compile across epochs.
  Tensor first;
  for (int run = 0; run < 4; ++run) {
    SeastarExecutor ex;
    RunResult result = ex.Run(b.graph(), g, features);
    if (run == 0) {
      first = result.outputs.at("out");
    } else {
      // Reusing the cached plan must not perturb results in any bit.
      EXPECT_TRUE(result.outputs.at("out").AllClose(first, 0.0f));
    }
  }
  EXPECT_EQ(cache.misses() - misses_before, 1u);
  EXPECT_EQ(cache.hits() - hits_before, 3u);
}

TEST(PlanCacheTest, CachedPlanIsCorrectOnADifferentGraph) {
  PlanCache& cache = PlanCache::Get();
  cache.Clear();
  // Warm the cache on one graph, then run the same program on another:
  // compilation never reads the graph, so the second run must hit AND agree
  // with hand-computed values on the new topology.
  GirBuilder warm;
  warm.MarkOutput(AggSum(warm.Src("h", 2)), "out");
  {
    Graph g = TestGraph(64, 300, 3);
    Rng rng(5);
    FeatureMap f;
    f.vertex["h"] = ops::RandomNormal({g.num_vertices(), 2}, 0.0f, 1.0f, rng);
    SeastarExecutor ex;
    ex.Run(warm.graph(), g, f);
  }
  const uint64_t misses_before = cache.misses();

  // Star: vertices 1..4 point at 0, so out[0] sums the leaf features.
  Graph star = ToGraph(Star(5));
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 2)), "out");
  FeatureMap features;
  features.vertex["h"] = Tensor({5, 2}, {0, 0, 1, 10, 2, 20, 3, 30, 4, 40});
  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), star, features);
  EXPECT_EQ(cache.misses(), misses_before);  // Pure hit.
  const Tensor& out = result.outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 100.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 0.0f);
}

}  // namespace
}  // namespace seastar

// Tests for the graph substrate extensions: the §6.3.5 edge-type storage
// study, graph IO, and neighbor sampling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/sampling.h"
#include "src/graph/type_storage.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Graph SmallHetero(uint64_t seed, int64_t n = 30, int64_t m = 200, int32_t types = 4) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  auto edge_types = RandomEdgeTypes(m, types, rng);
  return Graph::FromCoo(n, std::move(edges.src), std::move(edges.dst), std::move(edge_types),
                        types);
}

// ---- Type storage ---------------------------------------------------------------------------------

TEST(TypeStorageTest, RunsCoverAllSlots) {
  Graph g = SmallHetero(1);
  TypeOffsetIndex index = BuildTypeOffsetIndex(g.in_csr());
  ASSERT_EQ(index.run_bounds.size(), static_cast<size_t>(g.num_vertices()) + 1);
  // Reconstruct per-slot types from runs and compare with the flat array.
  const Csr& csr = g.in_csr();
  for (int64_t k = 0; k < g.num_vertices(); ++k) {
    const int64_t slot_end = csr.offsets[static_cast<size_t>(k) + 1];
    for (int64_t run = index.run_bounds[static_cast<size_t>(k)];
         run < index.run_bounds[static_cast<size_t>(k) + 1]; ++run) {
      const int64_t start = index.run_start_slot[static_cast<size_t>(run)];
      const int64_t end = run + 1 < index.run_bounds[static_cast<size_t>(k) + 1]
                              ? index.run_start_slot[static_cast<size_t>(run) + 1]
                              : slot_end;
      for (int64_t slot = start; slot < end; ++slot) {
        EXPECT_EQ(csr.edge_types[static_cast<size_t>(slot)],
                  index.run_type[static_cast<size_t>(run)]);
      }
    }
  }
}

TEST(TypeStorageTest, UniqueTypePairsMatchesBruteForce) {
  Graph g = SmallHetero(2);
  int64_t expected = 0;
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    std::set<int32_t> types_at_v;
    for (int64_t e = 0; e < g.num_edges(); ++e) {
      if (g.edge_dst()[static_cast<size_t>(e)] == v) {
        types_at_v.insert(g.edge_type()[static_cast<size_t>(e)]);
      }
    }
    expected += static_cast<int64_t>(types_at_v.size());
  }
  EXPECT_EQ(UniqueTypePairs(g.in_csr()), expected);
}

TEST(TypeStorageTest, PaperDecisionHoldsOnHeteroCatalogue) {
  // The paper rejects the compressed format because N_e / N_t < 2 on its
  // datasets; our synthetic stand-ins must reproduce that decision.
  for (const DatasetSpec& spec : HeterogeneousDatasets()) {
    DatasetOptions options;
    options.scale = 0.05;
    Dataset data = MakeDataset(spec, options);
    TypeStorageDecision decision = AnalyzeTypeStorage(data.graph);
    EXPECT_GT(decision.ratio, 0.0) << spec.name;
    EXPECT_LT(decision.ratio, 2.0) << spec.name;  // Paper: 1.385 .. 1.923.
    EXPECT_TRUE(decision.flat_wins) << spec.name;
  }
}

TEST(TypeStorageTest, CompressedWinsWhenRunsAreLong) {
  // A graph where one vertex has many edges of a single type: huge runs,
  // tiny index — the regime where the compressed format would win.
  std::vector<int32_t> src;
  std::vector<int32_t> dst;
  std::vector<int32_t> types;
  for (int i = 0; i < 1000; ++i) {
    src.push_back(1 + (i % 7));
    dst.push_back(0);
    types.push_back(0);
  }
  Graph g = Graph::FromCoo(8, std::move(src), std::move(dst), std::move(types), 2);
  TypeStorageDecision decision = AnalyzeTypeStorage(g);
  EXPECT_GT(decision.ratio, 2.0);
  EXPECT_FALSE(decision.flat_wins);
}

// ---- IO --------------------------------------------------------------------------------------------

TEST(GraphIoTest, TsvRoundTripHomogeneous) {
  Rng rng(3);
  Graph g = ToGraph(ErdosRenyi(20, 80, rng));
  const std::string path = TempPath("seastar_io_test.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(g, path));
  auto loaded = LoadEdgeListTsv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->edge_src(), g.edge_src());
  EXPECT_EQ(loaded->edge_dst(), g.edge_dst());
  std::filesystem::remove(path);
}

TEST(GraphIoTest, TsvRoundTripHeterogeneous) {
  Graph g = SmallHetero(4);
  const std::string path = TempPath("seastar_io_test_h.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(g, path));
  auto loaded = LoadEdgeListTsv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->edge_type(), g.edge_type());
  EXPECT_EQ(loaded->num_edge_types(), g.num_edge_types());
  std::filesystem::remove(path);
}

TEST(GraphIoTest, TsvRejectsMalformedInput) {
  const std::string path = TempPath("seastar_io_bad.tsv");
  {
    std::ofstream out(path);
    out << "1\t2\n1\tnope\n";
  }
  EXPECT_FALSE(LoadEdgeListTsv(path).has_value());
  {
    std::ofstream out(path);
    out << "1\t2\n3\t4\t0\n";  // Inconsistent columns.
  }
  EXPECT_FALSE(LoadEdgeListTsv(path).has_value());
  {
    std::ofstream out(path);
    out << "-1\t2\n";  // Negative id.
  }
  EXPECT_FALSE(LoadEdgeListTsv(path).has_value());
  std::filesystem::remove(path);
  EXPECT_FALSE(LoadEdgeListTsv(TempPath("does_not_exist.tsv")).has_value());
}

TEST(GraphIoTest, TsvVertexCountHint) {
  const std::string path = TempPath("seastar_io_hint.tsv");
  {
    std::ofstream out(path);
    out << "0\t1\n";
  }
  auto loaded = LoadEdgeListTsv(path, /*num_vertices_hint=*/10);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_vertices(), 10);
  std::filesystem::remove(path);
}

TEST(GraphIoTest, MatrixMarketGeneralPattern) {
  const std::string path = TempPath("seastar_io.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n"
        << "% a comment\n"
        << "3 3 3\n"
        << "1 2\n2 3\n3 1\n";
  }
  auto loaded = LoadMatrixMarket(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_vertices(), 3);
  EXPECT_EQ(loaded->num_edges(), 3);
  EXPECT_EQ(loaded->edge_src()[0], 0);
  EXPECT_EQ(loaded->edge_dst()[0], 1);
  std::filesystem::remove(path);
}

TEST(GraphIoTest, MatrixMarketSymmetricRealDoublesEdges) {
  const std::string path = TempPath("seastar_io_sym.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real symmetric\n"
        << "4 4 3\n"
        << "2 1 0.5\n3 1 1.5\n4 4 2.0\n";  // Diagonal entry not doubled.
  }
  auto loaded = LoadMatrixMarket(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_edges(), 5);  // 2 off-diagonal x2 + 1 diagonal.
  std::filesystem::remove(path);
}

TEST(GraphIoTest, MatrixMarketRejectsBadBanner) {
  const std::string path = TempPath("seastar_io_bad.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix array real general\n1 1\n0.5\n";
  }
  EXPECT_FALSE(LoadMatrixMarket(path).has_value());
  std::filesystem::remove(path);
}

// ---- Sampling ---------------------------------------------------------------------------------------

TEST(SamplingTest, SeedsComeFirstAndEdgesRespectFanout) {
  Rng rng(6);
  Graph g = ToGraph(Rmat(200, 3000, rng));
  Rng sample_rng(7);
  const std::vector<int32_t> seeds{5, 17, 42};
  SampledSubgraph sub = SampleNeighborhood(g, seeds, {4, 4}, sample_rng);
  ASSERT_EQ(sub.num_seeds, 3);
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(sub.local_to_global[i], seeds[i]);
  }
  // Hop-1 constraint: each seed has at most 4 in-edges in the subgraph...
  // plus hop-2 edges pointing at hop-1 vertices; check seeds only.
  std::vector<int> in_count(sub.local_to_global.size(), 0);
  for (int64_t e = 0; e < sub.graph.num_edges(); ++e) {
    ++in_count[static_cast<size_t>(sub.graph.edge_dst()[static_cast<size_t>(e)])];
  }
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_LE(in_count[i], 4);
  }
}

TEST(SamplingTest, EveryEdgeExistsInOriginalGraph) {
  Rng rng(8);
  Graph g = ToGraph(ErdosRenyi(100, 1000, rng));
  std::set<std::pair<int32_t, int32_t>> original;
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    original.emplace(g.edge_src()[static_cast<size_t>(e)],
                     g.edge_dst()[static_cast<size_t>(e)]);
  }
  Rng sample_rng(9);
  SampledSubgraph sub = SampleNeighborhood(g, {0, 1, 2, 3}, {3, 3}, sample_rng);
  for (int64_t e = 0; e < sub.graph.num_edges(); ++e) {
    const int32_t u = sub.local_to_global[static_cast<size_t>(
        sub.graph.edge_src()[static_cast<size_t>(e)])];
    const int32_t v = sub.local_to_global[static_cast<size_t>(
        sub.graph.edge_dst()[static_cast<size_t>(e)])];
    EXPECT_TRUE(original.count({u, v})) << u << "->" << v;
  }
}

TEST(SamplingTest, FullFanoutTakesAllNeighbors) {
  Graph g = ToGraph(Star(6));  // All of 1..5 point at 0.
  Rng rng(10);
  SampledSubgraph sub = SampleNeighborhood(g, {0}, {0}, rng);
  EXPECT_EQ(sub.graph.num_edges(), 5);
  EXPECT_EQ(sub.local_to_global.size(), 6u);
}

TEST(SamplingTest, HeteroSubgraphKeepsEdgeTypes) {
  Graph g = SmallHetero(11, 40, 400, 5);
  Rng rng(12);
  SampledSubgraph sub = SampleNeighborhood(g, {0, 1}, {5}, rng);
  EXPECT_EQ(sub.graph.num_edge_types(), 5);
  EXPECT_EQ(sub.graph.edge_type().size(), static_cast<size_t>(sub.graph.num_edges()));
}

TEST(SamplingTest, GatherLocalFeaturesAndLabels) {
  Rng rng(13);
  Graph g = ToGraph(ErdosRenyi(50, 300, rng));
  Tensor features = ops::RandomNormal({50, 4}, 0, 1, rng);
  std::vector<int32_t> labels(50);
  for (int i = 0; i < 50; ++i) {
    labels[static_cast<size_t>(i)] = i % 3;
  }
  Rng sample_rng(14);
  SampledSubgraph sub = SampleNeighborhood(g, {7, 8}, {2}, sample_rng);
  Tensor local = GatherLocalFeatures(sub, features);
  auto local_labels = GatherLocalLabels(sub, labels);
  for (size_t i = 0; i < sub.local_to_global.size(); ++i) {
    const int32_t global = sub.local_to_global[i];
    EXPECT_EQ(local_labels[i], labels[static_cast<size_t>(global)]);
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(local.at(static_cast<int64_t>(i), j), features.at(global, j));
    }
  }
}

TEST(SamplingTest, SeedBatchesPartitionAllVertices) {
  Rng rng(15);
  auto batches = MakeSeedBatches(103, 10, rng);
  EXPECT_EQ(batches.size(), 11u);
  std::set<int32_t> seen;
  for (const auto& batch : batches) {
    for (int32_t v : batch) {
      EXPECT_TRUE(seen.insert(v).second);
    }
  }
  EXPECT_EQ(seen.size(), 103u);
}

}  // namespace
}  // namespace seastar

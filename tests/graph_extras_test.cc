// Tests for the graph substrate extensions: the §6.3.5 edge-type storage
// study and graph IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/type_storage.h"

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
  // A type whose count (type + 1) overflows int32, an id past int32, and
  // tokens after the src/dst/type columns: a Status naming the line, never
  // an abort.
  for (const char* text : {"0\t1\t2147483647\n", "0\t4294967297\n", "1 2 x\n", "1 2 3 4\n"}) {
    {
      std::ofstream out(path);
      out << "# src dst [type]\n" << text;
    }
    StatusOr<Graph> loaded = LoadEdgeListTsv(path);
    ASSERT_FALSE(loaded.has_value()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(loaded.status().message().find(path + ":2"), std::string::npos)
        << loaded.status().ToString();
  }
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
  // Dimensions past int32 vertex ids are rejected at the size line.
  for (const char* size_line : {"3000000000 2 1\n", "2 3000000000 1\n"}) {
    {
      std::ofstream out(path);
      out << "%%MatrixMarket matrix coordinate pattern general\n" << size_line << "1 1\n";
    }
    StatusOr<Graph> loaded = LoadMatrixMarket(path);
    ASSERT_FALSE(loaded.has_value()) << size_line;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << size_line;
    EXPECT_NE(loaded.status().message().find(path + ":2"), std::string::npos)
        << loaded.status().ToString();
  }
  // An entry count far past what the file holds is a truncated list, not an
  // allocation of that many edges.
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n1 1 999999999999999\n1 1\n";
  }
  StatusOr<Graph> loaded = LoadMatrixMarket(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << loaded.status().ToString();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace seastar

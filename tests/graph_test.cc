#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/io.h"

namespace seastar {
namespace {

// The example graph of paper Fig. 7: edges A->B etc. Vertices A=0,B=1,C=2,D=3.
Graph Fig7Graph(bool sorted) {
  // 7 directed edges: in-degrees A:3, B:2, C:1, D:1.
  std::vector<int32_t> src{1, 3, 2, 3, 1, 2, 0};
  std::vector<int32_t> dst{0, 0, 0, 1, 2, 3, 1};
  GraphOptions options;
  options.sort_by_degree = sorted;
  return Graph::FromCoo(4, std::move(src), std::move(dst), {}, 1, options);
}

TEST(CsrTest, DegreeSortedPositionsDescending) {
  Graph g = Fig7Graph(/*sorted=*/true);
  const Csr& csr = g.in_csr();
  for (int64_t k = 0; k + 1 < csr.num_vertices; ++k) {
    EXPECT_GE(csr.DegreeAtPosition(k), csr.DegreeAtPosition(k + 1));
  }
  // Vertex A (id 0, in-degree 3) must be at position 0.
  EXPECT_EQ(csr.position_vertex[0], 0);
  EXPECT_EQ(csr.vertex_position[0], 0);
}

TEST(CsrTest, UnsortedKeepsIdentityPermutation) {
  Graph g = Fig7Graph(/*sorted=*/false);
  const Csr& csr = g.in_csr();
  for (int64_t k = 0; k < csr.num_vertices; ++k) {
    EXPECT_EQ(csr.position_vertex[static_cast<size_t>(k)], k);
  }
}

TEST(CsrTest, OffsetsConsistentWithDegrees) {
  Graph g = Fig7Graph(true);
  const Csr& csr = g.in_csr();
  EXPECT_EQ(csr.offsets.front(), 0);
  EXPECT_EQ(csr.offsets.back(), g.num_edges());
  EXPECT_EQ(g.InDegree(0), 3);
  EXPECT_EQ(g.InDegree(1), 2);
  EXPECT_EQ(g.InDegree(2), 1);
  EXPECT_EQ(g.InDegree(3), 1);
}

TEST(CsrTest, SlotsContainExactlyTheInNeighbors) {
  Graph g = Fig7Graph(true);
  const Csr& csr = g.in_csr();
  const int64_t pos = csr.vertex_position[0];  // vertex A
  std::multiset<int32_t> nbrs;
  for (int64_t s = csr.offsets[static_cast<size_t>(pos)];
       s < csr.offsets[static_cast<size_t>(pos) + 1]; ++s) {
    nbrs.insert(csr.nbr_ids[static_cast<size_t>(s)]);
  }
  EXPECT_EQ(nbrs, (std::multiset<int32_t>{1, 2, 3}));
}

TEST(CsrTest, EdgeIdsMapBackToCooEndpoints) {
  Graph g = Fig7Graph(true);
  const Csr& csr = g.in_csr();
  for (int64_t k = 0; k < csr.num_vertices; ++k) {
    const int32_t dst = csr.position_vertex[static_cast<size_t>(k)];
    for (int64_t s = csr.offsets[static_cast<size_t>(k)];
         s < csr.offsets[static_cast<size_t>(k) + 1]; ++s) {
      const int32_t eid = csr.edge_ids[static_cast<size_t>(s)];
      EXPECT_EQ(g.edge_dst()[static_cast<size_t>(eid)], dst);
      EXPECT_EQ(g.edge_src()[static_cast<size_t>(eid)], csr.nbr_ids[static_cast<size_t>(s)]);
    }
  }
}

TEST(CsrTest, ReverseCsrCarriesForwardEdgeIds) {
  // §6.3.4: after flipping, the edge-id array must still identify original
  // edges (slot index alone would not).
  Graph g = Fig7Graph(true);
  const Csr& csr = g.out_csr();
  for (int64_t k = 0; k < csr.num_vertices; ++k) {
    const int32_t src = csr.position_vertex[static_cast<size_t>(k)];
    for (int64_t s = csr.offsets[static_cast<size_t>(k)];
         s < csr.offsets[static_cast<size_t>(k) + 1]; ++s) {
      const int32_t eid = csr.edge_ids[static_cast<size_t>(s)];
      EXPECT_EQ(g.edge_src()[static_cast<size_t>(eid)], src);
      EXPECT_EQ(g.edge_dst()[static_cast<size_t>(eid)], csr.nbr_ids[static_cast<size_t>(s)]);
    }
  }
}

TEST(CsrTest, EveryEdgeIdAppearsOncePerCsr) {
  Graph g = Fig7Graph(true);
  for (const Csr* csr : {&g.in_csr(), &g.out_csr()}) {
    std::set<int32_t> seen(csr->edge_ids.begin(), csr->edge_ids.end());
    EXPECT_EQ(static_cast<int64_t>(seen.size()), g.num_edges());
  }
}

TEST(GraphTest, HeteroSlotsSortedByType) {
  Rng rng(1);
  CooEdges edges = ErdosRenyi(50, 600, rng);
  auto types = RandomEdgeTypes(600, 5, rng);
  Graph g = Graph::FromCoo(50, std::move(edges.src), std::move(edges.dst), std::move(types), 5);
  for (const Csr* csr : {&g.in_csr(), &g.out_csr()}) {
    ASSERT_EQ(csr->edge_types.size(), 600u);
    for (int64_t k = 0; k < csr->num_vertices; ++k) {
      for (int64_t s = csr->offsets[static_cast<size_t>(k)] + 1;
           s < csr->offsets[static_cast<size_t>(k) + 1]; ++s) {
        EXPECT_LE(csr->edge_types[static_cast<size_t>(s - 1)],
                  csr->edge_types[static_cast<size_t>(s)]);
      }
    }
  }
}

TEST(GraphTest, HeteroEdgeTypesMatchCooAfterSorting) {
  Rng rng(2);
  CooEdges edges = ErdosRenyi(20, 100, rng);
  auto types = RandomEdgeTypes(100, 3, rng);
  auto types_copy = types;
  Graph g = Graph::FromCoo(20, std::move(edges.src), std::move(edges.dst), std::move(types), 3);
  const Csr& csr = g.in_csr();
  for (int64_t s = 0; s < g.num_edges(); ++s) {
    const int32_t eid = csr.edge_ids[static_cast<size_t>(s)];
    EXPECT_EQ(csr.edge_types[static_cast<size_t>(s)], types_copy[static_cast<size_t>(eid)]);
  }
}

TEST(GraphTest, StatsAndDebugString) {
  Graph g = Fig7Graph(true);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_EQ(g.MaxInDegree(), 3);
  EXPECT_NEAR(g.AverageInDegree(), 1.75, 1e-9);
  EXPECT_NE(g.DebugString().find("|V|=4"), std::string::npos);
}

TEST(GeneratorTest, ErdosRenyiCountsAndDeterminism) {
  Rng rng1(7);
  Rng rng2(7);
  CooEdges a = ErdosRenyi(100, 500, rng1);
  CooEdges b = ErdosRenyi(100, 500, rng2);
  EXPECT_EQ(a.src.size(), 500u);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  for (int32_t v : a.src) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(GeneratorTest, RmatProducesHeavierSkewThanErdosRenyi) {
  Rng rng(11);
  const int64_t n = 2000;
  const int64_t m = 20000;
  Graph er = ToGraph(ErdosRenyi(n, m, rng));
  Graph rm = ToGraph(Rmat(n, m, rng));
  EXPECT_GT(rm.MaxInDegree(), 2 * er.MaxInDegree());
}

TEST(GeneratorTest, DeterministicShapes) {
  CooEdges star = Star(5);
  EXPECT_EQ(star.src.size(), 4u);
  for (int32_t d : star.dst) {
    EXPECT_EQ(d, 0);
  }
  EXPECT_EQ(Chain(5).src.size(), 4u);
  EXPECT_EQ(Cycle(5).src.size(), 5u);
  EXPECT_EQ(Complete(4).src.size(), 12u);
}

TEST(GeneratorTest, SelfLoopsAddOnePerVertex) {
  CooEdges edges = Chain(4);
  const size_t before = edges.src.size();
  AddSelfLoops(edges);
  EXPECT_EQ(edges.src.size(), before + 4);
  Graph g = ToGraph(std::move(edges));
  for (int32_t v = 0; v < 4; ++v) {
    EXPECT_GE(g.InDegree(v), 1);
  }
}

TEST(GeneratorTest, EdgeTypesInRangeAndSkewed) {
  Rng rng(13);
  auto types = RandomEdgeTypes(10000, 10, rng);
  std::vector<int> counts(10, 0);
  for (int32_t t : types) {
    ASSERT_GE(t, 0);
    ASSERT_LT(t, 10);
    ++counts[static_cast<size_t>(t)];
  }
  EXPECT_GT(counts[0], counts[9]);  // Zipf-ish bias.
}

TEST(SbmTest, GeneratorIsCommunityBiased) {
  Rng rng(5);
  SbmResult sbm = StochasticBlockModel(150, 3, 0.1, 0.005, rng);
  int64_t intra = 0;
  int64_t inter = 0;
  for (size_t e = 0; e < sbm.edges.src.size(); ++e) {
    const bool same = sbm.labels[static_cast<size_t>(sbm.edges.src[e])] ==
                      sbm.labels[static_cast<size_t>(sbm.edges.dst[e])];
    (same ? intra : inter) += 1;
  }
  EXPECT_GT(intra, inter * 3);
}

TEST(DatasetTest, CatalogMatchesPaperTable2) {
  ASSERT_EQ(DatasetCatalog().size(), 12u);
  const DatasetSpec* reddit = FindDataset("reddit");
  ASSERT_NE(reddit, nullptr);
  EXPECT_EQ(reddit->num_vertices, 198021);
  EXPECT_EQ(reddit->num_edges, 84120742);
  EXPECT_EQ(reddit->feature_dim, 602);
  const DatasetSpec* bgs = FindDataset("bgs");
  ASSERT_NE(bgs, nullptr);
  EXPECT_EQ(bgs->num_relations, 206);
  EXPECT_EQ(HomogeneousDatasets().size(), 9u);
  EXPECT_EQ(HeterogeneousDatasets().size(), 3u);
  EXPECT_EQ(FindDataset("nope"), nullptr);
}

TEST(DatasetTest, ScaledMaterialization) {
  DatasetOptions options;
  options.scale = 0.1;
  options.max_feature_dim = 64;
  Dataset d = MakeDatasetByName("pubmed", options);
  EXPECT_NEAR(d.spec.num_vertices, 1972, 2);
  EXPECT_EQ(d.spec.feature_dim, 64);
  EXPECT_EQ(d.features.dim(0), d.spec.num_vertices);
  EXPECT_EQ(d.features.dim(1), 64);
  EXPECT_EQ(static_cast<int64_t>(d.labels.size()), d.spec.num_vertices);
  EXPECT_FALSE(d.train_mask.empty());
  for (int32_t label : d.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, d.spec.num_classes);
  }
}

TEST(DatasetTest, SelfLoopsGiveNonzeroNorm) {
  DatasetOptions options;
  options.scale = 0.2;
  Dataset d = MakeDatasetByName("cora", options);
  for (int64_t v = 0; v < d.spec.num_vertices; ++v) {
    EXPECT_GT(d.gcn_norm.at(v, 0), 0.0f);
    EXPECT_LE(d.gcn_norm.at(v, 0), 1.0f);
  }
}

TEST(DatasetTest, HeteroDatasetHasTypesAndNoFeatures) {
  DatasetOptions options;
  options.scale = 0.2;
  Dataset d = MakeDatasetByName("aifb", options);
  EXPECT_GT(d.graph.num_edge_types(), 1);
  EXPECT_FALSE(d.features.defined());
  EXPECT_EQ(d.graph.edge_type().size(), static_cast<size_t>(d.graph.num_edges()));
}

TEST(DatasetTest, DeterministicForSameSeed) {
  DatasetOptions options;
  options.scale = 0.1;
  Dataset a = MakeDatasetByName("citeseer", options);
  Dataset b = MakeDatasetByName("citeseer", options);
  EXPECT_EQ(a.graph.edge_src(), b.graph.edge_src());
  EXPECT_TRUE(a.features.AllClose(b.features));
  EXPECT_EQ(a.labels, b.labels);
}

TEST(DatasetTest, UnknownNameIsAStructuredError) {
  StatusOr<Dataset> missing = TryMakeDatasetByName("no-such-dataset", {});
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("no-such-dataset"), std::string::npos);
  // The error lists the valid catalogue so the caller can self-correct.
  EXPECT_NE(missing.status().message().find("cora"), std::string::npos);
}

// ---- Corrupt-fixture loader errors: every failure is a Status naming the
// file and the line — loaders never abort.

std::string CorruptFixturePath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void WriteText(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << body;
}

TEST(GraphIoErrorTest, MalformedTsvNamesFileAndLine) {
  const std::string path = CorruptFixturePath("corrupt_edges.tsv");
  WriteText(path, "# comment\n0\t1\n2\tnot_a_vertex\n");
  StatusOr<Graph> loaded = LoadEdgeListTsv(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(path + ":3"), std::string::npos)
      << loaded.status().ToString();
  std::filesystem::remove(path);
}

TEST(GraphIoErrorTest, InconsistentTsvColumnsRejected) {
  const std::string path = CorruptFixturePath("mixed_columns.tsv");
  WriteText(path, "0\t1\t0\n1\t2\n");
  StatusOr<Graph> loaded = LoadEdgeListTsv(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.status().message().find(path + ":2"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("column"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(GraphIoErrorTest, BadMatrixMarketBannerRejected) {
  const std::string path = CorruptFixturePath("bad_banner.mtx");
  WriteText(path, "%%NotMatrixMarket whatever\n3 3 1\n1 2\n");
  StatusOr<Graph> loaded = LoadMatrixMarket(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(path + ":1"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(GraphIoErrorTest, MatrixMarketIndexOutOfRangeRejected) {
  const std::string path = CorruptFixturePath("oob_index.mtx");
  WriteText(path,
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n"
            "1 2\n"
            "9 1\n");  // Row 9 of a 3x3 matrix.
  StatusOr<Graph> loaded = LoadMatrixMarket(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("out of bounds"), std::string::npos)
      << loaded.status().ToString();
  std::filesystem::remove(path);
}

TEST(GraphIoErrorTest, MatrixMarketTruncatedEntryListIsDataLoss) {
  const std::string path = CorruptFixturePath("short_entries.mtx");
  WriteText(path,
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 4\n"  // Promises 4 entries, delivers 1.
            "1 2\n");
  StatusOr<Graph> loaded = LoadMatrixMarket(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(GraphIoErrorTest, MissingFileIsNotFound) {
  StatusOr<Graph> loaded = LoadEdgeListTsv(CorruptFixturePath("never_written.tsv"));
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(GraphIoErrorTest, InjectedReadFaultSurfacesAsUnavailable) {
  ScopedFaultClear clear;
  const std::string path = CorruptFixturePath("fault_inject.tsv");
  WriteText(path, "0\t1\n1\t2\n");
  FaultInjector::Get().Arm(FaultSite::kGraphRead, /*after_n=*/0, /*count=*/1);

  StatusOr<Graph> faulted = LoadEdgeListTsv(path);
  ASSERT_FALSE(faulted.has_value());
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(faulted.status().message().find("injected"), std::string::npos);

  // The single-shot window is spent: the very next read succeeds.
  StatusOr<Graph> ok = LoadEdgeListTsv(path);
  ASSERT_TRUE(ok.has_value()) << ok.status().ToString();
  EXPECT_EQ(ok->num_edges(), 2);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace seastar

// Tests for the legacy backend names (src/core/backend.h) and VertexProgram
// input validation (src/core/program.h). Suite names are kept from the
// tests' previous file so their ids stay stable.
#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/core/backend.h"
#include "src/core/program.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"

namespace seastar {
namespace {

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

// ---- BackendFromString (api_redesign) ------------------------------------

TEST(ProfilerTest, BackendFromStringParsesKnownNamesAndRejectsJunk) {
  EXPECT_EQ(BackendFromString("seastar"), Backend::kSeastar);
  EXPECT_EQ(BackendFromString("seastar-nofuse"), Backend::kSeastarNoFusion);
  EXPECT_EQ(BackendFromString("nofuse"), Backend::kSeastarNoFusion);
  EXPECT_EQ(BackendFromString("dgl"), Backend::kDglLike);
  EXPECT_EQ(BackendFromString("pyg"), Backend::kPygLike);
  EXPECT_FALSE(BackendFromString("tensorflow").has_value());
  EXPECT_FALSE(BackendFromString("").has_value());
  EXPECT_NE(std::string(BackendChoices()).find("seastar"), std::string::npos);
}

// ---- VertexProgram input validation --------------------------------------
//
// These intentionally run through the deprecated BackendConfig overload of
// VertexProgram::Run: they double as coverage that the compatibility shim
// still validates inputs exactly like the ExecutionSession path.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

TEST(ProfilerDeathTest, MissingProgramInputNamesTheInput) {
  const Graph g = RandomGraph(20, 60, 0xdead);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  VertexProgram program = VertexProgram::Compile(std::move(b));
  BackendConfig config;
  EXPECT_DEATH(program.Run(g, {}, config), "missing vertex input 'h'");
}

TEST(ProfilerDeathTest, MisShapedProgramInputNamesTheInput) {
  const Graph g = RandomGraph(20, 60, 0xdeae);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  VertexProgram program = VertexProgram::Compile(std::move(b));
  BackendConfig config;
  // Wrong width (3 != 4).
  Var bad_width = Var::Leaf(Tensor::Zeros({g.num_vertices(), 3}), /*requires_grad=*/false);
  EXPECT_DEATH(program.Run(g, {.vertex = {{"h", bad_width}}}, config),
               "vertex input 'h' has shape");
  // Wrong row count (vertex tensor sized for a different graph).
  Var bad_rows = Var::Leaf(Tensor::Zeros({g.num_vertices() + 1, 4}), /*requires_grad=*/false);
  EXPECT_DEATH(program.Run(g, {.vertex = {{"h", bad_rows}}}, config),
               "vertex input 'h' has shape");
}

#pragma GCC diagnostic pop

}  // namespace
}  // namespace seastar

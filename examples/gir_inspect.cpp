// Developer tool: prints the forward GIR, backward GIR, and fused execution
// plans for each built-in model's graph kernel — the Fig. 5/6 pipeline made
// visible. Useful for understanding what the tracer, autodiff, and fusion
// FSM produced for a given per-vertex program. The backward is the one a
// Seastar training step runs: it reads what the forward plan materialized
// as Input<__saved<id>> leaves.
//
//   ./gir_inspect [--model=gat|gcn|appnp|rgcn|gin|sage] [--width=8]
//
// --width is the feature width; for gat, the width of each of its 8 heads.
#include <cstdio>
#include <string>

#include "src/common/string_util.h"
#include "src/core/program.h"

namespace seastar {
namespace {

GirBuilder BuildModelKernel(const std::string& model, int32_t width) {
  GirBuilder b;
  if (model == "gcn") {
    b.MarkOutput(AggSum(b.Src("h", width) * b.Src("norm", 1)), "out");
  } else if (model == "gat") {
    // Every head at once, as src/core/models/gat.cc runs a hidden layer:
    // one score per head in eu/ev, the heads' features side by side in h.
    constexpr int32_t kHeads = 8;
    Value e = Exp(LeakyRelu(b.Src("eu", kHeads) + b.Dst("ev", kHeads), 0.2f));
    b.MarkOutput(AggSum(e / AggSum(e) * b.Src("h", kHeads * width)), "out");
  } else if (model == "appnp") {
    Value prop = AggSum(b.Src("h", width) * b.Src("norm", 1)) * b.Dst("norm", 1);
    b.MarkOutput(prop * 0.9f + b.Dst("h0", width) * 0.1f, "out");
  } else if (model == "rgcn") {
    b.MarkOutput(AggSum(b.TypedSrc("wh", width) * b.Edge("norm", 1)), "out");
  } else if (model == "gin") {
    b.MarkOutput(AggSum(b.Src("h", width)) + b.Dst("h", width) * 1.0f, "out");
  } else if (model == "sage") {
    b.MarkOutput(AggMean(b.Src("h", width)), "out");
  } else {
    std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
    std::exit(1);
  }
  return b;
}

}  // namespace
}  // namespace seastar

int main(int argc, char** argv) {
  using namespace seastar;
  const std::string model = FlagValue(argc, argv, "model", "gat");
  const int32_t width = static_cast<int32_t>(FlagInt(argc, argv, "width", 8));

  std::printf("model: %s (feature width %d)\n\n", model.c_str(), width);
  VertexProgram program = VertexProgram::Compile(BuildModelKernel(model, width));
  std::fputs(program.DebugString().c_str(), stdout);
  std::printf(
      "\nlegend: %%id:TYPE[width] — S source-wise, D destination-wise, E edge-wise,\n"
      "P parameter; '*' marks materialized values; '^' marks a value this unit\n"
      "recomputes from materialized inputs instead of reading it; everything else lives\n"
      "in registers inside the fused kernel loop. Input<__savedN> is forward value %%N,\n"
      "materialized by the forward plan and read by the backward instead of recomputed\n"
      "(the sharded runtime returns no forward values and recomputes them).\n");
  return 0;
}

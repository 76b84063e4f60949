// Graph Attention Network (Velickovic et al.; paper Fig. 2), per head h:
//
//   f_u = W_h h_u;  e_u = f_u . a_l,h;  e_v = f_v . a_r,h
//   e_uv = LeakyReLU(e_u + e_v)
//   a_uv = exp(e_uv) / sum_{u in N(v)} exp(e_uv)      (edge softmax)
//   h_v' = sum_{u in N(v)} a_uv * f_u
//
// All heads of a layer run batched: one [in, heads * dim] projection (head
// h in columns [h * dim, (h + 1) * dim)), the scores e_u / e_v of every head
// as one [N, heads] grouped row dot, and one compiled vertex program (paper
// Fig. 3 / Fig. 6) whose attention runs at width `heads` and whose output
// AggSum(a * f) broadcasts each head's attention over that head's dim
// features (the GIR's grouped broadcast). The program is the paper's
// per-head program, one line per step, at the batched widths; the hidden
// layer is one launch set for every head. Every element is the float chain
// evaluating that head alone computes, and the weights are drawn head by
// head, so training matches running the heads one at a time bit for bit.
// GAT is the most fusion-rich of the four models, which is why it shows
// Seastar's largest speedups.
#ifndef SRC_CORE_MODELS_GAT_H_
#define SRC_CORE_MODELS_GAT_H_

#include <vector>

#include "src/core/models/model.h"
#include "src/core/nn.h"
#include "src/core/program.h"

namespace seastar {

struct GatConfig {
  int64_t hidden_dim = 8;  // Per head.
  int num_heads = 8;       // Hidden layers; the output layer uses 1 head.
  int num_layers = 2;
  float feat_dropout = 0.6f;
  float negative_slope = 0.2f;
  uint64_t seed = 0x6a7;
};

class Gat : public GnnModel {
 public:
  Gat(const Dataset& data, const GatConfig& config, std::shared_ptr<const Executor> executor);

  Var Forward(bool training) override;
  // Per layer: the projection, then the left and right attention vectors.
  std::vector<Var> Parameters() const override;
  const char* name() const override { return "GAT"; }
  Rng* MutableRng() override { return &rng_; }

 private:
  struct Layer {
    Var weight;      // [in, heads * dim]
    Var attn_left;   // [heads, dim]: row h is head h's a_l
    Var attn_right;  // [heads, dim]
    VertexProgram program;  // The attention kernel at this layer's widths.
  };

  const Dataset& data_;
  GatConfig config_;
  Rng rng_;
  std::vector<Layer> layers_;
  Var features_;
};

}  // namespace seastar

#endif  // SRC_CORE_MODELS_GAT_H_

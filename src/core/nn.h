// Neural-network building blocks on top of the autograd tape: parameter
// containers, layers used by the four paper models, the Adam optimizer, and
// metrics.
#ifndef SRC_CORE_NN_H_
#define SRC_CORE_NN_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/autograd.h"
#include "src/tensor/tensor.h"

namespace seastar {

// Fully connected layer: y = x @ W (+ b).
class Linear {
 public:
  Linear() = default;
  Linear(int64_t in_features, int64_t out_features, bool with_bias, Rng& rng);

  Var Forward(const Var& x) const;

  std::vector<Var> Parameters() const;
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_ = 0;
  int64_t out_features_ = 0;
  Var weight_;  // [in, out]
  Var bias_;    // [out] (undefined when bias disabled)
};

// Learned per-vertex embedding table (the input layer for featureless
// knowledge graphs in R-GCN).
class Embedding {
 public:
  Embedding() = default;
  Embedding(int64_t num_rows, int64_t dim, Rng& rng);

  // The whole table as a Var (full-graph training uses every row).
  const Var& Full() const { return table_; }
  std::vector<Var> Parameters() const { return {table_}; }

 private:
  Var table_;
};

// Computes the stack H_r = x @ weights[r] for all relations as one
// [num_relations, N, dim] Var — the batched-matmul building block of R-GCN
// (both the Seastar path and the paper's DGL-bmm / PyG-bmm baselines).
Var StackedRelationMatmul(const Var& x, const std::vector<Var>& weights);

// ---- Optimizer -----------------------------------------------------------------------------------

// Adam with the standard moment decays and epsilon (Kingma & Ba; the
// defaults of the paper's PyTorch training scripts).
class Adam {
 public:
  static constexpr float kBeta1 = 0.9f;
  static constexpr float kBeta2 = 0.999f;
  static constexpr float kEps = 1e-8f;

  Adam(std::vector<Var> parameters, float lr);

  void Step();
  void ZeroGrad();

  // Recovery policy hook: learning-rate backoff after a rollback.
  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

  // Checkpointable optimizer state. Restoring the moments and step counter
  // (with matching parameter values) makes a resumed run continue exactly
  // as the uninterrupted one would have.
  const std::vector<Tensor>& moments_m() const { return m_; }
  const std::vector<Tensor>& moments_v() const { return v_; }
  int64_t step_count() const { return t_; }
  void RestoreState(const std::vector<Tensor>& m, const std::vector<Tensor>& v, int64_t t);

 private:
  std::vector<Var> parameters_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  float lr_;
  int64_t t_ = 0;
};

// ---- Metrics -------------------------------------------------------------------------------------

// Fraction of rows in `rows` (all rows when empty) whose argmax matches the
// label.
float Accuracy(const Tensor& logits, const std::vector<int32_t>& labels,
               const std::vector<int32_t>& rows);

}  // namespace seastar

#endif  // SRC_CORE_NN_H_

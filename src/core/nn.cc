#include "src/core/nn.h"

#include <cmath>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/tracing.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"

namespace seastar {

Linear::Linear(int64_t in_features, int64_t out_features, bool with_bias, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = Var::Leaf(ops::XavierUniform(in_features, out_features, rng), /*requires_grad=*/true);
  if (with_bias) {
    bias_ = Var::Leaf(Tensor::Zeros({out_features}), /*requires_grad=*/true);
  }
}

Var Linear::Forward(const Var& x) const {
  SEASTAR_CHECK(weight_.defined()) << "Linear used before initialization";
  Var y = ag::Matmul(x, weight_);
  if (bias_.defined()) {
    y = ag::AddRowBroadcast(y, bias_);
  }
  return y;
}

std::vector<Var> Linear::Parameters() const {
  std::vector<Var> params{weight_};
  if (bias_.defined()) {
    params.push_back(bias_);
  }
  return params;
}

Embedding::Embedding(int64_t num_rows, int64_t dim, Rng& rng) {
  table_ = Var::Leaf(ops::RandomNormal({num_rows, dim}, 0.0f, 0.1f, rng), /*requires_grad=*/true);
}

Var StackedRelationMatmul(const Var& x, const std::vector<Var>& weights) {
  SEASTAR_CHECK(!weights.empty());
  const int64_t num_relations = static_cast<int64_t>(weights.size());
  const int64_t n = x.value().dim(0);
  const int64_t dim = weights[0].value().dim(1);

  // Forward: one [R, N, dim] stack computed relation by relation (the
  // underlying GEMMs are the same work a bmm kernel would do).
  Tensor stack({num_relations, n, dim});
  std::vector<Tensor> weight_values;
  weight_values.reserve(weights.size());
  for (int64_t r = 0; r < num_relations; ++r) {
    SEASTAR_CHECK_EQ(weights[static_cast<size_t>(r)].value().dim(1), dim);
    Tensor h_r = ops::Matmul(x.value(), weights[static_cast<size_t>(r)].value());
    std::memcpy(stack.data() + r * n * dim, h_r.data(),
                static_cast<size_t>(n * dim) * sizeof(float));
    weight_values.push_back(weights[static_cast<size_t>(r)].value());
  }

  std::vector<Var> inputs{x};
  inputs.insert(inputs.end(), weights.begin(), weights.end());
  Tensor x_value = x.value();
  auto backward = [x_value, weight_values, num_relations, n, dim](const Tensor& grad) {
    // grad: [R, N, dim]. dX = sum_r grad_r @ W_r^T; dW_r = X^T @ grad_r.
    trace::AmbientSpan span("stacked_relation_matmul/backward", "dense");
    std::vector<Tensor> grads;
    grads.reserve(static_cast<size_t>(num_relations) + 1);
    Tensor dx = Tensor::Zeros({n, x_value.dim(1)});
    std::vector<Tensor> dw;
    for (int64_t r = 0; r < num_relations; ++r) {
      Tensor grad_r({n, dim});
      std::memcpy(grad_r.data(), grad.data() + r * n * dim,
                  static_cast<size_t>(n * dim) * sizeof(float));
      dx = ops::Add(dx, ops::MatmulTransposeB(grad_r, weight_values[static_cast<size_t>(r)]));
      dw.push_back(ops::MatmulTransposeA(x_value, grad_r));
    }
    grads.push_back(std::move(dx));
    for (Tensor& t : dw) {
      grads.push_back(std::move(t));
    }
    return grads;
  };
  return ag::CustomOp(std::move(inputs), std::move(stack), std::move(backward),
                      "stacked_relation_matmul");
}

namespace {

// Optimizer updates are per-element independent, so chunking across the
// thread pool is bitwise identical to the serial loop. Small parameters
// (biases) stay on the calling thread via the grain threshold.
constexpr int64_t kOptimizerGrain = 16384;

}  // namespace

Adam::Adam(std::vector<Var> parameters, float lr) : parameters_(std::move(parameters)), lr_(lr) {
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const Var& param : parameters_) {
    m_.push_back(Tensor::Zeros(param.value().shape()));
    v_.push_back(Tensor::Zeros(param.value().shape()));
  }
}

void Adam::Step() {
  ++t_;
  const float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (size_t p = 0; p < parameters_.size(); ++p) {
    const Tensor& grad = parameters_[p].grad();
    if (!grad.defined()) {
      continue;
    }
    Tensor& value = parameters_[p].mutable_value();
    float* pv = value.data();
    const float* pg = grad.data();
    float* pm = m_[p].data();
    float* pvv = v_[p].data();
    const float lr = lr_;
    ParallelFor(
        value.numel(),
        [=](int64_t begin, int64_t end) {
          const float* __restrict__ g = pg;
          float* __restrict__ v = pv;
          float* __restrict__ m1 = pm;
          float* __restrict__ m2 = pvv;
          for (int64_t i = begin; i < end; ++i) {
            m1[i] = kBeta1 * m1[i] + (1.0f - kBeta1) * g[i];
            m2[i] = kBeta2 * m2[i] + (1.0f - kBeta2) * g[i] * g[i];
            const float m_hat = m1[i] / bias1;
            const float v_hat = m2[i] / bias2;
            v[i] -= lr * m_hat / (std::sqrt(v_hat) + kEps);
          }
        },
        kOptimizerGrain);
  }
}

void Adam::RestoreState(const std::vector<Tensor>& m, const std::vector<Tensor>& v, int64_t t) {
  SEASTAR_CHECK_EQ(m.size(), m_.size());
  SEASTAR_CHECK_EQ(v.size(), v_.size());
  SEASTAR_CHECK_GE(t, 0);
  for (size_t p = 0; p < m_.size(); ++p) {
    SEASTAR_CHECK_EQ(m[p].numel(), m_[p].numel());
    SEASTAR_CHECK_EQ(v[p].numel(), v_[p].numel());
    m_[p] = m[p].Clone();
    v_[p] = v[p].Clone();
  }
  t_ = t;
}

void Adam::ZeroGrad() {
  for (Var& param : parameters_) {
    param.ClearGrad();
  }
}

float Accuracy(const Tensor& logits, const std::vector<int32_t>& labels,
               const std::vector<int32_t>& rows) {
  const std::vector<int32_t> predictions = ops::RowArgmax(logits);
  int64_t correct = 0;
  if (rows.empty()) {
    for (size_t i = 0; i < predictions.size(); ++i) {
      correct += predictions[i] == labels[i] ? 1 : 0;
    }
    return static_cast<float>(correct) / static_cast<float>(predictions.size());
  }
  for (int32_t row : rows) {
    correct += predictions[static_cast<size_t>(row)] == labels[static_cast<size_t>(row)] ? 1 : 0;
  }
  return static_cast<float>(correct) / static_cast<float>(rows.size());
}

}  // namespace seastar

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

// Central-difference gradient check: loss(params) must be a pure function of
// the leaf's value tensor.
void CheckGradient(Tensor& leaf_value, const std::function<float()>& loss,
                   const Tensor& analytic_grad, float eps = 1e-2f, float tol = 2e-2f) {
  ASSERT_TRUE(analytic_grad.defined());
  ASSERT_EQ(analytic_grad.numel(), leaf_value.numel());
  for (int64_t i = 0; i < leaf_value.numel(); ++i) {
    const float saved = leaf_value.at(i);
    leaf_value.at(i) = saved + eps;
    const float up = loss();
    leaf_value.at(i) = saved - eps;
    const float down = loss();
    leaf_value.at(i) = saved;
    const float numeric = (up - down) / (2.0f * eps);
    const float analytic = analytic_grad.at(i);
    EXPECT_NEAR(analytic, numeric, tol * std::max(1.0f, std::fabs(numeric)))
        << "at element " << i;
  }
}

TEST(AutogradTest, AddBackward) {
  Var a = Var::Leaf(Tensor({2}, {1, 2}), true);
  Var b = Var::Leaf(Tensor({2}, {3, 4}), true);
  Var c = ag::Add(a, b);
  Backward(c, Tensor({2}, {1, 1}));
  EXPECT_TRUE(a.grad().AllClose(Tensor({2}, {1, 1})));
  EXPECT_TRUE(b.grad().AllClose(Tensor({2}, {1, 1})));
}

TEST(AutogradTest, MulBackward) {
  Var a = Var::Leaf(Tensor({2}, {2, 3}), true);
  Var b = Var::Leaf(Tensor({2}, {5, 7}), true);
  Var c = ag::Mul(a, b);
  Backward(c, Tensor({2}, {1, 1}));
  EXPECT_TRUE(a.grad().AllClose(Tensor({2}, {5, 7})));
  EXPECT_TRUE(b.grad().AllClose(Tensor({2}, {2, 3})));
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Var a = Var::Leaf(Tensor({1}, {3}), true);
  Var c = ag::Add(a, a);  // dc/da = 2.
  Backward(c, Tensor({1}, {1}));
  EXPECT_TRUE(a.grad().AllClose(Tensor({1}, {2})));
}

TEST(AutogradTest, MatmulFiniteDifference) {
  Rng rng(1);
  Tensor wa = ops::RandomNormal({3, 4}, 0, 1, rng);
  Tensor wb = ops::RandomNormal({4, 2}, 0, 1, rng);

  const auto loss_value = [&]() {
    return ops::SumAll(ops::Matmul(wa, wb));
  };

  Var a = Var::Leaf(wa, true);
  Var b = Var::Leaf(wb, true);
  Var c = ag::Matmul(a, b);
  Backward(c, Tensor::Ones({3, 2}));
  CheckGradient(wa, loss_value, a.grad());
  CheckGradient(wb, loss_value, b.grad());
}

TEST(AutogradTest, ActivationsFiniteDifference) {
  Rng rng(2);
  Tensor x = ops::RandomNormal({4, 3}, 0, 1, rng);
  // Push values away from 0: ReLU's kink breaks central differences.
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float v = x.at(i);
    x.at(i) = v >= 0.0f ? v + 0.1f : v - 0.1f;
  }

  struct Case {
    const char* name;
    std::function<Var(const Var&)> op;
    std::function<Tensor(const Tensor&)> raw;
  };
  const Case cases[] = {
      {"relu", [](const Var& v) { return ag::Relu(v); },
       [](const Tensor& t) { return ops::Relu(t); }},
      {"elu", [](const Var& v) { return ag::Elu(v); },
       [](const Tensor& t) { return ops::Elu(t); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Var leaf = Var::Leaf(x, true);
    Var y = c.op(leaf);
    Backward(y, Tensor::Ones({4, 3}));
    CheckGradient(x, [&] { return ops::SumAll(c.raw(x)); }, leaf.grad());
  }
}

TEST(AutogradTest, LogSoftmaxNllFiniteDifference) {
  Rng rng(3);
  Tensor logits = ops::RandomNormal({5, 4}, 0, 1, rng);
  const std::vector<int32_t> labels{0, 2, 1, 3, 2};
  const std::vector<int32_t> mask{0, 2, 4};

  const auto loss_value = [&] {
    return ops::NllLoss(ops::LogSoftmax(logits), labels, mask);
  };

  Var x = Var::Leaf(logits, true);
  Var loss = ag::NllLoss(ag::LogSoftmax(x), labels, mask);
  Backward(loss, Tensor::Ones({1}));
  CheckGradient(logits, loss_value, x.grad(), 1e-2f, 3e-2f);
}

TEST(AutogradTest, TwoLayerMlpFiniteDifference) {
  Rng rng(4);
  Tensor x_val = ops::RandomNormal({6, 5}, 0, 1, rng);
  Tensor w1_val = ops::RandomNormal({5, 4}, 0, 0.5, rng);
  Tensor b1_val = ops::RandomNormal({4}, 0, 0.5, rng);
  Tensor w2_val = ops::RandomNormal({4, 3}, 0, 0.5, rng);
  const std::vector<int32_t> labels{0, 1, 2, 0, 1, 2};

  const auto loss_value = [&] {
    Tensor h = ops::Relu(ops::AddRowBroadcast(ops::Matmul(x_val, w1_val), b1_val));
    Tensor logits = ops::Matmul(h, w2_val);
    return ops::NllLoss(ops::LogSoftmax(logits), labels, {});
  };

  Var x = Var::Leaf(x_val, false);
  Var w1 = Var::Leaf(w1_val, true);
  Var b1 = Var::Leaf(b1_val, true);
  Var w2 = Var::Leaf(w2_val, true);
  Var h = ag::Relu(ag::AddRowBroadcast(ag::Matmul(x, w1), b1));
  Var loss = ag::NllLoss(ag::LogSoftmax(ag::Matmul(h, w2)), labels, {});
  Backward(loss, Tensor::Ones({1}));

  CheckGradient(w1_val, loss_value, w1.grad(), 1e-2f, 3e-2f);
  CheckGradient(b1_val, loss_value, b1.grad(), 1e-2f, 3e-2f);
  CheckGradient(w2_val, loss_value, w2.grad(), 1e-2f, 3e-2f);
  EXPECT_FALSE(x.grad().defined());  // requires_grad = false
}

TEST(AutogradTest, CustomOpIntegratesWithTape) {
  // y = 3 * x via CustomOp; loss = sum(y * y) => dL/dx = 18x.
  Tensor x_val({3}, {1, 2, 3});
  Var x = Var::Leaf(x_val, true);
  Var y = ag::CustomOp(
      {x}, ops::MulScalar(x.value(), 3.0f),
      [](const Tensor& g) { return std::vector<Tensor>{ops::MulScalar(g, 3.0f)}; }, "times3");
  Var z = ag::Mul(y, y);
  Backward(z, Tensor::Ones({3}));
  EXPECT_TRUE(x.grad().AllClose(Tensor({3}, {18, 36, 54})));
}

TEST(AutogradTest, DropoutBackwardUsesMask) {
  Rng rng(5);
  Tensor x_val = Tensor::Ones({100});
  Var x = Var::Leaf(x_val, true);
  Var y = ag::Dropout(x, 0.5f, rng, /*training=*/true);
  Backward(y, Tensor::Ones({100}));
  // Gradient equals the mask (0 or 2).
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(x.grad().at(i), y.value().at(i));
  }
}

TEST(AutogradTest, MatmulComputesNoGradientForANoGradInput) {
  // dA = g @ Bᵀ is skipped when A needs no gradient (a features leaf), and
  // dB = Aᵀ @ g when B needs none; the computed one is unchanged.
  Rng rng(9);
  const Tensor x_val = ops::RandomNormal({33, 12}, 0.0f, 1.0f, rng);
  const Tensor w_val = ops::RandomNormal({12, 5}, 0.0f, 1.0f, rng);
  const Tensor g = ops::RandomNormal({33, 5}, 0.0f, 1.0f, rng);

  Var y = ag::Matmul(Var::Leaf(x_val, false), Var::Leaf(w_val, true));
  std::vector<Tensor> grads = y.node()->backward_fn(g);
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_FALSE(grads[0].defined());
  ASSERT_TRUE(grads[1].defined());
  const Tensor dw = ops::MatmulTransposeA(x_val, g);
  EXPECT_TRUE(grads[1].AllClose(dw, 0.0f));

  Var z = ag::Matmul(Var::Leaf(x_val, true), Var::Leaf(w_val, false));
  grads = z.node()->backward_fn(g);
  ASSERT_EQ(grads.size(), 2u);
  ASSERT_TRUE(grads[0].defined());
  EXPECT_TRUE(grads[0].AllClose(ops::MatmulTransposeB(g, w_val), 0.0f));
  EXPECT_FALSE(grads[1].defined());
}

TEST(AutogradTest, DropoutOnANoGradInputAllocatesNoMask) {
  // No dropout keeps a mask (its backward replays the draws), so each one
  // allocates only its output, whether its input needs a gradient or not;
  // the bits and the Rng's draws are the same either way.
  Rng data_rng(10);
  const Tensor x_val = ops::RandomNormal({64, 32}, 0.0f, 1.0f, data_rng);
  TensorAllocator& allocator = TensorAllocator::Get();
  Rng grad_rng(11);
  Rng no_grad_rng(11);

  uint64_t before = allocator.total_allocations();
  Var with_grad = ag::Dropout(Var::Leaf(x_val, true), 0.5f, grad_rng, /*training=*/true);
  EXPECT_EQ(allocator.total_allocations() - before, 1u);  // Output only.

  before = allocator.total_allocations();
  Var no_grad = ag::Dropout(Var::Leaf(x_val, false), 0.5f, no_grad_rng, /*training=*/true);
  EXPECT_EQ(allocator.total_allocations() - before, 1u);  // Output only.

  EXPECT_FALSE(no_grad.requires_grad());
  EXPECT_EQ(std::memcmp(no_grad.value().data(), with_grad.value().data(),
                        sizeof(float) * x_val.numel()),
            0);
  EXPECT_EQ(grad_rng.NextUint64(), no_grad_rng.NextUint64());
}

TEST(AutogradTest, DropoutBackwardReplaysTheKeepValuesBitwise) {
  // The backward replays the forward's draws from the saved stream state:
  // g[i] * keep_i, keep_i 0 or 1/(1-p), which are the bits of g * mask.
  // Below the lane block (serial draws), at it, and above it with a tail.
  constexpr int64_t kMin = ops::kDropoutMinLaneBlock;
  for (const int64_t n : {int64_t{37}, 8 * kMin - 1, 8 * kMin, 8 * kMin + 13, 40 * kMin + 5}) {
    for (const float p : {0.5f, 0.6f, 0.1f}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << p);
      Rng data_rng(static_cast<uint64_t>(n));
      const Tensor x_val = ops::RandomNormal({n}, 0.0f, 1.0f, data_rng);
      const Tensor g = ops::RandomNormal({n}, 0.0f, 1.0f, data_rng);
      Rng rng(21);
      Rng keep_rng(21);
      Var y = ag::Dropout(Var::Leaf(x_val, true), p, rng, /*training=*/true);
      const Tensor keep = ops::Dropout(Tensor::Ones({n}), p, keep_rng);
      const std::vector<Tensor> grads = y.node()->backward_fn(g);
      ASSERT_EQ(grads.size(), 1u);
      const Tensor want = ops::Mul(g, keep);
      EXPECT_EQ(std::memcmp(grads[0].data(), want.data(), sizeof(float) * n), 0);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(keep.at(i) == 0.0f || keep.at(i) == 1.0f / (1.0f - p));
      }
    }
  }
}

TEST(AutogradTest, DropoutBackwardLeavesTheModelRngAlone) {
  // A forward drawn after a backward equals one drawn without that
  // backward: the replay steps a copy of the stream, not the model's Rng.
  Rng data_rng(12);
  const Tensor x_val = ops::RandomNormal({5000}, 0.0f, 1.0f, data_rng);
  Rng with_backward(13);
  Rng without_backward(13);
  Var first = ag::Dropout(Var::Leaf(x_val, true), 0.5f, with_backward, /*training=*/true);
  Backward(first, Tensor::Ones({5000}));
  Var second = ag::Dropout(Var::Leaf(x_val, true), 0.5f, with_backward, /*training=*/true);

  ag::Dropout(Var::Leaf(x_val, true), 0.5f, without_backward, /*training=*/true);
  Var unperturbed = ag::Dropout(Var::Leaf(x_val, true), 0.5f, without_backward, /*training=*/true);
  EXPECT_EQ(std::memcmp(second.value().data(), unperturbed.value().data(),
                        sizeof(float) * x_val.numel()),
            0);
  EXPECT_EQ(with_backward.NextUint64(), without_backward.NextUint64());
}

TEST(AutogradTest, DropoutEvalModeIsIdentity) {
  Rng rng(6);
  Tensor x_val = Tensor::Ones({10});
  Var x = Var::Leaf(x_val, true);
  Var y = ag::Dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_TRUE(y.value().AllClose(x_val));
}

TEST(AutogradTest, GroupedRowDotMatchesPerGroupMatmulBitwise) {
  // Two groups of 3: each output column, and each gradient, is exactly what
  // a per-group Matmul computes on that group's columns — GAT's heads run
  // batched with the bits they had one at a time.
  Rng rng(11);
  const int64_t n = 7;
  const int64_t g = 2;
  const int64_t k = 3;
  Tensor a_val = ops::RandomUniform({n, g * k}, -1.0f, 1.0f, rng);
  Tensor b_val = ops::RandomUniform({g, k}, -1.0f, 1.0f, rng);
  Tensor seed = ops::RandomUniform({n, g}, -1.0f, 1.0f, rng);
  Var a = Var::Leaf(a_val, true);
  Var b = Var::Leaf(b_val, true);
  Var out = ag::GroupedRowDot(a, b);
  Backward(out, seed);
  for (int64_t c = 0; c < g; ++c) {
    Tensor a_c({n, k});
    Tensor b_c({k, 1});
    Tensor seed_c({n, 1});
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        a_c.at(i, j) = a_val.at(i, c * k + j);
      }
      seed_c.at(i, 0) = seed.at(i, c);
    }
    for (int64_t j = 0; j < k; ++j) {
      b_c.at(j, 0) = b_val.at(c, j);
    }
    Var ac = Var::Leaf(a_c, true);
    Var bc = Var::Leaf(b_c, true);
    Var out_c = ag::Matmul(ac, bc);
    Backward(out_c, seed_c);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(out.value().at(i, c), out_c.value().at(i, 0));
      for (int64_t j = 0; j < k; ++j) {
        EXPECT_EQ(a.grad().at(i, c * k + j), ac.grad().at(i, j));
      }
    }
    for (int64_t j = 0; j < k; ++j) {
      EXPECT_EQ(b.grad().at(c, j), bc.grad().at(j, 0));
    }
  }
}

TEST(AutogradTest, DiamondDependencyAccumulatesOnce) {
  // z = (x*x) + (x*x) reusing the same intermediate y: dz/dx = 4x.
  Tensor x_val({1}, {3});
  Var x = Var::Leaf(x_val, true);
  Var y = ag::Mul(x, x);
  Var z = ag::Add(y, y);
  Backward(z, Tensor::Ones({1}));
  EXPECT_TRUE(x.grad().AllClose(Tensor({1}, {12})));  // 4x = 12
}

}  // namespace
}  // namespace seastar

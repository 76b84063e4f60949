// Parameterized property sweeps over the dense tensor kernels: shape
// coverage for GEMM variants, softmax invariants, and gather/scatter
// adjointness across a grid of sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/common/rng.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

class MatmulSweepTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(MatmulSweepTest, MatchesNaiveTripleLoop) {
  const auto [n, k, m] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 10007 + k * 101 + m));
  Tensor a = ops::RandomNormal({n, k}, 0, 1, rng);
  Tensor b = ops::RandomNormal({k, m}, 0, 1, rng);
  Tensor c = ops::Matmul(a, b);
  ASSERT_EQ(c.dim(0), n);
  ASSERT_EQ(c.dim(1), m);
  for (int64_t i = 0; i < n; i += std::max<int64_t>(1, n / 3)) {
    for (int64_t j = 0; j < m; j += std::max<int64_t>(1, m / 3)) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(kk, j);
      }
      EXPECT_NEAR(c.at(i, j), acc, 1e-3 * std::max(1.0f, std::fabs(acc)));
    }
  }
}

TEST_P(MatmulSweepTest, TransposeIdentities) {
  const auto [n, k, m] = GetParam();
  Rng rng(static_cast<uint64_t>(n + k + m));
  Tensor a = ops::RandomNormal({n, k}, 0, 1, rng);
  Tensor b = ops::RandomNormal({k, m}, 0, 1, rng);
  Tensor c = ops::Matmul(a, b);
  // (A B)^T == B^T A^T.
  Tensor lhs = ops::Transpose(c);
  Tensor rhs = ops::Matmul(ops::Transpose(b), ops::Transpose(a));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-3f));
  // MatmulTransposeA(A, C) == A^T C.
  Tensor c2 = ops::RandomNormal({n, m}, 0, 1, rng);
  EXPECT_TRUE(ops::MatmulTransposeA(a, c2).AllClose(
      ops::Matmul(ops::Transpose(a), c2), 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulSweepTest,
                         ::testing::Values(std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
                                           std::tuple<int64_t, int64_t, int64_t>{1, 64, 1},
                                           std::tuple<int64_t, int64_t, int64_t>{7, 3, 5},
                                           std::tuple<int64_t, int64_t, int64_t>{33, 17, 9},
                                           std::tuple<int64_t, int64_t, int64_t>{128, 1, 128},
                                           std::tuple<int64_t, int64_t, int64_t>{100, 257, 31}));

class SoftmaxSweepTest : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(SoftmaxSweepTest, RowsSumToOneAndShiftInvariant) {
  const auto [rows, cols] = GetParam();
  Rng rng(static_cast<uint64_t>(rows * 31 + cols));
  Tensor a = ops::RandomNormal({rows, cols}, 0, 5, rng);
  Tensor s = ops::Softmax(a);
  for (int64_t i = 0; i < rows; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-4);
  }
  // softmax(a + c) == softmax(a) for a per-row constant shift.
  Tensor shifted = ops::Add(a, Tensor::Full(a.shape(), 123.0f));
  EXPECT_TRUE(ops::Softmax(shifted).AllClose(s, 1e-4f));
  // log-softmax consistency.
  EXPECT_TRUE(ops::Exp(ops::LogSoftmax(a)).AllClose(s, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxSweepTest,
                         ::testing::Values(std::tuple<int64_t, int64_t>{1, 1},
                                           std::tuple<int64_t, int64_t>{1, 40},
                                           std::tuple<int64_t, int64_t>{40, 1},
                                           std::tuple<int64_t, int64_t>{17, 23},
                                           std::tuple<int64_t, int64_t>{200, 7}));

}  // namespace
}  // namespace seastar

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/allocator.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"
#include "src/tensor/tensor.h"

namespace seastar {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.ShapeString(), "Tensor[2x3]");
}

TEST(TensorTest, ZerosOnesFull) {
  EXPECT_FLOAT_EQ(Tensor::Zeros({4}).at(3), 0.0f);
  EXPECT_FLOAT_EQ(Tensor::Ones({4}).at(0), 1.0f);
  EXPECT_FLOAT_EQ(Tensor::Full({2, 2}, 7.5f).at(1, 1), 7.5f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b = a.Clone();
  b.at(0) = 99.0f;
  EXPECT_FLOAT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, AllCloseDetectsDifference) {
  Tensor a({3}, {1.0f, 2.0f, 3.0f});
  Tensor b({3}, {1.0f, 2.0f, 3.0f});
  EXPECT_TRUE(a.AllClose(b));
  b.at(2) = 3.001f;
  EXPECT_FALSE(a.AllClose(b, 1e-5f));
  EXPECT_TRUE(a.AllClose(b, 1e-2f));
}

TEST(TensorTest, RowAccess) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(a.Row(1)[2], 6.0f);
}

TEST(AllocatorTest, TracksLiveAndPeak) {
  TensorAllocator& alloc = TensorAllocator::Get();
  const uint64_t live_before = alloc.live_bytes();
  alloc.ResetPeak();
  {
    Tensor big({1024, 1024});  // 4 MB
    EXPECT_GE(alloc.live_bytes(), live_before + (4u << 20));
    EXPECT_GE(alloc.peak_bytes(), live_before + (4u << 20));
  }
  EXPECT_EQ(alloc.live_bytes(), live_before);
  // Peak persists after free.
  EXPECT_GE(alloc.peak_bytes(), live_before + (4u << 20));
}

TEST(AllocatorTest, SoftBudgetFlags) {
  TensorAllocator& alloc = TensorAllocator::Get();
  alloc.SetSoftBudgetBytes(alloc.live_bytes() + (1u << 20));
  EXPECT_FALSE(alloc.budget_exceeded());
  {
    Tensor big({1024, 1024});  // 4 MB > 1 MB budget
    EXPECT_TRUE(alloc.budget_exceeded());
  }
  alloc.SetSoftBudgetBytes(0);
  EXPECT_FALSE(alloc.budget_exceeded());
}

TEST(OpsTest, ElementwiseBasics) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  EXPECT_TRUE(ops::Add(a, b).AllClose(Tensor({2, 2}, {11, 22, 33, 44})));
  EXPECT_TRUE(ops::Sub(b, a).AllClose(Tensor({2, 2}, {9, 18, 27, 36})));
  EXPECT_TRUE(ops::Mul(a, a).AllClose(Tensor({2, 2}, {1, 4, 9, 16})));
  EXPECT_TRUE(ops::Div(b, a).AllClose(Tensor({2, 2}, {10, 10, 10, 10})));
  EXPECT_TRUE(ops::Neg(a).AllClose(Tensor({2, 2}, {-1, -2, -3, -4})));
}

TEST(OpsTest, ScalarBroadcast) {
  Tensor a({3}, {1, 2, 3});
  Tensor s = Tensor::FromScalar(2.0f);
  EXPECT_TRUE(ops::Mul(a, s).AllClose(Tensor({3}, {2, 4, 6})));
  EXPECT_TRUE(ops::MulScalar(a, -1.0f).AllClose(Tensor({3}, {-1, -2, -3})));
}

TEST(OpsTest, Activations) {
  Tensor a({4}, {-2, -0.5, 0.5, 2});
  EXPECT_TRUE(ops::Relu(a).AllClose(Tensor({4}, {0, 0, 0.5, 2})));
  EXPECT_TRUE(ops::LeakyRelu(a, 0.1f).AllClose(Tensor({4}, {-0.2f, -0.05f, 0.5f, 2.0f})));
  const Tensor sig = ops::Sigmoid(a);
  EXPECT_NEAR(sig.at(3), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
  const Tensor th = ops::Tanh(a);
  EXPECT_NEAR(th.at(0), std::tanh(-2.0f), 1e-6);
}

TEST(OpsTest, ExpLog) {
  Tensor a({3}, {0.0f, 1.0f, 2.0f});
  const Tensor e = ops::Exp(a);
  EXPECT_NEAR(e.at(2), std::exp(2.0f), 1e-4);
  EXPECT_TRUE(ops::Log(e).AllClose(a, 1e-5f));
}

TEST(OpsTest, RowBroadcasts) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row({3}, {10, 20, 30});
  EXPECT_TRUE(ops::AddRowBroadcast(m, row).AllClose(Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
  Tensor col({2, 1}, {2, 3});
  EXPECT_TRUE(ops::MulColBroadcast(m, col).AllClose(Tensor({2, 3}, {2, 4, 6, 12, 15, 18})));
}

TEST(OpsTest, MatmulAgainstHandComputed) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  EXPECT_TRUE(ops::Matmul(a, b).AllClose(Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(OpsTest, MatmulTransposesConsistent) {
  Rng rng(1);
  Tensor a = ops::RandomNormal({5, 4}, 0, 1, rng);
  Tensor b = ops::RandomNormal({4, 6}, 0, 1, rng);
  Tensor c = ops::Matmul(a, b);
  // a @ b == MatmulTransposeB(a, b^T).
  EXPECT_TRUE(ops::MatmulTransposeB(a, ops::Transpose(b)).AllClose(c, 1e-4f));
  // a^T @ c2 via MatmulTransposeA.
  Tensor c2 = ops::RandomNormal({5, 3}, 0, 1, rng);
  Tensor expected = ops::Matmul(ops::Transpose(a), c2);
  EXPECT_TRUE(ops::MatmulTransposeA(a, c2).AllClose(expected, 1e-4f));
}

TEST(OpsTest, MatmulLargeParallelMatchesSmallChunks) {
  Rng rng(2);
  Tensor a = ops::RandomNormal({300, 40}, 0, 1, rng);
  Tensor b = ops::RandomNormal({40, 20}, 0, 1, rng);
  Tensor c = ops::Matmul(a, b);
  // Spot check a few entries against naive dot products.
  for (int64_t i : {0L, 150L, 299L}) {
    for (int64_t j : {0L, 10L, 19L}) {
      float acc = 0.0f;
      for (int64_t k = 0; k < 40; ++k) {
        acc += a.at(i, k) * b.at(k, j);
      }
      EXPECT_NEAR(c.at(i, j), acc, 1e-3);
    }
  }
}

TEST(OpsTest, MatmulTransposeABitwiseMatchesExplicitTranspose) {
  // MatmulTransposeA reads Aᵀ in place, 4 output rows at a time, over
  // 32-row passes of the input. Every element must still be the i-ascending
  // chain Matmul(Transpose(a), b) computes: bit for bit across the 16-wide
  // panels, the 8/4/2/1 column tails, the k % 4 row tails and the pass
  // boundaries.
  Rng rng(41);
  for (const int64_t n : {0, 1, 3, 33, 1000}) {
    for (const int64_t k : {1, 3, 4, 5, 128, 130}) {
      for (const int64_t m : {1, 7, 8, 10, 16, 17, 33, 64}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     " m=" + std::to_string(m));
        const Tensor a = ops::RandomNormal({n, k}, 0.0f, 1.0f, rng);
        const Tensor b = ops::RandomNormal({n, m}, 0.0f, 1.0f, rng);
        const Tensor got = ops::MatmulTransposeA(a, b);
        const Tensor want = ops::Matmul(ops::Transpose(a), b);
        ASSERT_EQ(got.shape(), (std::vector<int64_t>{k, m}));
        ASSERT_EQ(want.shape(), got.shape());
        ASSERT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.numel()), 0);
        if (n == 0) {
          for (int64_t i = 0; i < got.numel(); ++i) {
            ASSERT_EQ(got.data()[i], 0.0f);
          }
        }
      }
    }
  }
}

TEST(OpsTest, Reductions) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(ops::SumAll(a), 21.0f);
  EXPECT_TRUE(ops::RowSum(a).AllClose(Tensor({2, 1}, {6, 15})));
  EXPECT_TRUE(ops::ColSum(a).AllClose(Tensor({3}, {5, 7, 9})));
  const auto argmax = ops::RowArgmax(a);
  EXPECT_EQ(argmax[0], 2);
  EXPECT_EQ(argmax[1], 2);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(4);
  Tensor a = ops::RandomNormal({10, 7}, 0, 3, rng);
  Tensor s = ops::Softmax(a);
  for (int64_t i = 0; i < 10; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(5);
  Tensor a = ops::RandomNormal({6, 5}, 0, 2, rng);
  EXPECT_TRUE(ops::LogSoftmax(a).AllClose(ops::Log(ops::Softmax(a)), 1e-4f));
}

TEST(OpsTest, SoftmaxNumericallyStableForLargeInputs) {
  Tensor a({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor s = ops::Softmax(a);
  EXPECT_FALSE(std::isnan(s.at(0, 0)));
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1) + s.at(0, 2), 1.0f, 1e-5);
}

// Regression: logits at the edge of float range (or overflowed to ±inf
// upstream) must yield finite log-probs and a finite cross-entropy — the
// naive x - logsumexp(x) underflows to -inf in float here, which then turns
// the training loss into inf and kills a long run.
TEST(OpsTest, LogSoftmaxFiniteAtExtremeMagnitudes) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a({4, 3},
           {3.0e38f, -3.0e38f, 0.0f,     // Full float dynamic range in one row.
            -3.0e38f, -3.0e38f, -3.0e38f,  // All minimal: uniform, not NaN.
            inf, 0.0f, -inf,             // Overflowed inputs.
            1e30f, 1e30f, 1e30f});
  Tensor lp = ops::LogSoftmax(a);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_FALSE(std::isnan(lp.at(i, j))) << "row " << i << " col " << j;
      EXPECT_FALSE(std::isinf(lp.at(i, j))) << "row " << i << " col " << j;
      EXPECT_LE(lp.at(i, j), 0.0f);
    }
  }
  // Uniform rows stay uniform: log(1/3).
  EXPECT_NEAR(lp.at(1, 0), std::log(1.0f / 3.0f), 1e-4f);
  EXPECT_NEAR(lp.at(3, 1), std::log(1.0f / 3.0f), 1e-4f);
  // The dominant logit keeps probability ~1.
  EXPECT_NEAR(lp.at(0, 0), 0.0f, 1e-4f);
  EXPECT_NEAR(lp.at(2, 0), 0.0f, 1e-4f);

  // The loss built on top is finite as well.
  const float loss = ops::NllLoss(lp, {1, 2, 2, 0}, {});
  EXPECT_TRUE(std::isfinite(loss));

  // And so is the fused cross-entropy gradient.
  Tensor grad = ops::CrossEntropyGrad(lp, {1, 2, 2, 0}, {});
  for (int64_t i = 0; i < grad.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(grad.data()[i]));
  }
}

TEST(OpsTest, SoftmaxFiniteAtExtremeMagnitudes) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a({2, 3}, {3.0e38f, -3.0e38f, 0.0f, inf, -inf, 0.0f});
  Tensor s = ops::Softmax(a);
  for (int64_t i = 0; i < 2; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_TRUE(std::isfinite(s.at(i, j)));
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
    EXPECT_NEAR(s.at(i, 0), 1.0f, 1e-5f);  // The dominant entry wins.
  }
}

TEST(OpsTest, NllLossHandComputed) {
  // log_probs for 2 rows, labels pick -1.0 and -0.5.
  Tensor lp({2, 2}, {-1.0f, -0.3f, -0.5f, -2.0f});
  EXPECT_NEAR(ops::NllLoss(lp, {0, 0}, {}), 0.75f, 1e-6);
  EXPECT_NEAR(ops::NllLoss(lp, {0, 0}, {1}), 0.5f, 1e-6);
}

TEST(OpsTest, DropoutMaskConsistency) {
  // On ones the output is the keep value itself (0 or 2). A second call on a
  // copy of the start state replays those keep values over another tensor.
  Rng rng(6);
  const Rng start = rng;
  Tensor a = Tensor::Ones({1000});
  const Tensor out = ops::Dropout(a, 0.5f, rng);
  Rng replay = start;
  const Tensor g = ops::RandomNormal({1000}, 0.0f, 1.0f, replay);
  replay = start;
  const Tensor replayed = ops::Dropout(g, 0.5f, replay);
  int zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    const float keep = out.at(i);
    EXPECT_TRUE(keep == 0.0f || keep == 2.0f);
    const float want = g.at(i) * keep;
    EXPECT_EQ(std::memcmp(replayed.data() + i, &want, sizeof(float)), 0) << i;
    zeros += keep == 0.0f ? 1 : 0;
  }
  EXPECT_NEAR(zeros, 500, 60);
  EXPECT_EQ(replay.NextUint64(), rng.NextUint64());
}

TEST(OpsTest, SliceRows) {
  Tensor c({2, 3}, {1, 3, 4, 2, 5, 6});
  EXPECT_TRUE(ops::SliceRows(c, 1, 2).AllClose(Tensor({1, 3}, {2, 5, 6})));
}

TEST(OpsTest, XavierBoundsRespectFanInOut) {
  Rng rng(7);
  Tensor w = ops::XavierUniform(100, 50, rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  float max_abs = 0.0f;
  for (int64_t i = 0; i < w.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(w.data()[i]));
  }
  EXPECT_LE(max_abs, bound);
}

// ---- Gather-reduce kernels ----------------------------------------------------------------------
// Each fold is checked bitwise against the per-edge form it replaced: one
// add or fma per row per column, in row order, from a nonzero accumulator.

struct GatherVariant {
  const char* isa;
  const simd::GatherKernels* kernels;
  bool fused;  // Whether the variant's multiply-add is one fused rounding.
};

// Whether the scalar bodies' multiply-add is fused: where the build
// targets FMA.
#if defined(__FMA__)
constexpr bool kScalarFused = true;
#else
constexpr bool kScalarFused = false;
#endif

std::vector<GatherVariant> GatherVariants() {
  std::vector<GatherVariant> variants = {
      {"scalar", &simd::ScalarGatherKernels(), kScalarFused}};
  if (const simd::GatherKernels* avx2 = simd::Avx2GatherKernels()) {
    variants.push_back({"avx2", avx2, true});
  }
  return variants;
}

float RefMulAdd(float x, float y, float acc, bool fused) {
  if (fused) {
    return std::fma(x, y, acc);
  }
  volatile float product = x * y;  // Rounded before the add.
  return acc + product;
}

TEST(SimdGatherTest, EachFoldMatchesThePerEdgeChainBitwise) {
  constexpr int64_t kRows = 48;
  constexpr int64_t kC0 = 5;
  constexpr int64_t kGuard = 8;
  Rng rng(17);
  const auto fill = [&](std::vector<float>& v) {
    for (float& f : v) {
      f = rng.NextFloat(-3.0f, 3.0f);
    }
  };
  std::vector<int32_t> idx(kRows);
  for (int32_t& i : idx) {
    i = static_cast<int32_t>(rng.NextBounded(kRows));
  }
  const std::pair<int64_t, int64_t> ranges[] = {{3, 29}, {0, kRows}, {7, 7}};
  const int64_t widths[] = {1, 3, 7, 8, 9, 10, 16, 17, 31, 32, 33, 64, 100, 256};
  for (const GatherVariant& variant : GatherVariants()) {
    const simd::GatherKernels& k = *variant.kernels;
    for (const int64_t n : widths) {
      const int64_t row = kC0 + n + 3;  // Rows wider than the folded columns.
      std::vector<float> xs(static_cast<size_t>(kRows * row));
      std::vector<float> ys(xs.size());
      std::vector<float> scales(kRows);
      std::vector<float> acc0(static_cast<size_t>(n + kGuard));
      fill(xs);
      fill(ys);
      fill(scales);
      fill(acc0);
      for (const bool indexed : {false, true}) {
        const int32_t* ix = indexed ? idx.data() : nullptr;
        const simd::Rows x{xs.data(), ix, row};
        const simd::Rows y{ys.data(), ix, row};
        const simd::Rows s{scales.data(), ix, 1};
        for (const auto& [i0, i1] : ranges) {
          SCOPED_TRACE(std::string(variant.isa) + " n=" + std::to_string(n) +
                       (indexed ? " indexed" : " dense") + " rows [" + std::to_string(i0) +
                       ", " + std::to_string(i1) + ")");
          // One reference and one kernel run per fold; the guard floats past
          // n must come back untouched.
          const auto check = [&](const char* fold, const auto& ref_step, const auto& run) {
            std::vector<float> want = acc0;
            for (int64_t i = i0; i < i1; ++i) {
              for (int64_t j = 0; j < n; ++j) {
                want[static_cast<size_t>(j)] = ref_step(i, j, want[static_cast<size_t>(j)]);
              }
            }
            std::vector<float> got = acc0;
            run(got.data());
            EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
                << fold;
          };
          check(
              "add", [&](int64_t i, int64_t j, float a) { return a + x(i)[kC0 + j]; },
              [&](float* acc) { k.add(acc, x, i0, i1, kC0, n); });
          check(
              "axpy",
              [&](int64_t i, int64_t j, float a) {
                return RefMulAdd(x(i)[kC0 + j], s(i)[0], a, variant.fused);
              },
              [&](float* acc) { k.axpy(acc, x, s, i0, i1, kC0, n); });
          check(
              "mul_add",
              [&](int64_t i, int64_t j, float a) {
                return RefMulAdd(x(i)[kC0 + j], y(i)[kC0 + j], a, variant.fused);
              },
              [&](float* acc) { k.mul_add(acc, x, y, i0, i1, kC0, n); });
          check(
              "max", [&](int64_t i, int64_t j, float a) { return std::max(a, x(i)[kC0 + j]); },
              [&](float* acc) { k.max(acc, x, i0, i1, kC0, n); });
        }
      }
    }
  }
}

TEST(SimdGatherTest, GroupedAxpyMatchesThePerEdgeChainBitwise) {
  // acc[j] = fma(x(i)[c0 + j], y(i)[(c0 + j) / k], acc[j]): groups that
  // are lane-group multiples starting on a lane-group boundary, and groups
  // (or column offsets) that split lane groups, each column one chain.
  constexpr int64_t kRows = 40;
  constexpr int64_t kGuard = 8;
  Rng rng(19);
  const auto fill = [&](std::vector<float>& v) {
    for (float& f : v) {
      f = rng.NextFloat(-3.0f, 3.0f);
    }
  };
  std::vector<int32_t> idx(kRows);
  for (int32_t& i : idx) {
    i = static_cast<int32_t>(rng.NextBounded(kRows));
  }
  struct Shape {
    int64_t k;
    int64_t c0;
    int64_t n;
  };
  const Shape shapes[] = {{8, 0, 64},  {8, 8, 24},  {8, 0, 5},   {16, 0, 64}, {16, 32, 100},
                          {8, 256, 64}, {1, 0, 9},  {3, 0, 24},  {3, 5, 31},  {4, 2, 40},
                          {100, 256, 44}, {8, 3, 30}};
  for (const GatherVariant& variant : GatherVariants()) {
    for (const Shape& shape : shapes) {
      const int64_t row = shape.c0 + shape.n + 2;
      const int64_t groups = (row + shape.k - 1) / shape.k;
      std::vector<float> xs(static_cast<size_t>(kRows * row));
      std::vector<float> ys(static_cast<size_t>(kRows * groups));
      std::vector<float> acc0(static_cast<size_t>(shape.n + kGuard));
      fill(xs);
      fill(ys);
      fill(acc0);
      for (const bool indexed : {false, true}) {
        SCOPED_TRACE(std::string(variant.isa) + " k=" + std::to_string(shape.k) +
                     " c0=" + std::to_string(shape.c0) + " n=" + std::to_string(shape.n) +
                     (indexed ? " indexed" : " dense"));
        const int32_t* ix = indexed ? idx.data() : nullptr;
        const simd::Rows x{xs.data(), ix, row};
        const simd::Rows y{ys.data(), ix, groups};
        for (const auto& [i0, i1] : {std::pair<int64_t, int64_t>{3, 29}, {0, kRows}, {7, 7}}) {
          std::vector<float> want = acc0;
          for (int64_t i = i0; i < i1; ++i) {
            for (int64_t j = 0; j < shape.n; ++j) {
              want[static_cast<size_t>(j)] =
                  RefMulAdd(x(i)[shape.c0 + j], y(i)[(shape.c0 + j) / shape.k],
                            want[static_cast<size_t>(j)], variant.fused);
            }
          }
          std::vector<float> got = acc0;
          variant.kernels->axpy_grouped(got.data(), x, y, i0, i1, shape.c0, shape.n, shape.k);
          EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0);
        }
      }
    }
  }
}

TEST(SimdGatherTest, MaxFoldKeepsTiesAndNaNsAsStdMaxDoes) {
  // std::max(acc, x) keeps acc unless acc < x: of +0 and -0 the earlier
  // wins, a NaN row is skipped and a NaN accumulator stays. Every width
  // class (one column, full and ragged lane groups, several blocks) in
  // every variant, bit for bit.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float pattern[] = {0.0f, -0.0f, nan, -inf, 1.5f, -0.0f, 0.0f, inf, nan, -2.0f, 0.0f};
  constexpr int64_t kRows = 11;
  const int64_t widths[] = {1, 5, 8, 13, 32, 41};
  for (const GatherVariant& variant : GatherVariants()) {
    for (const int64_t n : widths) {
      SCOPED_TRACE(std::string(variant.isa) + " n=" + std::to_string(n));
      // Row i, column j holds pattern[(i + j) % 11], so each column meets
      // the ties and NaNs in a different order.
      std::vector<float> xs(static_cast<size_t>(kRows * n));
      for (int64_t i = 0; i < kRows; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          xs[static_cast<size_t>(i * n + j)] = pattern[(i + j) % kRows];
        }
      }
      const simd::Rows x{xs.data(), nullptr, n};
      for (const float start : {-FLT_MAX, -0.0f, 0.0f, nan}) {
        std::vector<float> want(static_cast<size_t>(n), start);
        for (int64_t i = 0; i < kRows; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            want[static_cast<size_t>(j)] = std::max(want[static_cast<size_t>(j)], x(i)[j]);
          }
        }
        std::vector<float> got(static_cast<size_t>(n), start);
        variant.kernels->max(got.data(), x, 0, kRows, 0, n);
        EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
            << "start " << start;
      }
    }
  }
}

TEST(SimdGatherTest, DispatchedKernelsAreTheWidestVariant) {
  const simd::GatherKernels* avx2 = simd::Avx2GatherKernels();
  const simd::GatherKernels& want = avx2 != nullptr ? *avx2 : simd::ScalarGatherKernels();
  EXPECT_EQ(simd::AddGather, want.add);
  EXPECT_EQ(simd::AxpyGather, want.axpy);
  EXPECT_EQ(simd::MulAddGather, want.mul_add);
  EXPECT_EQ(simd::MaxGather, want.max);
  EXPECT_STREQ(simd::SimdIsaName(), avx2 != nullptr ? "avx2" : "scalar");
}

// ---- GEMM tiles ---------------------------------------------------------------------------------
// Each tile kernel, in each ISA variant, is checked bitwise against one
// step-ascending multiply-add chain per output element, reading A and Aᵀ
// in place, from zero and from C's contents, with C's columns past the tile
// left untouched.

struct GemmVariant {
  const char* isa;
  const simd::GemmKernels* kernels;
  bool fused;
};

std::vector<GemmVariant> GemmVariants() {
  std::vector<GemmVariant> variants = {{"scalar", &simd::ScalarGemmKernels(), kScalarFused}};
  if (const simd::GemmKernels* avx2 = simd::Avx2GemmKernels()) {
    variants.push_back({"avx2", avx2, true});
  }
  return variants;
}

TEST(SimdGemmTest, EachTileMatchesTheStepAscendingChainBitwise) {
  constexpr int64_t kSteps = 37;
  constexpr int64_t kLdo = 21;  // C rows wider than any tile: guard columns.
  Rng rng(43);
  std::vector<float> a(static_cast<size_t>(4 * kSteps));
  std::vector<float> b(static_cast<size_t>(kSteps * kLdo));
  std::vector<float> c0(static_cast<size_t>(4 * kLdo));
  for (std::vector<float>* v : {&a, &b, &c0}) {
    for (float& f : *v) {
      f = rng.NextFloat(-2.0f, 2.0f);
    }
  }
  for (const GemmVariant& variant : GemmVariants()) {
    const simd::GemmKernels& kern = *variant.kernels;
    for (const bool transposed : {false, true}) {
      // A is [4, kSteps] row-major; read as Aᵀ it is [kSteps, 4] column by
      // column, the layout MatmulTransposeA hands the kernels.
      const int64_t lda = transposed ? 1 : kSteps;
      const int64_t astep = transposed ? 4 : 1;
      for (const bool accumulate : {false, true}) {
        for (const int64_t n : {1, 2, 3, 5, 7, 8, 16}) {
          for (const int rows : {1, 4}) {
            SCOPED_TRACE(std::string(variant.isa) + " n=" + std::to_string(n) +
                         " rows=" + std::to_string(rows) + (transposed ? " Aᵀ" : " A") +
                         (accumulate ? " accumulate" : ""));
            std::vector<float> want = c0;
            for (int r = 0; r < rows; ++r) {
              for (int64_t j = 0; j < n; ++j) {
                float acc = accumulate ? c0[static_cast<size_t>(r * kLdo + j)] : 0.0f;
                for (int64_t s = 0; s < kSteps; ++s) {
                  acc = RefMulAdd(a[static_cast<size_t>(r * lda + s * astep)],
                                  b[static_cast<size_t>(s * kLdo + j)], acc, variant.fused);
                }
                want[static_cast<size_t>(r * kLdo + j)] = acc;
              }
            }
            std::vector<float> got = c0;
            if (n == 16 && rows == 4) {
              kern.tile4x16(a.data(), lda, astep, b.data(), kLdo, got.data(), kLdo, kSteps,
                            accumulate);
            } else if (n == 16) {
              kern.tile1x16(a.data(), astep, b.data(), kLdo, got.data(), kSteps, accumulate);
            } else if (rows == 4) {
              kern.tile4xn(a.data(), lda, astep, b.data(), kLdo, got.data(), kLdo, kSteps, n,
                           accumulate);
            } else {
              kern.tile1xn(a.data(), astep, b.data(), kLdo, got.data(), kSteps, n, accumulate);
            }
            EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0);
          }
        }
      }
    }
  }
}

TEST(SimdGemmTest, DispatchedKernelsAreTheWidestVariant) {
  const simd::GemmKernels* avx2 = simd::Avx2GemmKernels();
  const simd::GemmKernels& want = avx2 != nullptr ? *avx2 : simd::ScalarGemmKernels();
  EXPECT_EQ(simd::GemmTile4x16, want.tile4x16);
  EXPECT_EQ(simd::GemmTile1x16, want.tile1x16);
  EXPECT_EQ(simd::GemmTile4xN, want.tile4xn);
  EXPECT_EQ(simd::GemmTile1xN, want.tile1xn);
  if (avx2 != nullptr) {
    EXPECT_NE(simd::GemmTile4xN, simd::ScalarGemmKernels().tile4xn);
    EXPECT_NE(simd::GemmTile1xN, simd::ScalarGemmKernels().tile1xn);
  }
}

// ---- ELU backward blend -------------------------------------------------------------------------

TEST(OpsTest, EluGradFromOutputMatchesTheSelectBitwise) {
  constexpr float kAlpha = 0.7f;
  Rng rng(47);
  for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9}, int64_t{2709 * 64 + 3}}) {
    Tensor g = ops::RandomNormal({n}, 0, 1, rng);
    Tensor y = ops::RandomNormal({n}, 0, 1, rng);
    y.data()[0] = 0.0f;  // The boundary takes the y + alpha branch.
    Tensor got = ops::EluGradFromOutput(g, y, kAlpha);
    for (int64_t i = 0; i < n; ++i) {
      const float gi = g.data()[i];
      const float yi = y.data()[i];
      const float want = yi > 0.0f ? gi : gi * (yi + kAlpha);
      ASSERT_EQ(std::memcmp(&want, got.data() + i, sizeof(float)), 0)
          << "n=" << n << " element " << i;
    }
  }
}

}  // namespace
}  // namespace seastar

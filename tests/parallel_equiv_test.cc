// Parallel-vs-serial exactness tests. The pointwise, softmax, and optimizer
// loops run chunked on the thread pool above a grain threshold and inline
// below it; both paths execute the same per-element code, so results must be
// bitwise identical regardless of how the work was split. These tests pin
// that invariant by computing each op once over a large (parallel) extent and
// once as many small (serial) pieces through the same public API.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/nn.h"
#include "src/tensor/autograd.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace seastar {
namespace {

// Above every grain threshold in ops.cc / nn.cc (32768 and 16384).
constexpr int64_t kBig = 3 * 32768 + 12345;
// Below every threshold: a piece this small always runs inline.
constexpr int64_t kPiece = 8192;

Tensor Slice1d(const Tensor& t, int64_t begin, int64_t end) {
  Tensor out({end - begin});
  std::memcpy(out.data(), t.data() + begin, static_cast<size_t>(end - begin) * sizeof(float));
  return out;
}

void ExpectBitwiseEqual(const float* a, const float* b, int64_t n) {
  ASSERT_EQ(std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)), 0);
}

TEST(ParallelEquivTest, ElementwiseChunkingIsBitwiseExact) {
  Rng rng(17);
  Tensor a = ops::RandomNormal({kBig}, 0.0f, 1.0f, rng);
  Tensor b = ops::RandomUniform({kBig}, 0.5f, 1.5f, rng);

  // Every dense elementwise op, as f(a, b); b is positive, so Log takes it.
  struct Case {
    const char* name;
    std::function<Tensor(const Tensor&, const Tensor&)> op;
  };
  const Case cases[] = {
      {"add", [](const Tensor& x, const Tensor& y) { return ops::Add(x, y); }},
      {"sub", [](const Tensor& x, const Tensor& y) { return ops::Sub(x, y); }},
      {"mul", [](const Tensor& x, const Tensor& y) { return ops::Mul(x, y); }},
      {"div", [](const Tensor& x, const Tensor& y) { return ops::Div(x, y); }},
      {"mul_scalar", [](const Tensor& x, const Tensor&) { return ops::MulScalar(x, -1.7f); }},
      {"neg", [](const Tensor& x, const Tensor&) { return ops::Neg(x); }},
      {"exp", [](const Tensor& x, const Tensor&) { return ops::Exp(x); }},
      {"log", [](const Tensor&, const Tensor& y) { return ops::Log(y); }},
      {"relu", [](const Tensor& x, const Tensor&) { return ops::Relu(x); }},
      {"relu_grad", [](const Tensor& x, const Tensor& y) { return ops::ReluGrad(y, x); }},
      {"leaky_relu", [](const Tensor& x, const Tensor&) { return ops::LeakyRelu(x, 0.2f); }},
      {"sigmoid", [](const Tensor& x, const Tensor&) { return ops::Sigmoid(x); }},
      {"tanh", [](const Tensor& x, const Tensor&) { return ops::Tanh(x); }},
      {"elu", [](const Tensor& x, const Tensor&) { return ops::Elu(x, 0.7f); }},
      {"elu_grad",
       [](const Tensor& x, const Tensor& y) {
         return ops::EluGradFromOutput(y, ops::Elu(x, 0.7f), 0.7f);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Tensor whole = c.op(a, b);
    for (int64_t begin = 0; begin < kBig; begin += kPiece) {
      const int64_t end = std::min(begin + kPiece, kBig);
      ExpectBitwiseEqual(c.op(Slice1d(a, begin, end), Slice1d(b, begin, end)).data(),
                         whole.data() + begin, end - begin);
    }
  }
}

TEST(ParallelEquivTest, SoftmaxRowChunkingIsBitwiseExact) {
  // 4000 x 16 runs row-parallel; 4-row slices run inline.
  const int64_t rows = 4000, cols = 16, block = 4;
  Rng rng(19);
  Tensor x = ops::RandomNormal({rows, cols}, 0.0f, 2.0f, rng);

  const Tensor softmax = ops::Softmax(x);
  const Tensor log_softmax = ops::LogSoftmax(x);
  for (int64_t r = 0; r < rows; r += block) {
    Tensor part = ops::SliceRows(x, r, r + block);
    ExpectBitwiseEqual(ops::Softmax(part).data(), softmax.Row(r), block * cols);
    ExpectBitwiseEqual(ops::LogSoftmax(part).data(), log_softmax.Row(r), block * cols);
  }
}

TEST(ParallelEquivTest, MatmulRowChunkingIsBitwiseExact) {
  // The GEMMs cover output rows in 4-row blocks and then single rows, and
  // the forward splits its rows across the pool wherever the chunking
  // falls, so a row's bits must not depend on which block computes it.
  // Each product is computed whole and again on 1-, 2-, 3- and 5-row
  // slices of its output, for column counts on and around the 8- and
  // 16-wide tile edges.
  const int64_t n = 517, k = 64;
  Rng rng(31);
  const Tensor x = ops::RandomNormal({n, k}, 0.0f, 1.0f, rng);
  const Tensor xt = ops::Transpose(x);
  for (const int64_t m : {1, 2, 3, 7, 8, 9, 10, 15, 17, 24, 33}) {
    SCOPED_TRACE("m=" + std::to_string(m));
    const Tensor w = ops::RandomNormal({k, m}, 0.0f, 1.0f, rng);
    const Tensor g = ops::RandomNormal({n, m}, 0.0f, 1.0f, rng);
    const Tensor forward = ops::Matmul(x, w);
    // Xᵀ·G's output rows are X's columns: slice those.
    const Tensor weight_grad = ops::MatmulTransposeA(x, g);
    for (const int64_t slice : {1, 2, 3, 5}) {
      SCOPED_TRACE("slice=" + std::to_string(slice));
      for (int64_t r = 0; r < n; r += slice) {
        const int64_t end = std::min(r + slice, n);
        ExpectBitwiseEqual(ops::Matmul(ops::SliceRows(x, r, end), w).data(), forward.Row(r),
                           (end - r) * m);
      }
      for (int64_t c = 0; c < k; c += slice) {
        const int64_t end = std::min(c + slice, k);
        const Tensor cols = ops::Transpose(ops::SliceRows(xt, c, end));
        ExpectBitwiseEqual(ops::MatmulTransposeA(cols, g).data(), weight_grad.Row(c),
                           (end - c) * m);
      }
    }
  }
}

// One requires-grad leaf of `n` elements with pinned values and gradients.
Var MakeParam(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Var param = Var::Leaf(ops::RandomNormal({n}, 0.0f, 1.0f, rng), /*requires_grad=*/true);
  param.node()->AccumulateGrad(ops::RandomNormal({n}, 0.0f, 0.1f, rng));
  return param;
}

// The same data as MakeParam(n, seed) but split into kPiece-sized leaves, so
// the optimizer's update loop takes the inline path for every piece.
std::vector<Var> MakeParamPieces(const Var& whole) {
  std::vector<Var> pieces;
  const int64_t n = whole.value().numel();
  for (int64_t begin = 0; begin < n; begin += kPiece) {
    const int64_t end = std::min(begin + kPiece, n);
    Var piece = Var::Leaf(Slice1d(whole.value(), begin, end), /*requires_grad=*/true);
    piece.node()->AccumulateGrad(Slice1d(whole.grad(), begin, end));
    pieces.push_back(piece);
  }
  return pieces;
}

void ExpectPiecesMatchWhole(const std::vector<Var>& pieces, const Var& whole) {
  int64_t offset = 0;
  for (const Var& piece : pieces) {
    const int64_t n = piece.value().numel();
    ExpectBitwiseEqual(piece.value().data(), whole.value().data() + offset, n);
    offset += n;
  }
  ASSERT_EQ(offset, whole.value().numel());
}

TEST(ParallelEquivTest, AdamStepChunkingIsBitwiseExact) {
  Var whole = MakeParam(kBig, 23);
  std::vector<Var> pieces = MakeParamPieces(whole);

  Adam big({whole}, 0.01f);
  Adam small(pieces, 0.01f);
  // Several steps so the moment estimates, not just the first update, agree.
  for (int step = 0; step < 3; ++step) {
    big.Step();
    small.Step();
  }
  ExpectPiecesMatchWhole(pieces, whole);
}

}  // namespace
}  // namespace seastar

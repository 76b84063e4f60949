#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/logging.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/pointwise.h"
#include "src/tensor/simd.h"

namespace seastar {
namespace ops {
namespace {

// Grain size (elements per chunk) for parallel pointwise loops. Below the
// threshold the body runs inline on the calling thread — no std::function
// hop, no dispatch — so the many small per-layer tensors (bias rows, scalar
// grads) keep their current cost and only feature-sized tensors fan out.
constexpr int64_t kPointwiseGrain = 32768;

// Runs body(begin, end) over [0, n), chunked across the thread pool when n
// is large enough to amortize dispatch. Chunks are disjoint, so any
// per-element-independent body computes bitwise-identical results to the
// serial loop regardless of thread count.
template <typename Body>
inline void ParallelPointwise(int64_t n, const Body& body) {
  if (n <= kPointwiseGrain) {
    body(0, n);
    return;
  }
  ParallelFor(n, [&body](int64_t begin, int64_t end) { body(begin, end); }, kPointwiseGrain);
}

// Row-wise variant: body(row_begin, row_end) over [0, rows) of a matrix
// whose rows hold `row_elems` elements each (grain scales inversely with the
// row size so a chunk is always ~kPointwiseGrain elements of work).
template <typename Body>
inline void ParallelRowwise(int64_t rows, int64_t row_elems, const Body& body) {
  const int64_t grain =
      std::max<int64_t>(1, kPointwiseGrain / std::max<int64_t>(1, row_elems));
  if (rows <= grain) {
    body(0, rows);
    return;
  }
  ParallelFor(rows, [&body](int64_t begin, int64_t end) { body(begin, end); }, grain);
}

// Applies `fn` elementwise; shapes must match exactly, or either side may be
// a scalar tensor of shape {1} broadcast against the other (a-side scalar
// matters for `scalar - tensor` / `scalar / tensor`).
template <typename Fn>
Tensor BinaryElementwise(const Tensor& a, const Tensor& b, Fn fn, const char* name) {
  SEASTAR_CHECK(a.defined() && b.defined()) << name << ": undefined input";
  const bool a_scalar = a.numel() == 1 && b.numel() != 1;
  const bool b_scalar = b.numel() == 1 && a.numel() != 1;
  Tensor out(a_scalar ? b.shape() : a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = out.numel();
  // Restrict-qualified copies live inside the chunk bodies (qualifiers do
  // not survive lambda capture): the output tensor is freshly allocated, so
  // it cannot alias either input and the loops autovectorize.
  if (b_scalar) {
    const float s = pb[0];
    ParallelPointwise(n, [=](int64_t begin, int64_t end) {
      const float* __restrict__ x = pa;
      float* __restrict__ o = po;
      for (int64_t i = begin; i < end; ++i) {
        o[i] = fn(x[i], s);
      }
    });
    return out;
  }
  if (a_scalar) {
    const float s = pa[0];
    ParallelPointwise(n, [=](int64_t begin, int64_t end) {
      const float* __restrict__ y = pb;
      float* __restrict__ o = po;
      for (int64_t i = begin; i < end; ++i) {
        o[i] = fn(s, y[i]);
      }
    });
    return out;
  }
  SEASTAR_CHECK(a.shape() == b.shape())
      << name << ": shape mismatch " << a.ShapeString() << " vs " << b.ShapeString();
  ParallelPointwise(n, [=](int64_t begin, int64_t end) {
    const float* __restrict__ x = pa;
    const float* __restrict__ y = pb;
    float* __restrict__ o = po;
    for (int64_t i = begin; i < end; ++i) {
      o[i] = fn(x[i], y[i]);
    }
  });
  return out;
}

template <typename Fn>
Tensor UnaryElementwise(const Tensor& a, Fn fn, const char* name) {
  SEASTAR_CHECK(a.defined()) << name << ": undefined input";
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  ParallelPointwise(n, [=](int64_t begin, int64_t end) {
    const float* __restrict__ x = pa;
    float* __restrict__ o = po;
    for (int64_t i = begin; i < end; ++i) {
      o[i] = fn(x[i]);
    }
  });
  return out;
}

}  // namespace

// ---- Construction -------------------------------------------------------------------------------

Tensor RandomUniform(std::vector<int64_t> shape, float lo, float hi, Rng& rng) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = rng.NextFloat(lo, hi);
  }
  return t;
}

Tensor RandomNormal(std::vector<int64_t> shape, float mean, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = mean + stddev * static_cast<float>(rng.NextGaussian());
  }
  return t;
}

Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform({fan_in, fan_out}, -bound, bound, rng);
}

// ---- Elementwise (the math is src/tensor/pointwise.h's) ----------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(a, b, pointwise::Add{}, "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(a, b, pointwise::Sub{}, "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(a, b, pointwise::Mul{}, "Mul");
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(a, b, pointwise::Div{}, "Div");
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryElementwise(a, [s](float x) { return pointwise::Mul{}(x, s); }, "MulScalar");
}

Tensor Neg(const Tensor& a) { return UnaryElementwise(a, pointwise::Neg{}, "Neg"); }

Tensor Exp(const Tensor& a) { return UnaryElementwise(a, pointwise::Exp{}, "Exp"); }

Tensor Log(const Tensor& a) { return UnaryElementwise(a, pointwise::Log{}, "Log"); }

Tensor Relu(const Tensor& a) { return UnaryElementwise(a, pointwise::Relu{}, "Relu"); }

Tensor LeakyRelu(const Tensor& a, float slope) {
  return UnaryElementwise(a, pointwise::LeakyRelu{slope}, "LeakyRelu");
}

Tensor Sigmoid(const Tensor& a) { return UnaryElementwise(a, pointwise::Sigmoid{}, "Sigmoid"); }

Tensor Tanh(const Tensor& a) { return UnaryElementwise(a, pointwise::Tanh{}, "Tanh"); }

Tensor Elu(const Tensor& a, float alpha) {
  // exp only where the functor needs it: each block copies its inputs
  // through while listing, without a branch, the positions that are not
  // > 0 (the non-positive ones and NaNs), then applies the functor to those
  // alone. A per-element branch on the sign would mispredict about half the
  // time on activations; the functor gives every element its bits either way.
  SEASTAR_CHECK(a.defined()) << "Elu: undefined input";
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const pointwise::Elu elu{alpha};
  ParallelPointwise(a.numel(), [=](int64_t begin, int64_t end) {
    constexpr int64_t kBlock = 1024;
    const float* __restrict__ x = pa;
    float* __restrict__ o = po;
    int32_t listed[kBlock];
    for (int64_t b = begin; b < end; b += kBlock) {
      const int64_t e = std::min(end, b + kBlock);
      int32_t m = 0;
      for (int64_t i = b; i < e; ++i) {
        o[i] = x[i];
        listed[m] = static_cast<int32_t>(i - b);
        m += !(x[i] > 0.0f);
      }
      for (int32_t j = 0; j < m; ++j) {
        const int64_t i = b + listed[j];
        o[i] = elu(x[i]);
      }
    }
  });
  return out;
}

Tensor ReluGrad(const Tensor& grad_out, const Tensor& input) {
  return BinaryElementwise(grad_out, input, pointwise::ReluGrad{}, "ReluGrad");
}

Tensor EluGradFromOutput(const Tensor& grad_out, const Tensor& output, float alpha) {
  // For y = elu(x): dy/dx = 1 when y > 0 else y + alpha.
  SEASTAR_CHECK(grad_out.defined() && output.defined()) << "EluGrad: undefined input";
  SEASTAR_CHECK(grad_out.shape() == output.shape())
      << "EluGrad: shape mismatch " << grad_out.ShapeString() << " vs " << output.ShapeString();
  Tensor out(output.shape());
  const float* pg = grad_out.data();
  const float* py = output.data();
  float* po = out.data();
  ParallelPointwise(out.numel(), [=](int64_t begin, int64_t end) {
    simd::EluGradRow(po + begin, pg + begin, py + begin, alpha, end - begin);
  });
  return out;
}

Tensor AddRowBroadcast(const Tensor& matrix, const Tensor& row) {
  SEASTAR_CHECK_EQ(matrix.ndim(), 2);
  const int64_t n = matrix.dim(0);
  const int64_t d = matrix.dim(1);
  SEASTAR_CHECK(row.numel() == d || row.numel() == 1)
      << "AddRowBroadcast: " << matrix.ShapeString() << " vs " << row.ShapeString();
  Tensor out(matrix.shape());
  const float* pm = matrix.data();
  const float* pr = row.data();
  float* po = out.data();
  const bool scalar = row.numel() == 1;
  ParallelRowwise(n, d, [=](int64_t row_begin, int64_t row_end) {
    const float* __restrict__ m = pm;
    const float* __restrict__ r = pr;
    float* __restrict__ o = po;
    for (int64_t i = row_begin; i < row_end; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        o[i * d + j] = m[i * d + j] + (scalar ? r[0] : r[j]);
      }
    }
  });
  return out;
}

Tensor MulColBroadcast(const Tensor& matrix, const Tensor& col) {
  SEASTAR_CHECK_EQ(matrix.ndim(), 2);
  const int64_t n = matrix.dim(0);
  const int64_t d = matrix.dim(1);
  SEASTAR_CHECK_EQ(col.numel(), n);
  Tensor out(matrix.shape());
  const float* pm = matrix.data();
  const float* pc = col.data();
  float* po = out.data();
  ParallelRowwise(n, d, [=](int64_t row_begin, int64_t row_end) {
    const float* __restrict__ m = pm;
    const float* __restrict__ c = pc;
    float* __restrict__ o = po;
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float s = c[i];
      for (int64_t j = 0; j < d; ++j) {
        o[i * d + j] = m[i * d + j] * s;
      }
    }
  });
  return out;
}

// ---- Linear algebra ------------------------------------------------------------------------------

namespace {

// One kRows-row block (4 or 1) of output over `steps` steps: full 16-wide
// panels, then the remaining < 16 columns in steps of up to 8, every tile
// through the dispatched micro-kernels of src/tensor/simd.h. A element
// (r, s) sits at pa[r * lda + s * astep] and `accumulate` starts from the
// output's current contents; B and the output are row-major with m columns.
// No zero-skipping: GNN activations are ~half zeros after dropout/ReLU, and
// a data-dependent branch mispredicting on them costs more than the
// multiplies it saves.
//
// Every output element is one step-ascending fma chain whichever tile
// covers it, so results are deterministic across row counts, column splits,
// chunkings and thread partitionings.
template <int kRows>
inline void GemmRowBlock(const float* __restrict__ arows, int64_t lda, int64_t astep,
                         const float* __restrict__ pb, int64_t ldb, float* __restrict__ orows,
                         int64_t ldo, int64_t steps, int64_t m, bool accumulate) {
  static_assert(kRows == 4 || kRows == 1);
  int64_t j0 = 0;
  for (; j0 + 16 <= m; j0 += 16) {
    if constexpr (kRows == 4) {
      simd::GemmTile4x16(arows, lda, astep, pb + j0, ldb, orows + j0, ldo, steps, accumulate);
    } else {
      simd::GemmTile1x16(arows, astep, pb + j0, ldb, orows + j0, steps, accumulate);
    }
  }
  for (; j0 < m; j0 += 8) {
    const int64_t n = std::min<int64_t>(8, m - j0);
    if constexpr (kRows == 4) {
      simd::GemmTile4xN(arows, lda, astep, pb + j0, ldb, orows + j0, ldo, steps, n, accumulate);
    } else {
      simd::GemmTile1xN(arows, astep, pb + j0, ldb, orows + j0, steps, n, accumulate);
    }
  }
}

// Output rows [row_begin, row_end) of C[rows, m] (+)= A @ B over `steps`
// steps: 4-row blocks, then single rows. Output row r reads A elements
// pa[r * lda + s * astep] and sits at po + r * ldo; B's step rows are ldb
// apart.
void GemmRows(const float* pa, int64_t lda, int64_t astep, const float* pb, int64_t ldb,
              float* po, int64_t ldo, int64_t steps, int64_t m, int64_t row_begin,
              int64_t row_end, bool accumulate) {
  int64_t r = row_begin;
  for (; r + 4 <= row_end; r += 4) {
    GemmRowBlock<4>(pa + r * lda, lda, astep, pb, ldb, po + r * ldo, ldo, steps, m, accumulate);
  }
  for (; r < row_end; ++r) {
    GemmRowBlock<1>(pa + r * lda, lda, astep, pb, ldb, po + r * ldo, ldo, steps, m, accumulate);
  }
}

// Row-major C[n, m] = A[n, k] @ B[k, m], rows chunked across the pool.
Tensor GemmRowMajor(const float* pa, const float* pb, int64_t n, int64_t k, int64_t m) {
  Tensor out({n, m});
  float* po = out.data();
  ParallelFor(
      n,
      [&](int64_t row_begin, int64_t row_end) {
        GemmRows(pa, /*lda=*/k, /*astep=*/1, pb, /*ldb=*/m, po, /*ldo=*/m, k, m, row_begin,
                 row_end, /*accumulate=*/false);
      },
      /*min_chunk=*/std::max<int64_t>(1, 16384 / std::max<int64_t>(1, k * m)));
  return out;
}

// Input rows per pass of MatmulTransposeA's output blocks: a [32, k] slab of
// A (16 KB at k = 128) plus the matching rows of B stay in L1 while every
// 4-row output block of the pass sweeps them.
constexpr int64_t kTransposeAChunk = 32;

}  // namespace

Tensor Matmul(const Tensor& a, const Tensor& b) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  SEASTAR_CHECK_EQ(b.ndim(), 2);
  SEASTAR_CHECK_EQ(a.dim(1), b.dim(0));
  return GemmRowMajor(a.data(), b.data(), a.dim(0), a.dim(1), b.dim(1));
}

Tensor MatmulTransposeB(const Tensor& a, const Tensor& b) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  SEASTAR_CHECK_EQ(b.ndim(), 2);
  SEASTAR_CHECK_EQ(a.dim(1), b.dim(1));
  // b is streamed n times; transposing it once (a pooled allocation) turns
  // every pass into the contiguous ikj kernel instead of k-strided dots.
  Tensor bt = Transpose(b);
  return GemmRowMajor(a.data(), bt.data(), a.dim(0), a.dim(1), b.dim(0));
}

Tensor MatmulTransposeA(const Tensor& a, const Tensor& b) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  SEASTAR_CHECK_EQ(b.ndim(), 2);
  SEASTAR_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t n = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t m = b.dim(1);
  // out[kk, :] = sum_i a[i, kk] * b[i, :]: the GEMM micro-kernels read Aᵀ
  // in place (lda = 1, astep = k), so no transpose is materialized. The
  // input is walked in kTransposeAChunk-row passes; every 4-row output block
  // sweeps each pass, reloading its accumulators between passes, so every
  // element stays one i-ascending fma chain. Serial: split across threads,
  // each block would stream all of A again, which measured slower than one
  // thread.
  Tensor out = Tensor::Zeros({k, m});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i0 = 0; i0 < n; i0 += kTransposeAChunk) {
    GemmRows(pa + i0 * k, /*lda=*/1, /*astep=*/k, pb + i0 * m, /*ldb=*/m, po, /*ldo=*/m,
             std::min(kTransposeAChunk, n - i0), m, /*row_begin=*/0, /*row_end=*/k,
             /*accumulate=*/true);
  }
  return out;
}

// Each group c is the GEMM the per-group product would run on its own
// [n, k] slice (columns [c * k, (c + 1) * k) of a, row stride g * k), so
// every element is the same step-ascending fma chain.
Tensor GroupedRowDot(const Tensor& a, const Tensor& b) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  SEASTAR_CHECK_EQ(b.ndim(), 2);
  const int64_t n = a.dim(0);
  const int64_t g = b.dim(0);
  const int64_t k = b.dim(1);
  SEASTAR_CHECK_EQ(a.dim(1), g * k) << "GroupedRowDot: " << a.ShapeString() << " vs "
                                    << b.ShapeString();
  Tensor out({n, g});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(
      n,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t c = 0; c < g; ++c) {
          GemmRows(pa + c * k, /*lda=*/g * k, /*astep=*/1, pb + c * k, /*ldb=*/1, po + c,
                   /*ldo=*/g, /*steps=*/k, /*m=*/1, row_begin, row_end, /*accumulate=*/false);
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 16384 / std::max<int64_t>(1, g * k)));
  return out;
}

Tensor GroupedRowDotGradA(const Tensor& grad, const Tensor& b) {
  SEASTAR_CHECK_EQ(grad.ndim(), 2);
  SEASTAR_CHECK_EQ(grad.dim(1), b.dim(0));
  const int64_t n = grad.dim(0);
  const int64_t g = b.dim(0);
  const int64_t k = b.dim(1);
  Tensor out({n, g * k});
  const float* pg = grad.data();
  const float* pb = b.data();
  float* po = out.data();
  // Group c: grad[:, c] (a one-step A) times row c of b, as Matmul's
  // gradient g @ bᵀ computes it.
  ParallelFor(
      n,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t c = 0; c < g; ++c) {
          GemmRows(pg + c, /*lda=*/g, /*astep=*/1, pb + c * k, /*ldb=*/k, po + c * k,
                   /*ldo=*/g * k, /*steps=*/1, /*m=*/k, row_begin, row_end,
                   /*accumulate=*/false);
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, 16384 / std::max<int64_t>(1, g * k)));
  return out;
}

Tensor GroupedRowDotGradB(const Tensor& a, const Tensor& grad) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  SEASTAR_CHECK_EQ(grad.ndim(), 2);
  SEASTAR_CHECK_EQ(a.dim(0), grad.dim(0));
  const int64_t n = a.dim(0);
  const int64_t g = grad.dim(1);
  SEASTAR_CHECK_EQ(a.dim(1) % g, 0);
  const int64_t k = a.dim(1) / g;
  // Group c is MatmulTransposeA over its slice: aᵀ read in place, the
  // input walked in the same kTransposeAChunk-row passes.
  Tensor out = Tensor::Zeros({g, k});
  const float* pa = a.data();
  const float* pg = grad.data();
  float* po = out.data();
  for (int64_t i0 = 0; i0 < n; i0 += kTransposeAChunk) {
    for (int64_t c = 0; c < g; ++c) {
      GemmRows(pa + i0 * g * k + c * k, /*lda=*/1, /*astep=*/g * k, pg + i0 * g + c,
               /*ldb=*/g, po + c * k, /*ldo=*/1, std::min(kTransposeAChunk, n - i0), /*m=*/1,
               /*row_begin=*/0, /*row_end=*/k, /*accumulate=*/true);
    }
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0);
  const int64_t m = a.dim(1);
  Tensor out({m, n});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      po[j * n + i] = pa[i * m + j];
    }
  }
  return out;
}

// ---- Reductions -----------------------------------------------------------------------------------

float SumAll(const Tensor& a) {
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    acc += p[i];
  }
  return static_cast<float>(acc);
}

Tensor RowSum(const Tensor& a) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0);
  const int64_t d = a.dim(1);
  Tensor out({n, 1});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      acc += pa[i * d + j];
    }
    po[i] = static_cast<float>(acc);
  }
  return out;
}

Tensor ColSum(const Tensor& a) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0);
  const int64_t d = a.dim(1);
  Tensor out = Tensor::Zeros({d});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      po[j] += pa[i * d + j];
    }
  }
  return out;
}

std::vector<int32_t> RowArgmax(const Tensor& a) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  SEASTAR_CHECK_GT(a.dim(1), 0);
  const int64_t n = a.dim(0);
  const int64_t d = a.dim(1);
  std::vector<int32_t> result(static_cast<size_t>(n));
  const float* pa = a.data();
  for (int64_t i = 0; i < n; ++i) {
    int32_t best_j = 0;
    float best = pa[i * d];
    for (int64_t j = 1; j < d; ++j) {
      if (pa[i * d + j] > best) {
        best = pa[i * d + j];
        best_j = static_cast<int32_t>(j);
      }
    }
    result[static_cast<size_t>(i)] = best_j;
  }
  return result;
}

// ---- Softmax / losses -------------------------------------------------------------------------------

namespace {

// Shared stabilization for Softmax / LogSoftmax: logits are computed by
// arbitrary models and can reach the edge of float range (or ±inf after an
// upstream overflow), where the textbook log-sum-exp still breaks: ±inf
// poisons the row max (inf - inf = NaN), and even for finite inputs the
// float subtraction `x - log_denom` can overflow to -inf, which NllLoss then
// turns into an infinite loss. Clamping every logit into the finite float
// range keeps the max-subtracted exponent in (-inf, 0] and every log-prob
// finite; NaN inputs stay NaN by design (the training health monitor is the
// layer that reacts to those).
inline double ClampLogit(float x) {
  constexpr double kMaxMagnitude = 3.0e38;  // Just inside float range.
  return std::min(kMaxMagnitude, std::max(-kMaxMagnitude, static_cast<double>(x)));
}

}  // namespace

Tensor Softmax(const Tensor& a) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0);
  const int64_t d = a.dim(1);
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  // Rows are independent (the reduction is within a row), so chunking over
  // rows is bitwise identical to the serial loop.
  ParallelRowwise(n, d, [=](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      double row_max = ClampLogit(pa[i * d]);
      for (int64_t j = 1; j < d; ++j) {
        row_max = std::max(row_max, ClampLogit(pa[i * d + j]));
      }
      double denom = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        const float e = static_cast<float>(std::exp(ClampLogit(pa[i * d + j]) - row_max));
        po[i * d + j] = e;
        denom += e;
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t j = 0; j < d; ++j) {
        po[i * d + j] *= inv;
      }
    }
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0);
  const int64_t d = a.dim(1);
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelRowwise(n, d, [=](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      double row_max = ClampLogit(pa[i * d]);
      for (int64_t j = 1; j < d; ++j) {
        row_max = std::max(row_max, ClampLogit(pa[i * d + j]));
      }
      double denom = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        denom += std::exp(ClampLogit(pa[i * d + j]) - row_max);
      }
      // denom >= 1 (the max element contributes exp(0)), so the log is safe.
      // Keep (x - row_max) and log(denom) separate: folding row_max into the
      // log term would absorb log(denom) entirely when |row_max| ~ 1e38.
      const double log_sum = std::log(denom);
      constexpr double kFloatLowest = -3.4e38;  // Keep the cast back to float finite.
      for (int64_t j = 0; j < d; ++j) {
        po[i * d + j] = static_cast<float>(
            std::max(kFloatLowest, (ClampLogit(pa[i * d + j]) - row_max) - log_sum));
      }
    }
  });
  return out;
}

float NllLoss(const Tensor& log_probs, const std::vector<int32_t>& labels,
              const std::vector<int32_t>& mask_rows) {
  SEASTAR_CHECK_EQ(log_probs.ndim(), 2);
  SEASTAR_CHECK_EQ(log_probs.dim(0), static_cast<int64_t>(labels.size()));
  double acc = 0.0;
  if (mask_rows.empty()) {
    for (int64_t i = 0; i < log_probs.dim(0); ++i) {
      acc -= log_probs.at(i, labels[static_cast<size_t>(i)]);
    }
    return static_cast<float>(acc / static_cast<double>(log_probs.dim(0)));
  }
  for (int32_t row : mask_rows) {
    acc -= log_probs.at(row, labels[static_cast<size_t>(row)]);
  }
  return static_cast<float>(acc / static_cast<double>(mask_rows.size()));
}

Tensor CrossEntropyGrad(const Tensor& log_probs, const std::vector<int32_t>& labels,
                        const std::vector<int32_t>& mask_rows) {
  SEASTAR_CHECK_EQ(log_probs.ndim(), 2);
  const int64_t n = log_probs.dim(0);
  const int64_t c = log_probs.dim(1);
  Tensor grad = Tensor::Zeros({n, c});
  const float* lp = log_probs.data();
  float* pg = grad.data();
  const auto fill_row = [&](int64_t i, float scale) {
    for (int64_t j = 0; j < c; ++j) {
      pg[i * c + j] = std::exp(lp[i * c + j]) * scale;  // softmax * scale
    }
    pg[i * c + labels[static_cast<size_t>(i)]] -= scale;
  };
  if (mask_rows.empty()) {
    const float scale = 1.0f / static_cast<float>(n);
    ParallelRowwise(n, c, [&](int64_t row_begin, int64_t row_end) {
      for (int64_t i = row_begin; i < row_end; ++i) {
        fill_row(i, scale);
      }
    });
  } else {
    // Mask rows are distinct training nodes, so the filled rows are disjoint.
    const float scale = 1.0f / static_cast<float>(mask_rows.size());
    ParallelRowwise(static_cast<int64_t>(mask_rows.size()), c,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t k = begin; k < end; ++k) {
                        fill_row(mask_rows[static_cast<size_t>(k)], scale);
                      }
                    });
  }
  return grad;
}

// ---- Dropout ----------------------------------------------------------------------------------------

Tensor Dropout(const Tensor& a, float p, Rng& rng) {
  SEASTAR_CHECK_GE(p, 0.0f);
  SEASTAR_CHECK_LT(p, 1.0f);
  Tensor out(a.shape());
  const int64_t n = a.numel();
  const float keep_scale = 1.0f / (1.0f - p);
  // Element i drops when NextBernoulli(p) would be true: u * 2^-53 < p for
  // u = draw >> 11. p * 2^53 is exact (a power-of-two scaling), and for an
  // integer u, u < p * 2^53 holds exactly when u < ceil(p * 2^53).
  const uint64_t threshold = static_cast<uint64_t>(std::ceil(static_cast<double>(p) * 0x1.0p53));
  // Lane j starts j * block draws into the stream, so the lanes and the tail
  // draw exactly what n successive NextUint64 calls would, in order.
  const int64_t block =
      n / simd::kDropoutLanes >= kDropoutMinLaneBlock ? n / simd::kDropoutLanes : 0;
  RngState state = rng.SaveState();
  const RngJump jump(static_cast<uint64_t>(block));
  simd::XoshiroLanes lanes;
  for (int j = 0; j < simd::kDropoutLanes; ++j) {
    if (j > 0 && block > 0) {
      jump.Apply(state.words);
    }
    for (int w = 0; w < 4; ++w) {
      lanes.words[w][j] = state.words[w];
    }
  }
  simd::DropoutLanes(a.data(), out.data(), block, n - simd::kDropoutLanes * block, threshold,
                     keep_scale, lanes);
  // NextBernoulli(0) draws nothing: p == 0 leaves the stream where it was.
  if (p > 0.0f) {
    for (int w = 0; w < 4; ++w) {
      state.words[w] = lanes.words[w][simd::kDropoutLanes - 1];
    }
    rng.RestoreState(state);
  }
  return out;
}

// ---- Misc -------------------------------------------------------------------------------------------

Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end) {
  SEASTAR_CHECK_EQ(a.ndim(), 2);
  SEASTAR_CHECK_GE(begin, 0);
  SEASTAR_CHECK_LE(begin, end);
  SEASTAR_CHECK_LE(end, a.dim(0));
  const int64_t d = a.dim(1);
  Tensor out({end - begin, d});
  std::memcpy(out.data(), a.data() + begin * d,
              static_cast<size_t>((end - begin) * d) * sizeof(float));
  return out;
}

}  // namespace ops
}  // namespace seastar

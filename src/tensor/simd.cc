#include "src/tensor/simd.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/rng.h"
#include "src/tensor/pointwise.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SEASTAR_SIMD_X86 1
#include <immintrin.h>
#endif

namespace seastar {
namespace simd {
namespace {

// ---- Scalar fallbacks ---------------------------------------------------------------------------
// Compiled at the translation unit's baseline ISA. With SEASTAR_NATIVE_ARCH=ON
// the autovectorizer still widens these; the point of the explicit AVX2
// variants below is the SEASTAR_NATIVE_ARCH=OFF binary, where the baseline is
// SSE2 and the 8-wide FMA forms are only reachable via runtime dispatch.

// Gather-reduce bodies: the accumulator columns are folded a block at a
// time in a local array, over every row of the range, then stored once.
constexpr int64_t kGatherBlock = 32;

template <class FoldRow>
void GatherScalar(float* __restrict__ acc, int64_t i0, int64_t i1, int64_t n, FoldRow fold_row) {
  if (i0 >= i1) {
    return;
  }
  for (int64_t b = 0; b < n; b += kGatherBlock) {
    const int64_t bn = std::min(kGatherBlock, n - b);
    float block[kGatherBlock];
    std::memcpy(block, acc + b, static_cast<size_t>(bn) * sizeof(float));
    for (int64_t i = i0; i < i1; ++i) {
      fold_row(block, i, b, bn);
    }
    std::memcpy(acc + b, block, static_cast<size_t>(bn) * sizeof(float));
  }
}

void AddGatherScalar(float* acc, const Rows& x, int64_t i0, int64_t i1, int64_t c0, int64_t n) {
  GatherScalar(acc, i0, i1, n, [&](float* block, int64_t i, int64_t b, int64_t bn) {
    const float* xr = x(i) + c0 + b;
    for (int64_t j = 0; j < bn; ++j) {
      block[j] += xr[j];
    }
  });
}

void AxpyGatherScalar(float* acc, const Rows& x, const Rows& y, int64_t i0, int64_t i1,
                      int64_t c0, int64_t n) {
  GatherScalar(acc, i0, i1, n, [&](float* block, int64_t i, int64_t b, int64_t bn) {
    const float* xr = x(i) + c0 + b;
    const float s = y(i)[0];
    for (int64_t j = 0; j < bn; ++j) {
      block[j] = pointwise::MulAdd(xr[j], s, block[j]);
    }
  });
}

void AxpyGroupedGatherScalar(float* acc, const Rows& x, const Rows& y, int64_t i0, int64_t i1,
                             int64_t c0, int64_t n, int64_t k) {
  GatherScalar(acc, i0, i1, n, [&](float* block, int64_t i, int64_t b, int64_t bn) {
    const float* xr = x(i) + c0 + b;
    const float* yr = y(i);
    for (int64_t j = 0; j < bn; ++j) {
      block[j] = pointwise::MulAdd(xr[j], yr[(c0 + b + j) / k], block[j]);
    }
  });
}

void MulAddGatherScalar(float* acc, const Rows& x, const Rows& y, int64_t i0, int64_t i1,
                        int64_t c0, int64_t n) {
  GatherScalar(acc, i0, i1, n, [&](float* block, int64_t i, int64_t b, int64_t bn) {
    const float* xr = x(i) + c0 + b;
    const float* yr = y(i) + c0 + b;
    for (int64_t j = 0; j < bn; ++j) {
      block[j] = pointwise::MulAdd(xr[j], yr[j], block[j]);
    }
  });
}

void MaxGatherScalar(float* acc, const Rows& x, int64_t i0, int64_t i1, int64_t c0, int64_t n) {
  GatherScalar(acc, i0, i1, n, [&](float* block, int64_t i, int64_t b, int64_t bn) {
    const float* xr = x(i) + c0 + b;
    for (int64_t j = 0; j < bn; ++j) {
      block[j] = std::max(block[j], xr[j]);
    }
  });
}

constexpr GatherKernels kScalarGather = {AddGatherScalar, AxpyGatherScalar,
                                         AxpyGroupedGatherScalar, MulAddGatherScalar,
                                         MaxGatherScalar};

void ScaleRowScalar(float* __restrict__ x, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    x[i] *= s;
  }
}

// C[kRows][n] (+)= A-rows @ B[.., 0, n) for n <= kCols columns, the
// accumulator block a local array folded with one multiply-add per step.
template <int kRows, int kCols>
inline void GemmTileScalar(const float* __restrict__ pa, int64_t lda, int64_t astep,
                           const float* __restrict__ pb, int64_t ldb, float* __restrict__ po,
                           int64_t ldo, int64_t k, int64_t n, bool accumulate) {
  float acc[kRows][kCols] = {};
  if (accumulate) {
    for (int r = 0; r < kRows; ++r) {
      for (int64_t j = 0; j < n; ++j) {
        acc[r][j] = po[r * ldo + j];
      }
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* __restrict__ brow = pb + kk * ldb;
    for (int r = 0; r < kRows; ++r) {
      const float av = pa[r * lda + kk * astep];
      for (int64_t j = 0; j < n; ++j) {
        acc[r][j] = pointwise::MulAdd(av, brow[j], acc[r][j]);
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      po[r * ldo + j] = acc[r][j];
    }
  }
}

void GemmTile4x16Scalar(const float* pa, int64_t lda, int64_t astep, const float* pb,
                        int64_t ldb, float* po, int64_t ldo, int64_t k, bool accumulate) {
  GemmTileScalar<4, 16>(pa, lda, astep, pb, ldb, po, ldo, k, 16, accumulate);
}

void GemmTile1x16Scalar(const float* pa, int64_t astep, const float* pb, int64_t ldb, float* po,
                        int64_t k, bool accumulate) {
  GemmTileScalar<1, 16>(pa, 0, astep, pb, ldb, po, 0, k, 16, accumulate);
}

void GemmTile4xNScalar(const float* pa, int64_t lda, int64_t astep, const float* pb,
                       int64_t ldb, float* po, int64_t ldo, int64_t k, int64_t n,
                       bool accumulate) {
  GemmTileScalar<4, 8>(pa, lda, astep, pb, ldb, po, ldo, k, n, accumulate);
}

void GemmTile1xNScalar(const float* pa, int64_t astep, const float* pb, int64_t ldb, float* po,
                       int64_t k, int64_t n, bool accumulate) {
  GemmTileScalar<1, 8>(pa, 0, astep, pb, ldb, po, 0, k, n, accumulate);
}

constexpr GemmKernels kScalarGemm = {GemmTile4x16Scalar, GemmTile1x16Scalar, GemmTile4xNScalar,
                                     GemmTile1xNScalar};

void EluGradRowScalar(float* __restrict__ out, const float* __restrict__ g,
                      const float* __restrict__ y, float alpha, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = y[i] > 0.0f ? g[i] : g[i] * (y[i] + alpha);
  }
}

// ---- Dropout ----------------------------------------------------------------------------------

// keep_scale (as bits) where u >> 11 >= threshold, else +0.0f: a bit-mask
// select, since a branch mispredicts on about half the elements at p = 0.5.
inline float KeepValue(uint64_t u, uint64_t threshold, uint32_t keep_bits) {
  return std::bit_cast<float>(-static_cast<uint32_t>((u >> 11) >= threshold) & keep_bits);
}

// The serial tail: elements [i0, i1) drawn in order from lane 7.
void DropoutSerial(const float* __restrict__ x, float* __restrict__ out, int64_t i0, int64_t i1,
                   uint64_t threshold, uint32_t keep_bits, XoshiroLanes& lanes) {
  uint64_t s0 = lanes.words[0][7];
  uint64_t s1 = lanes.words[1][7];
  uint64_t s2 = lanes.words[2][7];
  uint64_t s3 = lanes.words[3][7];
  for (int64_t i = i0; i < i1; ++i) {
    out[i] = x[i] * KeepValue(XoshiroNext(s0, s1, s2, s3), threshold, keep_bits);
  }
  lanes.words[0][7] = s0;
  lanes.words[1][7] = s1;
  lanes.words[2][7] = s2;
  lanes.words[3][7] = s3;
}

void DropoutLanesScalar(const float* __restrict__ x, float* __restrict__ out, int64_t block,
                        int64_t tail, uint64_t threshold, float keep_scale, XoshiroLanes& lanes) {
  const uint32_t keep_bits = std::bit_cast<uint32_t>(keep_scale);
  XoshiroLanes s = lanes;
  for (int64_t t = 0; t < block; ++t) {
    for (int j = 0; j < kDropoutLanes; ++j) {
      const uint64_t u = XoshiroNext(s.words[0][j], s.words[1][j], s.words[2][j], s.words[3][j]);
      const int64_t i = j * block + t;
      out[i] = x[i] * KeepValue(u, threshold, keep_bits);
    }
  }
  lanes = s;
  DropoutSerial(x, out, kDropoutLanes * block, kDropoutLanes * block + tail, threshold, keep_bits,
                lanes);
}

constexpr DropoutKernels kScalarDropout = {DropoutLanesScalar};

#if defined(SEASTAR_SIMD_X86)

// ---- AVX2 + FMA variants ------------------------------------------------------------------------
// Every column is one fma (or add) per row, in row order, so results are
// bitwise independent of how the caller slices columns into tiles and of
// which lane a column lands in.

#define SEASTAR_AVX2 __attribute__((target("avx2,fma")))

// Which operand columns a fold reads: x's row slice [c0, c0 + n) always;
// y's only for the elementwise product.
enum class Fold { kAdd, kAxpy, kMulAdd, kMax };
constexpr bool YReadsColumns(Fold f) { return f == Fold::kMulAdd; }
constexpr bool ReadsY(Fold f) { return f == Fold::kAxpy || f == Fold::kMulAdd; }

// Row walkers with the `idx == nullptr` test resolved once per call, so the
// edge loop carries no branch on it.
struct DenseRows {
  const float* base;
  int64_t stride;
  const float* operator()(int64_t i) const { return base + i * stride; }
  DenseRows At(int64_t c) const { return {base + c, stride}; }
};
struct IndexedRows {
  const float* base;
  const int32_t* idx;
  int64_t stride;
  const float* operator()(int64_t i) const { return base + int64_t{idx[i]} * stride; }
  IndexedRows At(int64_t c) const { return {base + c, idx, stride}; }
};

// Lanes [0, n) set.
SEASTAR_AVX2 inline __m256i ColumnMask(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Lane group g of a G-group block: only the last group of a ragged block is
// masked; full groups are plain unaligned loads and stores.
template <int G, bool kTail>
SEASTAR_AVX2 inline __m256 LoadGroup(const float* p, int g, __m256i tail) {
  return kTail && g == G - 1 ? _mm256_maskload_ps(p + 8 * g, tail) : _mm256_loadu_ps(p + 8 * g);
}

// Folds rows [i0, i1) into acc[0, 8 * G) (the last group `tail`-masked when
// kTail) with the accumulator held in G ymm registers across the rows. G is
// a template parameter so the arrays below are fully unrolled registers; a
// runtime group count spills them to the stack.
template <Fold F, int G, bool kTail, class X, class Y>
SEASTAR_AVX2 inline void FoldBlockAvx2(float* acc, X x, Y y, int64_t i0, int64_t i1,
                                       __m256i tail) {
  __m256 a[G];
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    a[g] = LoadGroup<G, kTail>(acc, g, tail);
  }
  for (int64_t i = i0; i < i1; ++i) {
    const float* xr = x(i);
    if constexpr (F == Fold::kAdd) {
#pragma GCC unroll 4
      for (int g = 0; g < G; ++g) {
        a[g] = _mm256_add_ps(a[g], LoadGroup<G, kTail>(xr, g, tail));
      }
    } else if constexpr (F == Fold::kMax) {
      // max_ps returns its second operand unless the first is greater, so
      // (x, acc) keeps acc on ties and NaNs, as std::max(acc, x) does.
#pragma GCC unroll 4
      for (int g = 0; g < G; ++g) {
        a[g] = _mm256_max_ps(LoadGroup<G, kTail>(xr, g, tail), a[g]);
      }
    } else if constexpr (F == Fold::kAxpy) {
      const __m256 s = _mm256_set1_ps(y(i)[0]);
#pragma GCC unroll 4
      for (int g = 0; g < G; ++g) {
        a[g] = _mm256_fmadd_ps(LoadGroup<G, kTail>(xr, g, tail), s, a[g]);
      }
    } else {
      const float* yr = y(i);
#pragma GCC unroll 4
      for (int g = 0; g < G; ++g) {
        a[g] = _mm256_fmadd_ps(LoadGroup<G, kTail>(xr, g, tail),
                               LoadGroup<G, kTail>(yr, g, tail), a[g]);
      }
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    if (kTail && g == G - 1) {
      _mm256_maskstore_ps(acc + 8 * g, tail, a[g]);
    } else {
      _mm256_storeu_ps(acc + 8 * g, a[g]);
    }
  }
}

// A single column (a one-head attention sum and its gradients) folds as
// one scalar chain: a masked lane group costs more there than the column's
// arithmetic. Same add / fma per row, so the same bits.
template <Fold F, class X, class Y>
SEASTAR_AVX2 inline void FoldColumnAvx2(float* acc, X x, Y y, int64_t i0, int64_t i1) {
  float a = acc[0];
  for (int64_t i = i0; i < i1; ++i) {
    if constexpr (ReadsY(F)) {
      a = __builtin_fmaf(x(i)[0], y(i)[0], a);
    } else if constexpr (F == Fold::kMax) {
      a = std::max(a, x(i)[0]);
    } else {
      a += x(i)[0];
    }
  }
  acc[0] = a;
}

// Walks the n accumulator columns in blocks of up to 32 (4 ymm), re-reading
// the range's row indices per block, as column tiles already do.
template <Fold F, class X, class Y>
SEASTAR_AVX2 void FoldAvx2(float* acc, X x, Y y, int64_t i0, int64_t i1, int64_t n) {
  if (n == 1) {
    FoldColumnAvx2<F>(acc, x, y, i0, i1);
    return;
  }
  for (int64_t b = 0; b < n; b += 32) {
    const int64_t bn = std::min<int64_t>(32, n - b);
    const int groups = static_cast<int>((bn + 7) / 8);
    const int last = static_cast<int>(bn) - 8 * (groups - 1);  // Lanes in use, 1..8.
    const __m256i tail = ColumnMask(last);
    const X xb = x.At(b);
    const Y yb = YReadsColumns(F) ? y.At(b) : y;
    float* ab = acc + b;
    switch (groups * 2 + (last < 8 ? 1 : 0)) {
      case 2:
        FoldBlockAvx2<F, 1, false>(ab, xb, yb, i0, i1, tail);
        break;
      case 3:
        FoldBlockAvx2<F, 1, true>(ab, xb, yb, i0, i1, tail);
        break;
      case 4:
        FoldBlockAvx2<F, 2, false>(ab, xb, yb, i0, i1, tail);
        break;
      case 5:
        FoldBlockAvx2<F, 2, true>(ab, xb, yb, i0, i1, tail);
        break;
      case 6:
        FoldBlockAvx2<F, 3, false>(ab, xb, yb, i0, i1, tail);
        break;
      case 7:
        FoldBlockAvx2<F, 3, true>(ab, xb, yb, i0, i1, tail);
        break;
      case 8:
        FoldBlockAvx2<F, 4, false>(ab, xb, yb, i0, i1, tail);
        break;
      default:
        FoldBlockAvx2<F, 4, true>(ab, xb, yb, i0, i1, tail);
        break;
    }
  }
}

template <Fold F, class X>
SEASTAR_AVX2 void FoldAvx2WithY(float* acc, X x, const Rows& y, int64_t i0, int64_t i1,
                                int64_t c0, int64_t n) {
  const int64_t yc = YReadsColumns(F) ? c0 : 0;
  if constexpr (!ReadsY(F)) {
    FoldAvx2<F>(acc, x, x, i0, i1, n);
  } else if (y.idx != nullptr) {
    FoldAvx2<F>(acc, x, IndexedRows{y.base + yc, y.idx, y.stride}, i0, i1, n);
  } else {
    FoldAvx2<F>(acc, x, DenseRows{y.base + yc, y.stride}, i0, i1, n);
  }
}

template <Fold F>
SEASTAR_AVX2 void GatherAvx2(float* acc, const Rows& x, const Rows& y, int64_t i0, int64_t i1,
                             int64_t c0, int64_t n) {
  if (i0 >= i1 || n <= 0) {
    return;
  }
  if (x.idx != nullptr) {
    FoldAvx2WithY<F>(acc, IndexedRows{x.base + c0, x.idx, x.stride}, y, i0, i1, c0, n);
  } else {
    FoldAvx2WithY<F>(acc, DenseRows{x.base + c0, x.stride}, y, i0, i1, c0, n);
  }
}

SEASTAR_AVX2 void AddGatherAvx2(float* acc, const Rows& x, int64_t i0, int64_t i1, int64_t c0,
                                int64_t n) {
  GatherAvx2<Fold::kAdd>(acc, x, x, i0, i1, c0, n);
}

SEASTAR_AVX2 void AxpyGatherAvx2(float* acc, const Rows& x, const Rows& y, int64_t i0,
                                 int64_t i1, int64_t c0, int64_t n) {
  GatherAvx2<Fold::kAxpy>(acc, x, y, i0, i1, c0, n);
}

// The grouped Axpy over one block of 8 * G columns (the last group
// `tail`-masked when kTail) in which every lane group lies inside one scale
// group: group g's scale, y(i)[scale[g]], is broadcast to its 8 lanes.
template <int G, bool kTail, class X, class Y>
SEASTAR_AVX2 inline void FoldGroupedBlockAvx2(float* acc, X x, Y y, int64_t i0, int64_t i1,
                                              __m256i tail, const int64_t* scale) {
  __m256 a[G];
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    a[g] = LoadGroup<G, kTail>(acc, g, tail);
  }
  for (int64_t i = i0; i < i1; ++i) {
    const float* xr = x(i);
    const float* yr = y(i);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      a[g] = _mm256_fmadd_ps(LoadGroup<G, kTail>(xr, g, tail), _mm256_broadcast_ss(yr + scale[g]),
                             a[g]);
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    if (kTail && g == G - 1) {
      _mm256_maskstore_ps(acc + 8 * g, tail, a[g]);
    } else {
      _mm256_storeu_ps(acc + 8 * g, a[g]);
    }
  }
}

// Groups of a multiple of 8 columns starting on a lane-group boundary
// (GAT's heads of 8k features): blocks of up to 32 columns, each lane group
// reading one scale. The scale index advances by counting, not dividing:
// this runs once per key.
template <class X, class Y>
SEASTAR_AVX2 void FoldGroupedAvx2(float* acc, X x, Y y, int64_t i0, int64_t i1, int64_t c0,
                                  int64_t n, int64_t k) {
  int64_t q = c0 < k ? 0 : c0 / k;
  int64_t rem = c0 - q * k;
  for (int64_t b = 0; b < n; b += 32) {
    const int64_t bn = std::min<int64_t>(32, n - b);
    const int groups = static_cast<int>((bn + 7) / 8);
    const int last = static_cast<int>(bn) - 8 * (groups - 1);
    const __m256i tail = ColumnMask(last);
    int64_t scale[4];
    for (int g = 0; g < groups; ++g) {
      scale[g] = q;
      rem += 8;
      if (rem == k) {
        rem = 0;
        ++q;
      }
    }
    const X xb = x.At(b);
    float* ab = acc + b;
    switch (groups * 2 + (last < 8 ? 1 : 0)) {
      case 2:
        FoldGroupedBlockAvx2<1, false>(ab, xb, y, i0, i1, tail, scale);
        break;
      case 3:
        FoldGroupedBlockAvx2<1, true>(ab, xb, y, i0, i1, tail, scale);
        break;
      case 4:
        FoldGroupedBlockAvx2<2, false>(ab, xb, y, i0, i1, tail, scale);
        break;
      case 5:
        FoldGroupedBlockAvx2<2, true>(ab, xb, y, i0, i1, tail, scale);
        break;
      case 6:
        FoldGroupedBlockAvx2<3, false>(ab, xb, y, i0, i1, tail, scale);
        break;
      case 7:
        FoldGroupedBlockAvx2<3, true>(ab, xb, y, i0, i1, tail, scale);
        break;
      case 8:
        FoldGroupedBlockAvx2<4, false>(ab, xb, y, i0, i1, tail, scale);
        break;
      default:
        FoldGroupedBlockAvx2<4, true>(ab, xb, y, i0, i1, tail, scale);
        break;
    }
  }
}

template <class X>
SEASTAR_AVX2 void FoldGroupedAvx2WithY(float* acc, X x, const Rows& y, int64_t i0, int64_t i1,
                                       int64_t c0, int64_t n, int64_t k) {
  if (y.idx != nullptr) {
    FoldGroupedAvx2(acc, x, IndexedRows{y.base, y.idx, y.stride}, i0, i1, c0, n, k);
  } else {
    FoldGroupedAvx2(acc, x, DenseRows{y.base, y.stride}, i0, i1, c0, n, k);
  }
}

SEASTAR_AVX2 void AxpyGroupedGatherAvx2(float* acc, const Rows& x, const Rows& y, int64_t i0,
                                        int64_t i1, int64_t c0, int64_t n, int64_t k) {
  if (i0 >= i1 || n <= 0) {
    return;
  }
  if (k % 8 != 0 || c0 % 8 != 0) {
    // Groups that split a lane group: one scalar fma chain per column, the
    // same fma per row as the vector lanes.
    for (int64_t j = 0; j < n; ++j) {
      const int64_t col = c0 + j;
      const int64_t scale = col / k;
      float a = acc[j];
      for (int64_t i = i0; i < i1; ++i) {
        a = __builtin_fmaf(x(i)[col], y(i)[scale], a);
      }
      acc[j] = a;
    }
    return;
  }
  if (x.idx != nullptr) {
    FoldGroupedAvx2WithY(acc, IndexedRows{x.base + c0, x.idx, x.stride}, y, i0, i1, c0, n, k);
  } else {
    FoldGroupedAvx2WithY(acc, DenseRows{x.base + c0, x.stride}, y, i0, i1, c0, n, k);
  }
}

SEASTAR_AVX2 void MulAddGatherAvx2(float* acc, const Rows& x, const Rows& y, int64_t i0,
                                   int64_t i1, int64_t c0, int64_t n) {
  GatherAvx2<Fold::kMulAdd>(acc, x, y, i0, i1, c0, n);
}

SEASTAR_AVX2 void MaxGatherAvx2(float* acc, const Rows& x, int64_t i0, int64_t i1, int64_t c0,
                                int64_t n) {
  GatherAvx2<Fold::kMax>(acc, x, x, i0, i1, c0, n);
}

constexpr GatherKernels kAvx2Gather = {AddGatherAvx2, AxpyGatherAvx2, AxpyGroupedGatherAvx2,
                                       MulAddGatherAvx2, MaxGatherAvx2};

__attribute__((target("avx2,fma"))) void ScaleRowAvx2(float* __restrict__ x, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) {
    x[i] *= s;
  }
}

// 4×16 GEMM micro-kernel: 8 ymm accumulators stay resident across the whole
// k loop; each 16-float B row costs two loads and is reused by all four A
// rows (one broadcast + two fmadds each) — 8 fma per 2 loads, enough
// arithmetic density to run at port throughput instead of load throughput.
// The four A elements of a step are lda apart and successive steps astep
// apart, so A and Aᵀ cost the same: one pointer bump per step either way.
__attribute__((target("avx2,fma"))) void GemmTile4x16Avx2(const float* __restrict__ pa,
                                                          int64_t lda, int64_t astep,
                                                          const float* __restrict__ pb,
                                                          int64_t ldb, float* __restrict__ po,
                                                          int64_t ldo, int64_t k,
                                                          bool accumulate) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  if (accumulate) {
    acc00 = _mm256_loadu_ps(po);
    acc01 = _mm256_loadu_ps(po + 8);
    acc10 = _mm256_loadu_ps(po + ldo);
    acc11 = _mm256_loadu_ps(po + ldo + 8);
    acc20 = _mm256_loadu_ps(po + 2 * ldo);
    acc21 = _mm256_loadu_ps(po + 2 * ldo + 8);
    acc30 = _mm256_loadu_ps(po + 3 * ldo);
    acc31 = _mm256_loadu_ps(po + 3 * ldo + 8);
  }
  const float* a = pa;
  const float* brow = pb;
  for (int64_t kk = 0; kk < k; ++kk, a += astep, brow += ldb) {
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 va = _mm256_set1_ps(a[0]);
    acc00 = _mm256_fmadd_ps(va, b0, acc00);
    acc01 = _mm256_fmadd_ps(va, b1, acc01);
    va = _mm256_set1_ps(a[lda]);
    acc10 = _mm256_fmadd_ps(va, b0, acc10);
    acc11 = _mm256_fmadd_ps(va, b1, acc11);
    va = _mm256_set1_ps(a[2 * lda]);
    acc20 = _mm256_fmadd_ps(va, b0, acc20);
    acc21 = _mm256_fmadd_ps(va, b1, acc21);
    va = _mm256_set1_ps(a[3 * lda]);
    acc30 = _mm256_fmadd_ps(va, b0, acc30);
    acc31 = _mm256_fmadd_ps(va, b1, acc31);
  }
  _mm256_storeu_ps(po, acc00);
  _mm256_storeu_ps(po + 8, acc01);
  _mm256_storeu_ps(po + ldo, acc10);
  _mm256_storeu_ps(po + ldo + 8, acc11);
  _mm256_storeu_ps(po + 2 * ldo, acc20);
  _mm256_storeu_ps(po + 2 * ldo + 8, acc21);
  _mm256_storeu_ps(po + 3 * ldo, acc30);
  _mm256_storeu_ps(po + 3 * ldo + 8, acc31);
}

__attribute__((target("avx2,fma"))) void GemmTile1x16Avx2(const float* __restrict__ pa,
                                                          int64_t astep,
                                                          const float* __restrict__ pb,
                                                          int64_t ldb, float* __restrict__ po,
                                                          int64_t k, bool accumulate) {
  __m256 acc0 = accumulate ? _mm256_loadu_ps(po) : _mm256_setzero_ps();
  __m256 acc1 = accumulate ? _mm256_loadu_ps(po + 8) : _mm256_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = pb + kk * ldb;
    const __m256 va = _mm256_set1_ps(pa[kk * astep]);
    acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow), acc0);
    acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + 8), acc1);
  }
  _mm256_storeu_ps(po, acc0);
  _mm256_storeu_ps(po + 8, acc1);
}

// Column tails (n <= 8): one ymm accumulator per row, each B row loaded
// once per step and reused by every row of the block. Below 8 columns the
// loads and stores are masked to the n live lanes, so B's and C's columns
// past n are never touched.
template <bool kMasked>
SEASTAR_AVX2 inline __m256 LoadCols(const float* p, __m256i cols) {
  return kMasked ? _mm256_maskload_ps(p, cols) : _mm256_loadu_ps(p);
}

template <bool kMasked>
SEASTAR_AVX2 inline void StoreCols(float* p, __m256i cols, __m256 v) {
  if (kMasked) {
    _mm256_maskstore_ps(p, cols, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

template <int kRows, bool kMasked>
SEASTAR_AVX2 inline void GemmTileNAvx2(const float* pa, int64_t lda, int64_t astep,
                                       const float* pb, int64_t ldb, float* po, int64_t ldo,
                                       int64_t k, __m256i cols, bool accumulate) {
  __m256 acc[kRows];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
    acc[r] = accumulate ? LoadCols<kMasked>(po + r * ldo, cols) : _mm256_setzero_ps();
  }
  const float* a = pa;
  const float* brow = pb;
  for (int64_t kk = 0; kk < k; ++kk, a += astep, brow += ldb) {
    const __m256 b = LoadCols<kMasked>(brow, cols);
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * lda]), b, acc[r]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
    StoreCols<kMasked>(po + r * ldo, cols, acc[r]);
  }
}

SEASTAR_AVX2 void GemmTile4xNAvx2(const float* pa, int64_t lda, int64_t astep, const float* pb,
                                  int64_t ldb, float* po, int64_t ldo, int64_t k, int64_t n,
                                  bool accumulate) {
  if (n == 8) {
    GemmTileNAvx2<4, false>(pa, lda, astep, pb, ldb, po, ldo, k, __m256i{}, accumulate);
  } else {
    GemmTileNAvx2<4, true>(pa, lda, astep, pb, ldb, po, ldo, k, ColumnMask(n), accumulate);
  }
}

SEASTAR_AVX2 void GemmTile1xNAvx2(const float* pa, int64_t astep, const float* pb, int64_t ldb,
                                  float* po, int64_t k, int64_t n, bool accumulate) {
  if (n == 8) {
    GemmTileNAvx2<1, false>(pa, 0, astep, pb, ldb, po, 0, k, __m256i{}, accumulate);
  } else {
    GemmTileNAvx2<1, true>(pa, 0, astep, pb, ldb, po, 0, k, ColumnMask(n), accumulate);
  }
}

constexpr GemmKernels kAvx2Gemm = {GemmTile4x16Avx2, GemmTile1x16Avx2, GemmTile4xNAvx2,
                                   GemmTile1xNAvx2};

// The same select as the scalar body, as a compare and blend: g * (y + alpha)
// is two roundings in either form, so the bits match.
SEASTAR_AVX2 void EluGradRowAvx2(float* __restrict__ out, const float* __restrict__ g,
                                 const float* __restrict__ y, float alpha, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    const __m256 positive = _mm256_cmp_ps(yv, _mm256_setzero_ps(), _CMP_GT_OQ);
    const __m256 scaled = _mm256_mul_ps(gv, _mm256_add_ps(yv, va));
    _mm256_storeu_ps(out + i, _mm256_blendv_ps(scaled, gv, positive));
  }
  EluGradRowScalar(out + i, g + i, y + i, alpha, n - i);
}

// ---- AVX2 dropout -----------------------------------------------------------------------------
// Lanes 0-3 and 4-7 each as one xoshiro state of four ymm words.
struct XoshiroVec {
  __m256i s0, s1, s2, s3;
};

// Lanes [j0, j0 + 4) of `lanes`.
SEASTAR_AVX2 inline XoshiroVec LoadLanesAvx2(const XoshiroLanes& lanes, int j0) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(&lanes.words[0][j0])),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&lanes.words[1][j0])),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&lanes.words[2][j0])),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&lanes.words[3][j0]))};
}

SEASTAR_AVX2 inline void StoreLanesAvx2(const XoshiroVec& s, XoshiroLanes& lanes, int j0) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&lanes.words[0][j0]), s.s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&lanes.words[1][j0]), s.s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&lanes.words[2][j0]), s.s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(&lanes.words[3][j0]), s.s3);
}

template <int k>
SEASTAR_AVX2 inline __m256i RotlEpi64(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// One xoshiro256** draw on four lanes. AVX2 has no 64-bit multiply: s1 * 5
// and r * 9 are a shift and an add (mod 2^64 either way).
SEASTAR_AVX2 inline __m256i XoshiroDrawAvx2(XoshiroVec& s) {
  const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s.s1, 2), s.s1);
  const __m256i rotated = RotlEpi64<7>(times5);
  const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
  const __m256i t = _mm256_slli_epi64(s.s1, 17);
  s.s2 = _mm256_xor_si256(s.s2, s.s0);
  s.s3 = _mm256_xor_si256(s.s3, s.s1);
  s.s1 = _mm256_xor_si256(s.s1, s.s2);
  s.s0 = _mm256_xor_si256(s.s0, s.s3);
  s.s2 = _mm256_xor_si256(s.s2, t);
  s.s3 = RotlEpi64<45>(s.s3);
  return result;
}

// One step of all 8 lanes as keep values (keep_scale or +0.0f), in the lane
// order kPackedLane. u >> 11 and threshold are both below 2^63, so the
// signed 64-bit compare is exact.
SEASTAR_AVX2 inline __m256 KeepStepAvx2(XoshiroVec& lo, XoshiroVec& hi, __m256i threshold,
                                        __m256 keep) {
  const __m256i drop_lo =
      _mm256_cmpgt_epi64(threshold, _mm256_srli_epi64(XoshiroDrawAvx2(lo), 11));
  const __m256i drop_hi =
      _mm256_cmpgt_epi64(threshold, _mm256_srli_epi64(XoshiroDrawAvx2(hi), 11));
  // The low half of each 64-bit compare result, per 128-bit half: lanes
  // 0, 1, 4, 5 | 2, 3, 6, 7.
  const __m256 drop =
      _mm256_shuffle_ps(_mm256_castsi256_ps(drop_lo), _mm256_castsi256_ps(drop_hi), 0x88);
  return _mm256_andnot_ps(drop, keep);
}
constexpr int kPackedLane[kDropoutLanes] = {0, 1, 4, 5, 2, 3, 6, 7};

// In-register 8x8 transpose: v[r][c] becomes v[c][r].
SEASTAR_AVX2 inline void Transpose8x8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  v[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  v[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  v[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  v[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  v[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  v[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  v[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  v[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// Steps [t, t + steps) of every lane block, steps <= 8: one tile of keep
// values, transposed so each lane's steps are one vector, then applied to
// x. A partial tile (kPartial, steps < 8) loads and stores only its `steps`
// columns (`columns` = ColumnMask(steps)): the next lane's block, or the
// buffer's end, starts right after.
template <bool kPartial>
SEASTAR_AVX2 inline void DropoutTileAvx2(const float* x, float* out, int64_t block, int64_t t,
                                         int steps, __m256i columns, XoshiroVec& lo,
                                         XoshiroVec& hi, __m256i threshold, __m256 keep) {
  __m256 tile[8];
#pragma GCC unroll 8
  for (int r = 0; r < 8; ++r) {
    tile[r] = !kPartial || r < steps ? KeepStepAvx2(lo, hi, threshold, keep) : _mm256_setzero_ps();
  }
  Transpose8x8(tile);
#pragma GCC unroll 8
  for (int c = 0; c < 8; ++c) {
    const int64_t i = kPackedLane[c] * block + t;
    if constexpr (kPartial) {
      const __m256 xv = _mm256_maskload_ps(x + i, columns);
      _mm256_maskstore_ps(out + i, columns, _mm256_mul_ps(xv, tile[c]));
    } else {
      _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), tile[c]));
    }
  }
}

SEASTAR_AVX2 void DropoutLanesAvx2(const float* x, float* out, int64_t block, int64_t tail,
                                   uint64_t threshold, float keep_scale, XoshiroLanes& lanes) {
  XoshiroVec lo = LoadLanesAvx2(lanes, 0);
  XoshiroVec hi = LoadLanesAvx2(lanes, 4);
  const __m256i thr = _mm256_set1_epi64x(static_cast<int64_t>(threshold));
  const __m256 keep = _mm256_set1_ps(keep_scale);
  int64_t t = 0;
  for (; t + 8 <= block; t += 8) {
    DropoutTileAvx2<false>(x, out, block, t, 8, __m256i{}, lo, hi, thr, keep);
  }
  if (t < block) {
    const int steps = static_cast<int>(block - t);
    DropoutTileAvx2<true>(x, out, block, t, steps, ColumnMask(steps), lo, hi, thr, keep);
  }
  StoreLanesAvx2(lo, lanes, 0);
  StoreLanesAvx2(hi, lanes, 4);
  DropoutSerial(x, out, kDropoutLanes * block, kDropoutLanes * block + tail, threshold,
                std::bit_cast<uint32_t>(keep_scale), lanes);
}

constexpr DropoutKernels kAvx2Dropout = {DropoutLanesAvx2};

bool CpuHasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // SEASTAR_SIMD_X86

struct Dispatch {
  const char* isa;
  int lanes;
};

Dispatch ResolveDispatch() {
#if defined(SEASTAR_SIMD_X86)
  if (CpuHasAvx2Fma()) {
    AddGather = kAvx2Gather.add;
    AxpyGather = kAvx2Gather.axpy;
    AxpyGroupedGather = kAvx2Gather.axpy_grouped;
    MulAddGather = kAvx2Gather.mul_add;
    MaxGather = kAvx2Gather.max;
    ScaleRow = ScaleRowAvx2;
    GemmTile4x16 = kAvx2Gemm.tile4x16;
    GemmTile1x16 = kAvx2Gemm.tile1x16;
    GemmTile4xN = kAvx2Gemm.tile4xn;
    GemmTile1xN = kAvx2Gemm.tile1xn;
    EluGradRow = EluGradRowAvx2;
    DropoutLanes = kAvx2Dropout.lanes;
    return {"avx2", 8};
  }
#endif
  return {"scalar", 1};
}

// Static-init dispatch: the function pointers default to the scalar bodies
// (so a call during another TU's static init is always safe), then resolve
// to the widest supported ISA exactly once.
const Dispatch g_dispatch = ResolveDispatch();

}  // namespace

decltype(AddGather) AddGather = AddGatherScalar;
decltype(AxpyGather) AxpyGather = AxpyGatherScalar;
decltype(AxpyGroupedGather) AxpyGroupedGather = AxpyGroupedGatherScalar;
decltype(MulAddGather) MulAddGather = MulAddGatherScalar;
decltype(MaxGather) MaxGather = MaxGatherScalar;
void (*ScaleRow)(float*, float, int64_t) = ScaleRowScalar;
decltype(GemmTile4x16) GemmTile4x16 = kScalarGemm.tile4x16;
decltype(GemmTile1x16) GemmTile1x16 = kScalarGemm.tile1x16;
decltype(GemmTile4xN) GemmTile4xN = kScalarGemm.tile4xn;
decltype(GemmTile1xN) GemmTile1xN = kScalarGemm.tile1xn;
decltype(EluGradRow) EluGradRow = EluGradRowScalar;
decltype(DropoutLanes) DropoutLanes = kScalarDropout.lanes;

const GatherKernels& ScalarGatherKernels() { return kScalarGather; }

const GatherKernels* Avx2GatherKernels() {
#if defined(SEASTAR_SIMD_X86)
  if (CpuHasAvx2Fma()) {
    return &kAvx2Gather;
  }
#endif
  return nullptr;
}

const GemmKernels& ScalarGemmKernels() { return kScalarGemm; }

const GemmKernels* Avx2GemmKernels() {
#if defined(SEASTAR_SIMD_X86)
  if (CpuHasAvx2Fma()) {
    return &kAvx2Gemm;
  }
#endif
  return nullptr;
}

const DropoutKernels& ScalarDropoutKernels() { return kScalarDropout; }

const DropoutKernels* Avx2DropoutKernels() {
#if defined(SEASTAR_SIMD_X86)
  if (CpuHasAvx2Fma()) {
    return &kAvx2Dropout;
  }
#endif
  return nullptr;
}

const char* SimdIsaName() { return g_dispatch.isa; }
int SimdLanes() { return g_dispatch.lanes; }

}  // namespace simd
}  // namespace seastar

#include "src/tensor/simd.h"

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

void AddRowScalar(float* __restrict__ acc, const float* __restrict__ x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    acc[i] += x[i];
  }
}

void AddScalarRowScalar(float* __restrict__ acc, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    acc[i] += s;
  }
}

void AxpyRowScalar(float* __restrict__ acc, const float* __restrict__ x, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    acc[i] += x[i] * s;
  }
}

void MulAddRowScalar(float* __restrict__ acc, const float* __restrict__ x,
                     const float* __restrict__ y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    acc[i] += x[i] * y[i];
  }
}

void ScaleRowScalar(float* __restrict__ x, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    x[i] *= s;
  }
}

void GemmTile4x16Scalar(const float* __restrict__ pa, int64_t lda, int64_t astep,
                        const float* __restrict__ pb, int64_t ldb, float* __restrict__ po,
                        int64_t ldo, int64_t k, bool accumulate) {
  float acc[4][16] = {};
  if (accumulate) {
    for (int r = 0; r < 4; ++r) {
      for (int j = 0; j < 16; ++j) {
        acc[r][j] = po[r * ldo + j];
      }
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* __restrict__ brow = pb + kk * ldb;
    for (int r = 0; r < 4; ++r) {
      const float av = pa[r * lda + kk * astep];
      for (int j = 0; j < 16; ++j) {
        acc[r][j] += av * brow[j];
      }
    }
  }
  for (int r = 0; r < 4; ++r) {
    for (int j = 0; j < 16; ++j) {
      po[r * ldo + j] = acc[r][j];
    }
  }
}

void GemmTile1x16Scalar(const float* __restrict__ pa, int64_t astep, const float* __restrict__ pb,
                        int64_t ldb, float* __restrict__ po, int64_t k, bool accumulate) {
  float acc[16] = {};
  if (accumulate) {
    for (int j = 0; j < 16; ++j) {
      acc[j] = po[j];
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float av = pa[kk * astep];
    const float* __restrict__ brow = pb + kk * ldb;
    for (int j = 0; j < 16; ++j) {
      acc[j] += av * brow[j];
    }
  }
  for (int j = 0; j < 16; ++j) {
    po[j] = acc[j];
  }
}

#if defined(SEASTAR_SIMD_X86)

// ---- AVX2 + FMA variants ------------------------------------------------------------------------
// Each is the scalar loop with the body lifted to 8 lanes; every column is
// still exactly one fused multiply-add (or add), so results are bitwise
// independent of how the caller slices n into tiles. Tails run the scalar
// body — same contraction (fmaf lowers to vfmadd
// when the target has it, which these functions always do).

__attribute__((target("avx2,fma"))) void AddRowAvx2(float* __restrict__ acc,
                                                    const float* __restrict__ x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    acc[i] += x[i];
  }
}

__attribute__((target("avx2,fma"))) void AddScalarRowAvx2(float* __restrict__ acc, float s,
                                                          int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), vs));
  }
  for (; i < n; ++i) {
    acc[i] += s;
  }
}

__attribute__((target("avx2,fma"))) void AxpyRowAvx2(float* __restrict__ acc,
                                                     const float* __restrict__ x, float s,
                                                     int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(acc + i,
                     _mm256_fmadd_ps(_mm256_loadu_ps(x + i), vs, _mm256_loadu_ps(acc + i)));
  }
  for (; i < n; ++i) {
    acc[i] = __builtin_fmaf(x[i], s, acc[i]);
  }
}

__attribute__((target("avx2,fma"))) void MulAddRowAvx2(float* __restrict__ acc,
                                                       const float* __restrict__ x,
                                                       const float* __restrict__ y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(acc + i, _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                                              _mm256_loadu_ps(acc + i)));
  }
  for (; i < n; ++i) {
    acc[i] = __builtin_fmaf(x[i], y[i], acc[i]);
  }
}

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
    AddRow = AddRowAvx2;
    AddScalarRow = AddScalarRowAvx2;
    AxpyRow = AxpyRowAvx2;
    MulAddRow = MulAddRowAvx2;
    ScaleRow = ScaleRowAvx2;
    GemmTile4x16 = GemmTile4x16Avx2;
    GemmTile1x16 = GemmTile1x16Avx2;
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

void (*AddRow)(float*, const float*, int64_t) = AddRowScalar;
void (*AddScalarRow)(float*, float, int64_t) = AddScalarRowScalar;
void (*AxpyRow)(float*, const float*, float, int64_t) = AxpyRowScalar;
void (*MulAddRow)(float*, const float*, const float*, int64_t) = MulAddRowScalar;
void (*ScaleRow)(float*, float, int64_t) = ScaleRowScalar;
void (*GemmTile4x16)(const float*, int64_t, int64_t, const float*, int64_t, float*, int64_t,
                     int64_t, bool) = GemmTile4x16Scalar;
void (*GemmTile1x16)(const float*, int64_t, const float*, int64_t, float*, int64_t,
                     bool) = GemmTile1x16Scalar;

const char* SimdIsaName() { return g_dispatch.isa; }
int SimdLanes() { return g_dispatch.lanes; }

}  // namespace simd
}  // namespace seastar

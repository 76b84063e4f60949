// Shared SIMD kernels for the lowered units' reductions and the dense ops.
//
// These are the vector inner loops behind every lowered unit's reduction
// (Reduce in src/exec/compiled_program.h: gather-reduce kernels that fold a
// key's rows into its accumulator, held in registers), the dense GEMM
// tiles (16-column panels and the narrow column tails), one pointwise
// blend and the dropout draw. They exist as out-of-line, runtime-dispatched
// functions for two reasons:
//
//  * Bit-reproducibility across loop *partitionings*. The tiled executor
//    runs the same per-key accumulation as the untiled one, just restricted
//    to a column range [c0, c1) of the feature row. Because both paths call
//    the same kernel — and every kernel here is elementwise-independent
//    across columns (one fma / add per column per row, no horizontal
//    operations) — splitting a row into tiles cannot change a single bit of
//    the result.
//    Inlining the loops separately at each call site would instead leave the
//    rounding behaviour (FMA contraction, vector tails) to whatever the
//    optimizer chose per site.
//
//  * Portable builds stay fast. With SEASTAR_NATIVE_ARCH=OFF the translation
//    units compile for baseline x86-64 (SSE2), but the AVX2+FMA variants are
//    compiled via `__attribute__((target(...)))` and selected at process
//    start with __builtin_cpu_supports — a portable binary still runs the
//    wide kernels on machines that have them, and falls back to the scalar
//    loops (correct, just slower) everywhere else.
//
// Dispatch is resolved once into function pointers at static-init time;
// callers pay an indirect call per key slice (one key's rows of a chunk, for
// one column tile), per GEMM tile or per pointwise chunk, never per edge or
// element. The chosen ISA is queryable (SimdIsaName) so executors can
// attribute kernel time to the dispatch that actually ran.
#ifndef SRC_TENSOR_SIMD_H_
#define SRC_TENSOR_SIMD_H_

#include <cstdint>

namespace seastar {
namespace simd {

// Name of the dispatched implementation: "avx2" or "scalar".
const char* SimdIsaName();
// Preferred vector width in floats (8 for AVX2, 1 for scalar). Benchmarks
// and the tile-size heuristic use it to align tile widths to full vectors.
int SimdLanes();

// One operand's rows across an edge chunk: row i starts at
// base + (idx ? idx[i] : i) * stride. A null idx walks the rows densely (a
// chunk-local batch region); stride 0 repeats one row (a scalar operand).
struct Rows {
  const float* base = nullptr;
  const int32_t* idx = nullptr;
  int64_t stride = 0;
  const float* operator()(int64_t i) const {
    return base + (idx != nullptr ? static_cast<int64_t>(idx[i]) : i) * stride;
  }
};

// Gather-reduce kernels: each call folds rows [i0, i1) — one key's slots of
// a chunk — into acc[0, n), the accumulator columns [c0, c0 + n). Every
// column is one add / multiply-add / max chain over the rows in ascending order,
// starting from acc's current value; an empty range leaves acc untouched.
// The multiply-add is fused (written fma below) in the AVX2 bodies and in
// the scalar ones wherever the build targets FMA; a scalar body built
// without FMA rounds the product first.
// acc[j] += x(i)[c0 + j]                            (Reduce::kAdd)
extern void (*AddGather)(float* acc, const Rows& x, int64_t i0, int64_t i1, int64_t c0,
                         int64_t n);
// acc[j] = fma(x(i)[c0 + j], y(i)[0], acc[j])       (Reduce::kAxpy)
// AxpyGroupedGather with k = the row width gives the same bits, but the
// width-1 scale keeps this kernel. One thread on an AVX2 Xeon guest, 41
// alternating reps, p50, same output bits: the grouped kernel with k = width
// ran 1.07-2.44x slower at widths 10 and 16 (degrees 4 and 43), and still
// 1.16-1.31x slower with its vector path widened to a tile inside one
// group; one shared block body with a per-lane-group scale flag was slower
// on every shape (2-3x at width 16, degree 4), even force-inlined.
extern void (*AxpyGather)(float* acc, const Rows& x, const Rows& y, int64_t i0, int64_t i1,
                          int64_t c0, int64_t n);
// acc[j] = fma(x(i)[c0 + j], y(i)[(c0 + j) / k], acc[j])
//                                                   (Reduce::kAxpy, grouped:
// y(i) has one scale per group of k columns, the GIR's grouped broadcast).
// Column tiles split anywhere: column c0 + j reads its own group's scale.
// Width-1 scales stay on AxpyGather (measured above), not k = width here.
extern void (*AxpyGroupedGather)(float* acc, const Rows& x, const Rows& y, int64_t i0,
                                 int64_t i1, int64_t c0, int64_t n, int64_t k);
// acc[j] = fma(x(i)[c0 + j], y(i)[c0 + j], acc[j])  (Reduce::kMulAdd)
extern void (*MulAddGather)(float* acc, const Rows& x, const Rows& y, int64_t i0, int64_t i1,
                            int64_t c0, int64_t n);
// acc[j] = std::max(acc[j], x(i)[c0 + j])           (Reduce::kMax)
// acc is kept on a tie (so of +0 and -0 the earlier one wins) and when
// either value is NaN: bit for bit what std::max(acc, x) gives.
extern void (*MaxGather)(float* acc, const Rows& x, int64_t i0, int64_t i1, int64_t c0,
                         int64_t n);

// The gather kernels of one ISA, so tests can run each variant directly.
struct GatherKernels {
  decltype(AddGather) add;
  decltype(AxpyGather) axpy;
  decltype(AxpyGroupedGather) axpy_grouped;
  decltype(MulAddGather) mul_add;
  decltype(MaxGather) max;
};
// The portable bodies (always available) and the AVX2+FMA ones (null when
// the CPU or the compiler lacks them).
const GatherKernels& ScalarGatherKernels();
const GatherKernels* Avx2GatherKernels();

// x[i] *= s                            (AggMean finalization)
extern void (*ScaleRow)(float* x, float s, int64_t n);

// Dense-GEMM micro-kernels (every tile of ops.cc's GEMMs). C[rows][cols] =
// A[rows][k] @ B[k][cols] over k steps, row-major B and C (B's step rows
// strided by ldb, C rows by ldo). A element (r, s) sits at
// pa[r * lda + s * astep]: lda = row length and astep = 1 read A, lda = 1
// and astep = row length read Aᵀ in place, which is how Matmul and
// MatmulTransposeA share one kernel. With `accumulate` the accumulators
// start from C's current contents instead of zero, so a long k range can be
// split into chunks that each keep their slab of A in L1. Written as
// explicit intrinsics because the shape that makes a GEMM fast — a 4-row ×
// 16-column block of accumulators living in 8 vector registers while each
// streamed B row is reused 4 times — is exactly the shape autovectorizers
// lose when the strides are runtime values (left to them, the narrow column
// tails even rounded differently per row-block shape under -O3). Every
// output element is one step-ascending fma chain (a float store and reload
// between chunks is exact; a scalar body built without FMA rounds the
// product first), so results are deterministic across row counts, column
// splits, chunkings and threads.
// The 16-column panels:
extern void (*GemmTile4x16)(const float* pa, int64_t lda, int64_t astep, const float* pb,
                            int64_t ldb, float* po, int64_t ldo, int64_t k, bool accumulate);
extern void (*GemmTile1x16)(const float* pa, int64_t astep, const float* pb, int64_t ldb,
                            float* po, int64_t k, bool accumulate);
// The column tails: n in [1, 8] columns, one vector accumulator per row. No
// load or store touches B's or C's columns past n.
extern void (*GemmTile4xN)(const float* pa, int64_t lda, int64_t astep, const float* pb,
                           int64_t ldb, float* po, int64_t ldo, int64_t k, int64_t n,
                           bool accumulate);
extern void (*GemmTile1xN)(const float* pa, int64_t astep, const float* pb, int64_t ldb,
                           float* po, int64_t k, int64_t n, bool accumulate);

// The GEMM kernels of one ISA, so tests can run each variant directly.
struct GemmKernels {
  decltype(GemmTile4x16) tile4x16;
  decltype(GemmTile1x16) tile1x16;
  decltype(GemmTile4xN) tile4xn;
  decltype(GemmTile1xN) tile1xn;
};
const GemmKernels& ScalarGemmKernels();
const GemmKernels* Avx2GemmKernels();

// Dropout on kDropoutLanes xoshiro256** streams (ops::Dropout). Lane j's
// state is lanes.words[0..3][j]. The elements [0, 8 * block) split into
// lane blocks: lane j draws elements [j * block, (j + 1) * block), one draw
// each, in order. The serial tail [8 * block, 8 * block + tail) then
// continues from lane 7's end state, which is where lane 7 is left on
// return. With lane j started j * block draws into one stream (RngJump),
// the call draws exactly what 8 * block + tail successive draws would.
// Element i with draw u keeps when u >> 11 >= threshold: keep_i =
// keep_scale if so, else 0.0f; out[i] = x[i] * keep_i. threshold must not
// exceed 2^53. The AVX2 body steps all 8 lanes at once (two 4-lane ymm
// states, the multiplies by 5 and 9 as shift+add) and transposes each
// 8-step × 8-lane tile of keep values so that every lane writes 8
// consecutive elements; the scalar body steps 8 independent chains. Integer
// draws and one multiply per element: both give the same bits.
constexpr int kDropoutLanes = 8;
struct XoshiroLanes {
  uint64_t words[4][kDropoutLanes];
};
extern void (*DropoutLanes)(const float* x, float* out, int64_t block, int64_t tail,
                            uint64_t threshold, float keep_scale, XoshiroLanes& lanes);

// The dropout kernel of one ISA, so tests can run each variant directly.
struct DropoutKernels {
  decltype(DropoutLanes) lanes;
};
const DropoutKernels& ScalarDropoutKernels();
const DropoutKernels* Avx2DropoutKernels();

// out[i] = y[i] > 0 ? g[i] : g[i] * (y[i] + alpha)   (ELU's backward from its
// output). A blend, not a branch: on random signs a branch mispredicts about
// half the time.
extern void (*EluGradRow)(float* out, const float* g, const float* y, float alpha, int64_t n);

}  // namespace simd
}  // namespace seastar

#endif  // SRC_TENSOR_SIMD_H_

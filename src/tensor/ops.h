// Dense tensor kernels. These are the "DL backend" operators that the paper
// delegates to PyTorch: GEMM for the per-vertex linear transforms, elementwise
// math, row reductions, softmax/log-softmax for the classifier head, and the
// row gather/scatter primitives that the baseline (DGL-like / PyG-like)
// executors use to materialize edge tensors.
//
// All kernels are single-threaded except Matmul, which parallelizes over rows
// via the shared thread pool — mirroring how cuBLAS/cuDNN calls dominate both
// the paper's systems equally and are not the differentiating factor.
#ifndef SRC_TENSOR_OPS_H_
#define SRC_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace seastar {
namespace ops {

// ---- Construction -----------------------------------------------------------------------------

// Uniform in [lo, hi).
Tensor RandomUniform(std::vector<int64_t> shape, float lo, float hi, Rng& rng);
// Gaussian with the given mean/stddev.
Tensor RandomNormal(std::vector<int64_t> shape, float mean, float stddev, Rng& rng);
// Glorot/Xavier-uniform initialization for a [fan_in, fan_out] weight matrix.
Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng& rng);

// ---- Elementwise (same shape, or rhs a scalar tensor of shape {1}) -----------------------------
// Each op's math is its functor in src/tensor/pointwise.h, shared with the
// GIR pointwise table of every executor.

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float slope);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
// ELU: x > 0 ? x : alpha * (exp(x) - 1).
Tensor Elu(const Tensor& a, float alpha = 1.0f);
// Gradient helpers.
Tensor ReluGrad(const Tensor& grad_out, const Tensor& input);
Tensor EluGradFromOutput(const Tensor& grad_out, const Tensor& output, float alpha = 1.0f);

// Broadcast a [D] (or {1}) tensor across the rows of a [N, D] tensor.
Tensor AddRowBroadcast(const Tensor& matrix, const Tensor& row);
// Broadcast a [N, 1] column across the columns of a [N, D] tensor.
Tensor MulColBroadcast(const Tensor& matrix, const Tensor& col);

// ---- Linear algebra ----------------------------------------------------------------------------

// [N, K] x [K, M] -> [N, M]. Parallel over N.
Tensor Matmul(const Tensor& a, const Tensor& b);
// [N, K] x [M, K]^T -> [N, M].
Tensor MatmulTransposeB(const Tensor& a, const Tensor& b);
// [N, K]^T x [N, M] -> [K, M] (used for weight gradients).
Tensor MatmulTransposeA(const Tensor& a, const Tensor& b);
// Grouped row dot: [N, g * k] x [g, k] -> [N, g], out[n, c] = sum_i
// a[n, c * k + i] * b[c, i] — a per-group [N, k] x [k, 1] GEMM, one
// i-ascending fma chain per output (GAT's attention scores of all heads).
Tensor GroupedRowDot(const Tensor& a, const Tensor& b);
// Its gradients for an output gradient [N, g]: with respect to a,
// [N, g * k] (grad[n, c] * b[c, i]), and to b, [g, k] (n-ascending sums of
// a[n, c * k + i] * grad[n, c]). Each group computes what Matmul's backward
// computes for the per-group GEMM.
Tensor GroupedRowDotGradA(const Tensor& grad, const Tensor& b);
Tensor GroupedRowDotGradB(const Tensor& a, const Tensor& grad);
// 2-D transpose.
Tensor Transpose(const Tensor& a);

// ---- Reductions --------------------------------------------------------------------------------

float SumAll(const Tensor& a);
// [N, D] -> [N, 1]: per-row sum.
Tensor RowSum(const Tensor& a);
// [N, D] -> [D]: column sum (bias gradients).
Tensor ColSum(const Tensor& a);
// Per-row argmax of a [N, D] tensor.
std::vector<int32_t> RowArgmax(const Tensor& a);

// ---- Softmax / losses ---------------------------------------------------------------------------

// Numerically stable row softmax / log-softmax of a [N, D] tensor.
Tensor Softmax(const Tensor& a);
Tensor LogSoftmax(const Tensor& a);
// Mean negative log-likelihood over rows listed in `mask_rows` (all rows when
// empty), given log-probabilities [N, C] and labels [N].
float NllLoss(const Tensor& log_probs, const std::vector<int32_t>& labels,
              const std::vector<int32_t>& mask_rows);
// Gradient of the masked-mean NLL w.r.t. the *logits* when combined with
// LogSoftmax (the fused cross-entropy backward).
Tensor CrossEntropyGrad(const Tensor& log_probs, const std::vector<int32_t>& labels,
                        const std::vector<int32_t>& mask_rows);

// ---- Dropout ------------------------------------------------------------------------------------

// Inverted dropout: zeroes with prob p, scales survivors by 1/(1-p):
// out[i] = a[i] * keep_i, keep_i 0 or 1/(1-p). Element i drops exactly when
// the i-th of numel() successive NextBernoulli(p) calls would be true, and
// the Rng ends where those calls would leave it (p = 0 draws nothing), so
// checkpointed streams replay identically. A second call on a copy of the
// stream state the first one started from draws the same keep values, which
// is how ag::Dropout's backward forms g[i] * keep_i without a stored mask.
// One fused pass (simd::DropoutLanes) draws and applies the keep values: 8
// xoshiro lanes, each jumped (RngJump) to its block of numel() / 8 draws,
// then a serial tail.
// Calls with fewer than kDropoutMinLaneBlock elements per lane skip the
// jump and draw everything on the serial tail: the jump's fixed cost
// would exceed what the lanes save.
inline constexpr int64_t kDropoutMinLaneBlock = 512;
Tensor Dropout(const Tensor& a, float p, Rng& rng);

// ---- Misc ---------------------------------------------------------------------------------------

// Select a contiguous row range [begin, end).
Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end);

}  // namespace ops
}  // namespace seastar

#endif  // SRC_TENSOR_OPS_H_

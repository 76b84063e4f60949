// Scalar/vector evaluation of pointwise GIR ops, shared by the fused units'
// edge prologue and key-side ops and by the baseline executors, so
// all backends compute identical arithmetic (differences between systems must
// come from strategy, not math). Each elementwise op's math is its functor in
// src/tensor/pointwise.h, which the dense tensor ops use too; this header
// maps an OpKind onto it and holds only the width reductions itself.
#ifndef SRC_EXEC_POINTWISE_H_
#define SRC_EXEC_POINTWISE_H_

#include <cstdint>

#include "src/common/logging.h"
#include "src/gir/ir.h"
#include "src/tensor/pointwise.h"

namespace seastar {

// The operand rows of one application: out[0..w) = op(a, b).
struct PointwiseRows {
  float* out;
  const float* a;
  const float* b;
};

// Applies one op to n rows with a single dispatch on `kind`: for each
// i < n, rows(i) returns application i's rows, and out = op(a, b) with
// (grouped) broadcast on either operand. The edge-batch prologue of a fused
// unit (n = a batch) and PointwiseApply (n = 1) share this one definition
// of every op, so both compute the same bits. For kDotProduct /
// kReduceWidthSum, w is the output width: w groups of wa / w inputs, each
// summed in ascending order.
template <typename Rows>
inline void PointwiseApplyRows(OpKind kind, float attr, int64_t n, int32_t w, int32_t wa,
                               int32_t wb, const Rows& rows) {
  // The helpers are force-inlined so each instantiation is one flat
  // function per op: an out-of-line call per row costs more than the op.
  const auto each = [n, &rows](auto body) __attribute__((always_inline)) {
    for (int64_t i = 0; i < n; ++i) {
      const PointwiseRows r = rows(i);
      body(r.out, r.a, r.b);
    }
  };
  // Width-1 rows (attention scalars of a one-head layer) skip the column
  // loop.
  const auto unary = [&](auto f) __attribute__((always_inline)) {
    if (w == 1) {
      each([&](float* out, const float* a, const float*)
               __attribute__((always_inline)) { out[0] = f(a[0]); });
      return;
    }
    each([&](float* out, const float* a, const float*) __attribute__((always_inline)) {
      for (int32_t j = 0; j < w; ++j) {
        out[j] = f(a[j]);
      }
    });
  };
  const auto binary = [&](auto f) __attribute__((always_inline)) {
    if (w == 1) {  // Both operands width 1 too: nothing to broadcast.
      each([&](float* out, const float* a, const float* b)
               __attribute__((always_inline)) { out[0] = f(a[0], b[0]); });
      return;
    }
    each([&](float* out, const float* a, const float* b) __attribute__((always_inline)) {
      BinaryBroadcastLoop(out, w, a, wa, b, wb, f);
    });
  };
  switch (kind) {
    case OpKind::kAdd:
      binary(pointwise::Add{});
      return;
    case OpKind::kSub:
      binary(pointwise::Sub{});
      return;
    case OpKind::kMul:
      binary(pointwise::Mul{});
      return;
    case OpKind::kDiv:
      binary(pointwise::Div{});
      return;
    case OpKind::kEqualMask:
      binary(pointwise::EqualMask{});
      return;
    case OpKind::kReluGrad:
      binary(pointwise::ReluGrad{});
      return;
    case OpKind::kLeakyReluGrad:
      binary(pointwise::LeakyReluGrad{attr});
      return;
    case OpKind::kSigmoidGrad:
      binary(pointwise::SigmoidGrad{});
      return;
    case OpKind::kTanhGrad:
      binary(pointwise::TanhGrad{});
      return;
    case OpKind::kNeg:
      unary(pointwise::Neg{});
      return;
    case OpKind::kExp:
      unary(pointwise::Exp{});
      return;
    case OpKind::kLog:
      unary(pointwise::Log{});
      return;
    case OpKind::kRelu:
      unary(pointwise::Relu{});
      return;
    case OpKind::kLeakyRelu:
      unary(pointwise::LeakyRelu{attr});
      return;
    case OpKind::kSigmoid:
      unary(pointwise::Sigmoid{});
      return;
    case OpKind::kTanh:
      unary(pointwise::Tanh{});
      return;
    case OpKind::kIdentity:  // Broadcasts a width-1 input.
      each([&](float* out, const float* a, const float*) {
        for (int32_t j = 0; j < w; ++j) {
          out[j] = a[wa == 1 ? 0 : j];
        }
      });
      return;
    case OpKind::kDotProduct:  // b is a full row, or broadcasts per group.
      each([&](float* out, const float* a, const float* b) {
        const int32_t k = wa / w;
        for (int32_t c = 0; c < w; ++c) {
          float acc = 0.0f;
          for (int32_t j = c * k; j < (c + 1) * k; ++j) {
            acc += a[j] * b[wb == wa ? j : (wb == 1 ? 0 : c)];
          }
          out[c] = acc;
        }
      });
      return;
    case OpKind::kReduceWidthSum:
      each([&](float* out, const float* a, const float*) {
        const int32_t k = wa / w;
        for (int32_t c = 0; c < w; ++c) {
          float acc = 0.0f;
          for (int32_t j = c * k; j < (c + 1) * k; ++j) {
            acc += a[j];
          }
          out[c] = acc;
        }
      });
      return;
    default:
      SEASTAR_LOG(Fatal) << "not a pointwise op: " << OpKindName(kind);
  }
}

// out[0..w) = op(a, b) with width-1 broadcast on either operand (one
// application of PointwiseApplyRows).
inline void PointwiseApply(OpKind kind, float attr, float* out, int32_t w, const float* a,
                           int32_t wa, const float* b, int32_t wb) {
  PointwiseApplyRows(kind, attr, 1, w, wa, wb,
                     [&](int64_t) { return PointwiseRows{out, a, b}; });
}

}  // namespace seastar

#endif  // SRC_EXEC_POINTWISE_H_

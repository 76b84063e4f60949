// Scalar/vector evaluation of pointwise GIR ops, shared by the fused units'
// edge prologue and key-side ops and by the baseline executors, so
// all backends compute identical arithmetic (differences between systems must
// come from strategy, not math).
#ifndef SRC_EXEC_POINTWISE_H_
#define SRC_EXEC_POINTWISE_H_

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/common/logging.h"
#include "src/gir/ir.h"

namespace seastar {

// Applies a binary op with the broadcast pattern hoisted out of the element
// loop: each variant is a tight loop over constant-stride operands the
// compiler can autovectorize, instead of a per-element `wa == 1 ? 0 : j`
// select. Semantics identical to the indexed form for every width mix.
template <typename F>
__attribute__((always_inline)) inline void BinaryBroadcastLoop(float* out, int32_t w,
                                                               const float* a, int32_t wa,
                                                               const float* b, int32_t wb, F f) {
  if (wa == w && wb == 1) {
    const float s = b[0];
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(a[j], s);
    }
  } else if (wa == 1 && wb == w) {
    const float s = a[0];
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(s, b[j]);
    }
  } else if (wa == w && wb == w) {
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(a[j], b[j]);
    }
  } else {
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(a[wa == 1 ? 0 : j], b[wb == 1 ? 0 : j]);
    }
  }
}

// `take ? a : b` without a branch. The rectifier ops select on the sign of
// data, which a branch mispredicts about half the time (GAT's attention
// logits); the result is bit-for-bit the selected operand either way.
inline float SelectIf(bool take, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(take);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(a) & mask) |
                              (std::bit_cast<uint32_t>(b) & ~mask));
}

// The operand rows of one application: out[0..w) = op(a, b).
struct PointwiseRows {
  float* out;
  const float* a;
  const float* b;
};

// Applies one op to n rows with a single dispatch on `kind`: for each
// i < n, rows(i) returns application i's rows, and out = op(a, b) with
// width-1 broadcast on either operand. The edge-batch prologue of a fused
// unit (n = a batch) and PointwiseApply (n = 1) share this one definition
// of every op, so both compute the same bits. For kDotProduct /
// kReduceWidthSum, w is the *input* width and out has width 1.
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
  // Width-1 rows (GAT's attention scalars) skip the column loop.
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
      binary([](float x, float y) { return x + y; });
      return;
    case OpKind::kSub:
      binary([](float x, float y) { return x - y; });
      return;
    case OpKind::kMul:
      binary([](float x, float y) { return x * y; });
      return;
    case OpKind::kDiv:
      binary([](float x, float y) { return x / y; });
      return;
    case OpKind::kEqualMask:
      binary([](float x, float y) { return x == y ? 1.0f : 0.0f; });
      return;
    case OpKind::kReluGrad:  // (grad, y)
      binary([](float g, float y) { return SelectIf(y > 0.0f, g, 0.0f); });
      return;
    case OpKind::kLeakyReluGrad:
      binary([attr](float g, float y) { return SelectIf(y > 0.0f, g, attr * g); });
      return;
    case OpKind::kSigmoidGrad:
      binary([](float g, float y) { return g * y * (1.0f - y); });
      return;
    case OpKind::kTanhGrad:
      binary([](float g, float y) { return g * (1.0f - y * y); });
      return;
    case OpKind::kNeg:
      unary([](float x) { return -x; });
      return;
    case OpKind::kExp:
      unary([](float x) { return std::exp(x); });
      return;
    case OpKind::kLog:
      unary([](float x) { return std::log(x); });
      return;
    case OpKind::kRelu:
      unary([](float x) { return SelectIf(x > 0.0f, x, 0.0f); });
      return;
    case OpKind::kLeakyRelu:
      unary([attr](float x) { return SelectIf(x > 0.0f, x, attr * x); });
      return;
    case OpKind::kSigmoid:
      unary([](float x) { return 1.0f / (1.0f + std::exp(-x)); });
      return;
    case OpKind::kTanh:
      unary([](float x) { return std::tanh(x); });
      return;
    case OpKind::kIdentity:  // Broadcasts a width-1 input.
      each([&](float* out, const float* a, const float*) {
        for (int32_t j = 0; j < w; ++j) {
          out[j] = a[wa == 1 ? 0 : j];
        }
      });
      return;
    case OpKind::kDotProduct:
      each([&](float* out, const float* a, const float* b) {
        float acc = 0.0f;
        for (int32_t j = 0; j < wa; ++j) {
          acc += a[j] * b[wb == 1 ? 0 : j];
        }
        out[0] = acc;
      });
      return;
    case OpKind::kReduceWidthSum:
      each([&](float* out, const float* a, const float*) {
        float acc = 0.0f;
        for (int32_t j = 0; j < wa; ++j) {
          acc += a[j];
        }
        out[0] = acc;
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

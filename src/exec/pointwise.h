// Scalar/vector evaluation of pointwise GIR ops, shared by the fused units'
// edge prologue and key-side ops and by the baseline executors, so
// all backends compute identical arithmetic (differences between systems must
// come from strategy, not math). Each elementwise op's math is its functor in
// src/tensor/pointwise.h, which the dense tensor ops use too; this header
// maps an OpKind onto it and holds only the width reductions itself.
//
// The row kernels pick everything that does not change from row to row
// once per call: the op, the broadcast shape of its operands (full/full,
// full/scalar, scalar/full, else grouped or indexed) and, for the widths
// GAT's edge prologue runs (1 and 8), the row width as a compile-time
// constant. At width 8 the functors that take a Float4
// (src/tensor/pointwise.h) run four columns per vector instruction, so one
// row of one op is a few instructions; other widths and ops run the same
// loops on floats. Every element is still the functor applied to the same
// two floats, so the shape and width chosen never change a bit.
#ifndef SRC_EXEC_POINTWISE_H_
#define SRC_EXEC_POINTWISE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

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

// Calls body(std::integral_constant<int32_t, W>{}) with W = w when w is a
// width GAT's edge prologue runs (1 or 8), else with W = 0 (a runtime
// width): the row kernels' compile-time widths.
template <typename Body>
__attribute__((always_inline)) inline void WithRowWidth(int32_t w, Body body) {
  switch (w) {
    case 1:
      body(std::integral_constant<int32_t, 1>{});
      return;
    case 8:
      body(std::integral_constant<int32_t, 8>{});
      return;
    default:
      body(std::integral_constant<int32_t, 0>{});
  }
}

namespace pointwise_rows {

// How a binary op's operands meet its output row of width w.
enum class Shape : uint8_t {
  kFull,     // Both operands full width.
  kScalarB,  // b has width 1.
  kScalarA,  // a has width 1.
  kGrouped,  // A narrower operand of width g > 1 dividing w (GroupedBroadcast),
             // or any other mix (indexed per element).
};

inline Shape ShapeOf(int32_t w, int32_t wa, int32_t wb) {
  if (wa == w && wb == w) {
    return Shape::kFull;
  }
  if (wa == w && wb == 1) {
    return Shape::kScalarB;
  }
  if (wa == 1 && wb == w) {
    return Shape::kScalarA;
  }
  return Shape::kGrouped;
}

inline Float4 Load4(const float* p) {
  Float4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, Float4 v) { std::memcpy(p, &v, sizeof(v)); }

inline Float4 Splat4(float s) { return Float4{s, s, s, s}; }

// n rows of out = f(a, b) in shape S at width W (0: the runtime width w).
// At a compile-time width (a multiple of 4), an op whose functor takes
// Float4 runs four columns per vector instruction. The operand widths only
// matter to kGrouped, which runs at a runtime width.
template <int32_t W, Shape S, typename F, typename Rows>
__attribute__((always_inline)) inline void BinaryRows(F f, int64_t n, int32_t w, int32_t wa,
                                                      int32_t wb, const Rows& rows) {
  if constexpr (W > 0) {
    w = W;
  }
  for (int64_t i = 0; i < n; ++i) {
    const PointwiseRows r = rows(i);
    float* __restrict__ out = r.out;
    const float* __restrict__ a = r.a;
    const float* __restrict__ b = r.b;
    if constexpr (W % 4 == 0 && W > 0 && S != Shape::kGrouped &&
                  std::is_invocable_v<F, Float4, Float4>) {
      for (int32_t j = 0; j < W; j += 4) {
        const Float4 x = S == Shape::kScalarA ? Splat4(a[0]) : Load4(a + j);
        const Float4 y = S == Shape::kScalarB ? Splat4(b[0]) : Load4(b + j);
        Store4(out + j, f(x, y));
      }
    } else if constexpr (S == Shape::kFull) {
      for (int32_t j = 0; j < w; ++j) {
        out[j] = f(a[j], b[j]);
      }
    } else if constexpr (S == Shape::kScalarB) {
      const float s = b[0];
      for (int32_t j = 0; j < w; ++j) {
        out[j] = f(a[j], s);
      }
    } else if constexpr (S == Shape::kScalarA) {
      const float s = a[0];
      for (int32_t j = 0; j < w; ++j) {
        out[j] = f(s, b[j]);
      }
    } else if (wa == w && wb > 1 && w % wb == 0) {  // b's element c meets a's group c.
      const int32_t k = w / wb;
      for (int32_t c = 0; c < wb; ++c) {
        const float s = b[c];
        for (int32_t j = c * k; j < (c + 1) * k; ++j) {
          out[j] = f(a[j], s);
        }
      }
    } else if (wb == w && wa > 1 && w % wa == 0) {
      const int32_t k = w / wa;
      for (int32_t c = 0; c < wa; ++c) {
        const float s = a[c];
        for (int32_t j = c * k; j < (c + 1) * k; ++j) {
          out[j] = f(s, b[j]);
        }
      }
    } else {
      for (int32_t j = 0; j < w; ++j) {
        out[j] = f(a[wa == 1 ? 0 : j], b[wb == 1 ? 0 : j]);
      }
    }
  }
}

// BinaryRows in the operands' shape, at w's compile-time width if it has
// one (the grouped shapes run at a runtime width).
template <typename F, typename Rows>
__attribute__((always_inline)) inline void Binary(F f, int64_t n, int32_t w, int32_t wa, int32_t wb,
                                                  const Rows& rows) {
  const auto at_width = [&](auto shape) __attribute__((always_inline)) {
    WithRowWidth(w, [&](auto width) __attribute__((always_inline)) {
      BinaryRows<width(), shape()>(f, n, w, wa, wb, rows);
    });
  };
  switch (ShapeOf(w, wa, wb)) {
    case Shape::kFull:
      at_width(std::integral_constant<Shape, Shape::kFull>{});
      return;
    case Shape::kScalarB:
      at_width(std::integral_constant<Shape, Shape::kScalarB>{});
      return;
    case Shape::kScalarA:
      at_width(std::integral_constant<Shape, Shape::kScalarA>{});
      return;
    case Shape::kGrouped:
      BinaryRows<0, Shape::kGrouped>(f, n, w, wa, wb, rows);
      return;
  }
}

// n rows of out = f(a) at width W (0: the runtime width w).
template <int32_t W, typename F, typename Rows>
__attribute__((always_inline)) inline void UnaryRows(F f, int64_t n, int32_t w, const Rows& rows) {
  if constexpr (W > 0) {
    w = W;
  }
  for (int64_t i = 0; i < n; ++i) {
    const PointwiseRows r = rows(i);
    float* __restrict__ out = r.out;
    const float* __restrict__ a = r.a;
    if constexpr (W % 4 == 0 && W > 0 && std::is_invocable_v<F, Float4>) {
      for (int32_t j = 0; j < W; j += 4) {
        Store4(out + j, f(Load4(a + j)));
      }
    } else {
      for (int32_t j = 0; j < w; ++j) {
        out[j] = f(a[j]);
      }
    }
  }
}

template <typename F, typename Rows>
__attribute__((always_inline)) inline void Unary(F f, int64_t n, int32_t w, const Rows& rows) {
  WithRowWidth(w, [&](auto width) __attribute__((always_inline)) {
    UnaryRows<width()>(f, n, w, rows);
  });
}

// n rows of the grouped width reduction: out[c] sums, in ascending order,
// the k = wa / w products a[j] * b[j'] (each step a pointwise::MulAdd) or
// the plain a[j] (kSumOnly) of group c, where b is full width (j' = j),
// width 1 (j' = 0) or one value per group (j' = c). W and K fix w and k at
// compile time (0: runtime).
template <int32_t W, int32_t K, bool kSumOnly, typename Rows>
__attribute__((always_inline)) inline void ReduceRows(int64_t n, int32_t w, int32_t wa,
                                                      int32_t wb, const Rows& rows) {
  if constexpr (W > 0) {
    w = W;
  }
  const int32_t k = K > 0 ? K : wa / w;
  const int32_t full = kSumOnly ? 0 : wb == wa ? 1 : 0;  // b's index: j, else 0 or c.
  const int32_t per_group = wb == 1 ? 0 : 1;
  for (int64_t i = 0; i < n; ++i) {
    const PointwiseRows r = rows(i);
    float* __restrict__ out = r.out;
    const float* __restrict__ a = r.a;
    const float* __restrict__ b = r.b;
    for (int32_t c = 0; c < w; ++c) {
      float acc = 0.0f;
      for (int32_t j = c * k; j < (c + 1) * k; ++j) {
        if constexpr (kSumOnly) {
          acc += a[j];
        } else if constexpr (K > 0) {  // Compiled only for a full-width b.
          acc = pointwise::MulAdd(a[j], b[j], acc);
        } else {
          acc = pointwise::MulAdd(a[j], b[full ? j : per_group * c], acc);
        }
      }
      out[c] = acc;
    }
  }
}

}  // namespace pointwise_rows

// Applies one op to n rows with a single dispatch on `kind`, the broadcast
// shape and the width: for each i < n, rows(i) returns application i's rows,
// and out = op(a, b) with (grouped) broadcast on either operand. The
// edge-batch prologue of a fused unit (n = a batch) and PointwiseApply
// (n = 1) share this one definition of every op, so both compute the same
// bits. For kDotProduct / kReduceWidthSum, w is the output width: w groups
// of wa / w inputs, each summed in ascending order.
template <typename Rows>
inline void PointwiseApplyRows(OpKind kind, float attr, int64_t n, int32_t w, int32_t wa,
                               int32_t wb, const Rows& rows) {
  using namespace pointwise_rows;
  switch (kind) {
    case OpKind::kAdd:
      Binary(pointwise::Add{}, n, w, wa, wb, rows);
      return;
    case OpKind::kSub:
      Binary(pointwise::Sub{}, n, w, wa, wb, rows);
      return;
    case OpKind::kMul:
      Binary(pointwise::Mul{}, n, w, wa, wb, rows);
      return;
    case OpKind::kDiv:
      Binary(pointwise::Div{}, n, w, wa, wb, rows);
      return;
    case OpKind::kEqualMask:
      Binary(pointwise::EqualMask{}, n, w, wa, wb, rows);
      return;
    case OpKind::kReluGrad:
      Binary(pointwise::ReluGrad{}, n, w, wa, wb, rows);
      return;
    case OpKind::kLeakyReluGrad:
      Binary(pointwise::LeakyReluGrad{attr}, n, w, wa, wb, rows);
      return;
    case OpKind::kSigmoidGrad:
      Binary(pointwise::SigmoidGrad{}, n, w, wa, wb, rows);
      return;
    case OpKind::kTanhGrad:
      Binary(pointwise::TanhGrad{}, n, w, wa, wb, rows);
      return;
    case OpKind::kNeg:
      Unary(pointwise::Neg{}, n, w, rows);
      return;
    case OpKind::kExp:
      Unary(pointwise::Exp{}, n, w, rows);
      return;
    case OpKind::kLog:
      Unary(pointwise::Log{}, n, w, rows);
      return;
    case OpKind::kRelu:
      Unary(pointwise::Relu{}, n, w, rows);
      return;
    case OpKind::kLeakyRelu:
      Unary(pointwise::LeakyRelu{attr}, n, w, rows);
      return;
    case OpKind::kSigmoid:
      Unary(pointwise::Sigmoid{}, n, w, rows);
      return;
    case OpKind::kTanh:
      Unary(pointwise::Tanh{}, n, w, rows);
      return;
    case OpKind::kIdentity:  // A copy, or a width-1 input broadcast.
      if (wa == 1) {
        for (int64_t i = 0; i < n; ++i) {
          const PointwiseRows r = rows(i);
          std::fill_n(r.out, w, r.a[0]);
        }
      } else {
        Unary([](auto x) { return x; }, n, w, rows);
      }
      return;
    case OpKind::kDotProduct:  // b is a full row, or broadcasts per group.
      if (w == 8 && wa == 64 && wb == 64) {  // GAT's hidden layers: 8 heads of 8.
        ReduceRows<8, 8, false>(n, w, wa, wb, rows);
      } else {
        ReduceRows<0, 0, false>(n, w, wa, wb, rows);
      }
      return;
    case OpKind::kReduceWidthSum:
      ReduceRows<0, 0, true>(n, w, wa, wb, rows);
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

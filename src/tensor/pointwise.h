// The scalar math of every elementwise op, written once. The dense tensor
// ops (src/tensor/ops.cc) and the GIR pointwise table that every executor
// runs (src/exec/pointwise.h) instantiate these same functors, so a dense op
// and its GIR counterpart compute the same bits and a kernel change lands
// once. The OpKind dispatch stays in src/exec: src/tensor does not depend
// on the GIR.
#ifndef SRC_TENSOR_POINTWISE_H_
#define SRC_TENSOR_POINTWISE_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace seastar {

// Four floats as one vector (GCC vector extension; an SSE register on any
// x86-64), and the lane mask a comparison of two of them yields. The
// functors whose math is IEEE arithmetic and selects are templates that
// take a float or a Float4, so the GIR row kernels (src/exec/pointwise.h)
// apply them to four columns at once; every lane computes the bits the
// float form computes. The libm ones (exp, log, tanh) stay float-only and
// are applied column by column.
using Float4 = float __attribute__((vector_size(16)));
using Mask4 = int32_t __attribute__((vector_size(16)));

// `take ? a : b` without a branch. The rectifier ops select on the sign of
// data, which a branch mispredicts about half the time (GAT's attention
// logits); the result is bit-for-bit the selected operand either way.
inline float SelectIf(bool take, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(take);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(a) & mask) |
                              (std::bit_cast<uint32_t>(b) & ~mask));
}

// The same per lane (a blend: each lane is a or b, bit for bit).
inline Float4 SelectIf(Mask4 take, Float4 a, Float4 b) { return take ? a : b; }

namespace pointwise {

// acc + x * y as every scalar multiply-add chain rounds it: fused where the
// build targets FMA, a rounded multiply then add on baseline builds. Written
// out, not left to contraction, which the optimizer applies per loop shape:
// at -O3 GCC vectorizes the products of a fixed-width dot product and adds
// them unfused, while the same chain at a runtime width contracts.
inline float MulAdd(float x, float y, float acc) {
#if defined(__FMA__)
  return __builtin_fmaf(x, y, acc);
#else
  return acc + x * y;
#endif
}

// ---- Binary: out = f(x, y) ----

struct Add {
  template <typename T>
  T operator()(T x, T y) const {
    return x + y;
  }
};

struct Sub {
  template <typename T>
  T operator()(T x, T y) const {
    return x - y;
  }
};

struct Mul {
  template <typename T>
  T operator()(T x, T y) const {
    return x * y;
  }
};

struct Div {
  template <typename T>
  T operator()(T x, T y) const {
    return x / y;
  }
};

// 1 where the operands are equal, else 0 (AggMax's argmax masks).
struct EqualMask {
  float operator()(float x, float y) const { return x == y ? 1.0f : 0.0f; }
};

// ---- Unary: out = f(x) ----

struct Neg {
  template <typename T>
  T operator()(T x) const {
    return -x;
  }
};

struct Exp {
  float operator()(float x) const { return std::exp(x); }
};

struct Log {
  float operator()(float x) const { return std::log(x); }
};

struct Relu {
  template <typename T>
  T operator()(T x) const {
    return SelectIf(x > T{}, x, T{});
  }
};

struct LeakyRelu {
  float slope;
  template <typename T>
  T operator()(T x) const {
    return SelectIf(x > T{}, x, slope * x);
  }
};

struct Sigmoid {
  float operator()(float x) const { return 1.0f / (1.0f + std::exp(-x)); }
};

struct Tanh {
  float operator()(float x) const { return std::tanh(x); }
};

// A branch, not SelectIf: the select would evaluate exp for positive
// inputs too. ops::Elu applies it only to the inputs that are not > 0.
struct Elu {
  float alpha;
  float operator()(float x) const { return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f); }
};

// ---- Gradients: out = f(g, saved) for upstream gradient g ----

// Saved value: the forward *input* x.
struct ReluGrad {
  template <typename T>
  T operator()(T g, T x) const {
    return SelectIf(x > T{}, g, T{});
  }
};

// Saved value: the forward *input* x.
struct LeakyReluGrad {
  float slope;
  template <typename T>
  T operator()(T g, T x) const {
    return SelectIf(x > T{}, g, slope * g);
  }
};

// Saved value: the forward *output* y.
struct SigmoidGrad {
  template <typename T>
  T operator()(T g, T y) const {
    return g * y * (1.0f - y);
  }
};

// Saved value: the forward *output* y.
struct TanhGrad {
  template <typename T>
  T operator()(T g, T y) const {
    return g * (1.0f - y * y);
  }
};

}  // namespace pointwise
}  // namespace seastar

#endif  // SRC_TENSOR_POINTWISE_H_

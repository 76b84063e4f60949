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

// `take ? a : b` without a branch. The rectifier ops select on the sign of
// data, which a branch mispredicts about half the time (GAT's attention
// logits); the result is bit-for-bit the selected operand either way.
inline float SelectIf(bool take, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(take);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(a) & mask) |
                              (std::bit_cast<uint32_t>(b) & ~mask));
}

// Applies a binary op with the broadcast pattern hoisted out of the element
// loop: each variant is a tight loop over constant-stride operands the
// compiler can autovectorize, instead of a per-element `wa == 1 ? 0 : j`
// select. Semantics identical to the indexed form for every width mix. A
// narrower operand of width g > 1 dividing w broadcasts group-wise: its
// element c meets the wide operand's elements [c * w / g, (c + 1) * w / g)
// (the GIR width rule, GroupedBroadcast in src/gir/ir.h).
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
  } else if (wa == w && wb > 1 && w % wb == 0) {
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

namespace pointwise {

// ---- Binary: out = f(x, y) ----

struct Add {
  float operator()(float x, float y) const { return x + y; }
};

struct Sub {
  float operator()(float x, float y) const { return x - y; }
};

struct Mul {
  float operator()(float x, float y) const { return x * y; }
};

struct Div {
  float operator()(float x, float y) const { return x / y; }
};

// 1 where the operands are equal, else 0 (AggMax's argmax masks).
struct EqualMask {
  float operator()(float x, float y) const { return x == y ? 1.0f : 0.0f; }
};

// ---- Unary: out = f(x) ----

struct Neg {
  float operator()(float x) const { return -x; }
};

struct Exp {
  float operator()(float x) const { return std::exp(x); }
};

struct Log {
  float operator()(float x) const { return std::log(x); }
};

struct Relu {
  float operator()(float x) const { return SelectIf(x > 0.0f, x, 0.0f); }
};

struct LeakyRelu {
  float slope;
  float operator()(float x) const { return SelectIf(x > 0.0f, x, slope * x); }
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
  float operator()(float g, float x) const { return SelectIf(x > 0.0f, g, 0.0f); }
};

// Saved value: the forward *input* x.
struct LeakyReluGrad {
  float slope;
  float operator()(float g, float x) const { return SelectIf(x > 0.0f, g, slope * g); }
};

// Saved value: the forward *output* y.
struct SigmoidGrad {
  float operator()(float g, float y) const { return g * y * (1.0f - y); }
};

// Saved value: the forward *output* y.
struct TanhGrad {
  float operator()(float g, float y) const { return g * (1.0f - y * y); }
};

}  // namespace pointwise
}  // namespace seastar

#endif  // SRC_TENSOR_POINTWISE_H_

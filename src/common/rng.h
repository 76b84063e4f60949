// Deterministic random number generation for graph/feature synthesis.
//
// Benchmarks and tests must be reproducible across runs and platforms, so we
// implement the generators ourselves (SplitMix64 for seeding, xoshiro256** as
// the workhorse) rather than relying on implementation-defined std::
// distributions.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace seastar {

// SplitMix64: tiny generator used to expand a single 64-bit seed into the
// xoshiro state. Public so tests can pin its outputs.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();

 private:
  uint64_t state_;
};

// One xoshiro256** draw: returns the output for the state (s0, s1, s2, s3)
// and advances it. Rng, RngJump and the dropout kernel's scalar lanes all
// step the generator through this one definition.
inline uint64_t XoshiroNext(uint64_t& s0, uint64_t& s1, uint64_t& s2, uint64_t& s3) {
  const uint64_t result = std::rotl(s1 * 5, 7) * 9;
  const uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = std::rotl(s3, 45);
  return result;
}

// Serializable snapshot of an Rng (xoshiro words + Box-Muller cache).
// Restoring it makes the stream continue exactly where the snapshot was
// taken, which is what checkpoint/resume needs for bit-identical training.
struct RngState {
  uint64_t words[4] = {0, 0, 0, 0};
  bool have_cached_gaussian = false;
  double cached_gaussian = 0.0;
};

// Jump-ahead for xoshiro256 by an arbitrary number of draws. The generator's
// state transition T is linear over GF(2)^256, so T^m = q(T) for
// q(x) = x^m mod P(x), P being T's characteristic polynomial (degree 256,
// Cayley-Hamilton). The constructor forms q from a table of x^(2^k) mod P;
// Apply then evaluates q(T) on a state the way xoshiro's own jump() does:
// 256 generator steps, XOR-accumulating the state at q's set coefficients.
// Build q once and apply it to several states to space streams `steps`
// draws apart (Haramoto et al., "Efficient Jump Ahead for F2-Linear Random
// Number Generators", 2008).
class RngJump {
 public:
  explicit RngJump(uint64_t steps);

  // Advances the xoshiro256 state `words` by `steps` draws.
  void Apply(uint64_t words[4]) const;

  // P(x) - x^256, coefficient i in bit i % 64 of word i / 64. Derived by
  // Berlekamp-Massey from the generator's own output and checked by
  // RngTest.JumpConstantsMatchTheGenerator, as is the table below;
  // x^(2^128) mod P is xoshiro256's published JUMP constant.
  static constexpr uint64_t kCharPoly[4] = {0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
                                            0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};
  // kPowers[k] = x^(2^k) mod P, in the same layout.
  static const uint64_t kPowers[64][4];

 private:
  uint64_t poly_[4];  // q(x) = x^steps mod P.
};

// xoshiro256**: fast, high-quality 64-bit PRNG (Blackman & Vigna).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5ea57a2021ull);  // "seastar 2021"

  RngState SaveState() const;
  void RestoreState(const RngState& state);

  // Uniform over the full 64-bit range.
  uint64_t NextUint64();

  // Uniform in [0, bound). bound must be > 0. Uses Lemire's multiply-shift
  // rejection method to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform float in [lo, hi).
  float NextFloat(float lo, float hi);

  // Standard normal via Box-Muller. Deterministic given the seed.
  double NextGaussian();

  // Returns true with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // Advances the stream by `steps` draws: the state afterwards is the one
  // `steps` NextUint64 calls would leave (the Box-Muller cache is kept).
  void Jump(uint64_t steps);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // All weights must be non-negative with a positive sum.
  size_t NextWeighted(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace seastar

#endif  // SRC_COMMON_RNG_H_

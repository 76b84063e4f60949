#include "src/common/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "src/common/logging.h"

namespace seastar {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 seeder(seed);
  for (auto& word : state_) {
    word = seeder.Next();
  }
}

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) {
    state.words[i] = state_[i];
  }
  state.have_cached_gaussian = have_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) {
    state_[i] = state.words[i];
  }
  have_cached_gaussian_ = state.have_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SEASTAR_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless method.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

float Rng::NextFloat(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Guard against log(0).
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  have_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

void Rng::FillDropoutMask(float* mask, int64_t n, double p, float keep_scale) {
  if (p <= 0.0 || p >= 1.0) {
    const float value = p <= 0.0 ? keep_scale : 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      mask[i] = value;
    }
    return;
  }
  // Inlined NextUint64 with the xoshiro words in locals; the sequence is
  // draw-for-draw what the per-element path would produce. The per-element
  // test u < p, with u = x * 2^-53 and x = bits >> 11, is decided on the
  // integer x instead: p * 2^53 is exact (a power-of-two scaling), and for
  // an integer x, x < p * 2^53 holds exactly when x < ceil(p * 2^53). The
  // keep/drop select is a bit mask rather than a ternary, which compiled to
  // a branch that mispredicted on about half the elements at p = 0.5.
  const uint64_t threshold = static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
  const uint32_t keep_bits = std::bit_cast<uint32_t>(keep_scale);
  uint64_t s0 = state_[0];
  uint64_t s1 = state_[1];
  uint64_t s2 = state_[2];
  uint64_t s3 = state_[3];
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t bits = Rotl(s1 * 5, 7) * 9;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
    const uint32_t keep = -static_cast<uint32_t>((bits >> 11) >= threshold);
    mask[i] = std::bit_cast<float>(keep & keep_bits);
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  SEASTAR_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SEASTAR_CHECK_GE(w, 0.0);
    total += w;
  }
  SEASTAR_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;  // Floating-point slop: fall back to the last bucket.
}

}  // namespace seastar

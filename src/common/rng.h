// Deterministic random number generation for graph/feature synthesis.
//
// Benchmarks and tests must be reproducible across runs and platforms, so we
// implement the generators ourselves (SplitMix64 for seeding, xoshiro256** as
// the workhorse) rather than relying on implementation-defined std::
// distributions.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

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

// Serializable snapshot of an Rng (xoshiro words + Box-Muller cache).
// Restoring it makes the stream continue exactly where the snapshot was
// taken, which is what checkpoint/resume needs for bit-identical training.
struct RngState {
  uint64_t words[4] = {0, 0, 0, 0};
  bool have_cached_gaussian = false;
  double cached_gaussian = 0.0;
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

  // mask[i] = 0.0f with probability p, else keep_scale, for i in [0, n).
  // Consumes exactly the draws n successive NextBernoulli(p) calls would and
  // decides each the same way (so checkpointed streams replay identically);
  // batched so the generator state stays in registers across the fill, and
  // branch-free (an integer threshold and a bit-mask select).
  void FillDropoutMask(float* mask, int64_t n, double p, float keep_scale);

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

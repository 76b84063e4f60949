#include "src/common/rng.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "src/common/logging.h"

namespace seastar {
namespace {

// Polynomials over GF(2) of degree < 256, reduced mod P; coefficient i in bit
// i % 64 of word i / 64.
using Poly = std::array<uint64_t, 4>;

// a * x^kShift with the kShift coefficients shifted past x^255 dropped; the
// callers fold those back in (x^256 = P - x^256 mod P).
template <int kShift>
constexpr Poly ShiftUp(const Poly& a) {
  return {a[0] << kShift, (a[1] << kShift) | (a[0] >> (64 - kShift)),
          (a[2] << kShift) | (a[1] >> (64 - kShift)), (a[3] << kShift) | (a[2] >> (64 - kShift))};
}

constexpr Poly Xor(const Poly& a, const Poly& b) {
  return {a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]};
}

// a * x mod P.
constexpr Poly MulX(const Poly& a) {
  const uint64_t reduce = -(a[3] >> 63);
  const uint64_t* p = RngJump::kCharPoly;
  return Xor(ShiftUp<1>(a), {p[0] & reduce, p[1] & reduce, p[2] & reduce, p[3] & reduce});
}

// a * v(x) mod P for each v of degree < 4, indexed by v's coefficient bits.
constexpr std::array<Poly, 16> Multiples(const Poly& a) {
  std::array<Poly, 16> multiples{};
  Poly power = a;  // a * x^k for v's bit k.
  for (int bit = 1; bit < 16; bit <<= 1, power = MulX(power)) {
    for (int v = bit; v < 2 * bit; ++v) {
      multiples[v] = Xor(multiples[v - bit], power);
    }
  }
  return multiples;
}

// What the four coefficients that a * x^4 shifts past x^255 reduce to:
// multiples of x^256 mod P = P - x^256.
constexpr std::array<Poly, 16> kFold = Multiples(
    {RngJump::kCharPoly[0], RngJump::kCharPoly[1], RngJump::kCharPoly[2], RngJump::kCharPoly[3]});

// a * b mod P, Horner over b's coefficients four at a time from the top:
// r = r * x^4 mod P, then r += a * (the next four coefficients of b).
Poly MulMod(const Poly& a, const uint64_t b[4]) {
  const std::array<Poly, 16> multiples = Multiples(a);
  Poly r = {0, 0, 0, 0};
  for (int nibble = 63; nibble >= 0; --nibble) {
    const uint64_t coefficients = (b[nibble / 16] >> (4 * (nibble % 16))) & 15;
    r = Xor(Xor(ShiftUp<4>(r), kFold[r[3] >> 60]), multiples[coefficients]);
  }
  return r;
}

}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const uint64_t RngJump::kPowers[64][4] = {
    {0x0000000000000002ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},  // x^(2^0)
    {0x0000000000000004ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},  // x^(2^1)
    {0x0000000000000010ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},  // x^(2^2)
    {0x0000000000000100ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},  // x^(2^3)
    {0x0000000000010000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},  // x^(2^4)
    {0x0000000100000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},  // x^(2^5)
    {0x0000000000000000ull, 0x0000000000000001ull, 0x0000000000000000ull, 0x0000000000000000ull},  // x^(2^6)
    {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000001ull, 0x0000000000000000ull},  // x^(2^7)
    {0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull, 0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull},  // x^(2^8)
    {0xc7327d130e34b489ull, 0x81f675e7a4ef7d84ull, 0x6dd49b656055c9daull, 0xbe7976372e930435ull},  // x^(2^9)
    {0x060106bbbe4ff028ull, 0x1be1d76854ddda93ull, 0x8456faeb6230d984ull, 0x65507439cf43f0e2ull},  // x^(2^10)
    {0x876c2301125a85c0ull, 0x15fe822628b16f04ull, 0x3c8ca36ec9a74fa7ull, 0x51edef31819e01ffull},  // x^(2^11)
    {0xd7f4e8da7e228b85ull, 0xd638d47ec5bcf595ull, 0xaa6eb691cbf9ce10ull, 0x0f41cce3698fad39ull},  // x^(2^12)
    {0x669da12373880674ull, 0xb1df898a4a6f1548ull, 0x32104b94fe2534d3ull, 0xda66e09e52b341d1ull},  // x^(2^13)
    {0x4f20eb915e780231ull, 0x3886af219b885248ull, 0x023ecbee3f717fceull, 0x3cec2c375bef249cull},  // x^(2^14)
    {0x449b3ae793888c8cull, 0xc3ce2f061f077568ull, 0xa69393ac0d837e54ull, 0x1a9dcf944ae47603ull},  // x^(2^15)
    {0x7e89ac5ca2fbf2c7ull, 0x92ae7ca370c0bf6bull, 0xef43beaa06f02fb8ull, 0xd87f8ce230817a21ull},  // x^(2^16)
    {0x6c4adbe18e29df8aull, 0x54adade3697d477full, 0xf0c168649cdba61full, 0xbd53027696368bbbull},  // x^(2^17)
    {0x1a673fecf40e36b8ull, 0xf2c602feb5ed002bull, 0x1ea49b5067452594ull, 0xf78a97c0d882cd37ull},  // x^(2^18)
    {0xef4606da56224c47ull, 0x770323eab8d437bdull, 0x590923d02ec52531ull, 0x1639a36e0968e3c5ull},  // x^(2^19)
    {0x31d9d05c5d95f3cdull, 0x7cde241817a3ce0full, 0x2f679f694a74c76aull, 0x8b3919a9d298a415ull},  // x^(2^20)
    {0x6b6622ae9590047aull, 0xeace6d3840b79fefull, 0xd9b36372fd70ec83ull, 0x624eb7b63c322e71ull},  // x^(2^21)
    {0x1b91fd9ba98d9e23ull, 0xeb2c7e29d3c33d2eull, 0xcebbfd2ef4e9aff4ull, 0x2bac5517c9469796ull},  // x^(2^22)
    {0x01f356e6083fe109ull, 0xba0ffb6562a3a28aull, 0x657a6b736317866bull, 0xfb678bd3e5dac186ull},  // x^(2^23)
    {0xc5461100f197a7e8ull, 0xe46916a1426b676dull, 0xf3469dbb4fe25d26ull, 0xf5c010059e83bc3full},  // x^(2^24)
    {0x22dc028cb8c259dcull, 0x3eec4eb6495ce5aaull, 0x5de3e273dc7b84dcull, 0xe677849e207f6afdull},  // x^(2^25)
    {0x832d418900fd3b0full, 0x114e10c3b7c36788ull, 0xdf2332a778d9c8dcull, 0x0d19a1bdceb7522cull},  // x^(2^26)
    {0xe2d0c9c10e8d7157ull, 0x8b3ed7c37e947e38ull, 0x98273f4d18ad073eull, 0xf38f7e750d5f4f2aull},  // x^(2^27)
    {0xe7109518f3510d70ull, 0x34f30137eadb90b9ull, 0x6d48dd206d56754dull, 0xafa9e3fe5fea15c3ull},  // x^(2^28)
    {0x8ee774f507ec9f39ull, 0xd7c26ebd51ecf6c4ull, 0xc76a456d998ddc4cull, 0x1ca234ff511bcb05ull},  // x^(2^29)
    {0x4905d8261158a7bcull, 0x352f8b5d2137de83ull, 0xe0e9fa345826626dull, 0x3e667662caa54d16ull},  // x^(2^30)
    {0x272a32be4bac7912ull, 0xe1185a166bb38173ull, 0x82b9aa358fe2ed58ull, 0xa43d37468704d536ull},  // x^(2^31)
    {0x58120d583c112f69ull, 0x7d8d0632bd08e6acull, 0x214fafc0fbdbc208ull, 0x0e055d3520fdb9d7ull},  // x^(2^32)
    {0xd9eb3e225a9ebb7dull, 0x5d33a22177777716ull, 0xffed2ffbcf857b42ull, 0xa1b7ebf581a90f09ull},  // x^(2^33)
    {0x3a433a5cff8501f4ull, 0x0c2e65cfa3a44f3bull, 0xa59f09ab33f1c8f4ull, 0x0afe97309a7881b0ull},  // x^(2^34)
    {0x635e9c6882ce5c6aull, 0x53a34398808ef457ull, 0x94295f82142a68bdull, 0xc1cdf918a717c897ull},  // x^(2^35)
    {0x1a2c804af78e2ed4ull, 0x306c4d371040af1eull, 0x63d3f9df102dfa7eull, 0xac7fe0806aecd6c8ull},  // x^(2^36)
    {0x7743a154e17a5e9bull, 0x7823a1cd9453899bull, 0x976589eefbb1c7f5ull, 0x702cf168260fa29eull},  // x^(2^37)
    {0x2edfce1b0667bf3full, 0x68ef5242f2d9c5b2ull, 0x03803bdb9ea7d7e8ull, 0xc4671ec91b902baeull},  // x^(2^38)
    {0x4d2c07a0b0f7980full, 0x0af3e6140fcff185ull, 0xaf03bea7ea7109fdull, 0x755b16e231d1e7c9ull},  // x^(2^39)
    {0xd24b31ab16542ea0ull, 0x13a31dc36460a3b0ull, 0xeece73d85df18361ull, 0x51fc9b8eb1974e73ull},  // x^(2^40)
    {0xec9c79ebd62a4a91ull, 0xa374bf9822d660aaull, 0xde49d57f23fdecb5ull, 0xfb43cf1f4658ae1bull},  // x^(2^41)
    {0x7602414a37bf1c08ull, 0x48b8b0570f008a91ull, 0x3aa3d49368a9c562ull, 0x9b48db8907d00f97ull},  // x^(2^42)
    {0xf7569be74f972355ull, 0x9e11e129fcced20eull, 0xa6994477ec2d6d85ull, 0x8ec1a9dd27957370ull},  // x^(2^43)
    {0xc223943200d6e8a0ull, 0x82f1f8d3ebd9baffull, 0xf6c987b8eb4f76dbull, 0xba8b1a7be4521854ull},  // x^(2^44)
    {0xe226bff99e7f9d4full, 0xf6faaff592dc08c7ull, 0xbad2e3487a438d37ull, 0xa8f7de3ed772d2d2ull},  // x^(2^45)
    {0x6322f95d362137f1ull, 0xb006241469247fbdull, 0x181d6c749bfc7e7bull, 0x3c63f6f95954e65eull},  // x^(2^46)
    {0xaa878816402dab5full, 0x69811136f33b48faull, 0x0df6566ff12f17f4ull, 0x81f450881b843692ull},  // x^(2^47)
    {0xf11fb4faea62c7f1ull, 0xf825539dee5e4763ull, 0x474579292f705634ull, 0x5f728be2c97e9066ull},  // x^(2^48)
    {0xf18ac1f5eac5120eull, 0x36d6c9bc4bcb56f5ull, 0xec104b9942b386beull, 0x5ff98760441a364cull},  // x^(2^49)
    {0x12b825906ddc86afull, 0x168b84ac131ea856ull, 0xd1c440c801f3cddfull, 0xb01e1ff4eb0b05f6ull},  // x^(2^50)
    {0x5696a9ed59ffcbe3ull, 0xb5bb35fe03c3158aull, 0xf1ab1bce1577ad4eull, 0x140bd5e4e00ffdaaull},  // x^(2^51)
    {0x61507225f9f0e0faull, 0x8eadd052a304405full, 0x49c2df736ebe9c68ull, 0x5177664e86d5e31bull},  // x^(2^52)
    {0x87aac36cc0c1abaeull, 0xca120d886e8fdf33ull, 0x5b8d5f58ce3357a7ull, 0xa93a7aadeced9cd7ull},  // x^(2^53)
    {0xd4eb47064a9ac499ull, 0x2b95939579346af1ull, 0xa6f4a2ea423cc2f6ull, 0xd5372758d87157efull},  // x^(2^54)
    {0x549bf83ef12aebc3ull, 0x56df3905d6712eedull, 0xb86994c9cb3059a5ull, 0x7e0b8abe53e950f8ull},  // x^(2^55)
    {0x0b32b0dbe851dd9dull, 0x27cc40c1479b95dfull, 0xc405c1164a3a6d49ull, 0x0888f2c33969763bull},  // x^(2^56)
    {0x920a67ed72aa1155ull, 0x7e5cbd2047cefb5eull, 0x31acd0e23e87d9d3ull, 0xfecb2b39fb96f078ull},  // x^(2^57)
    {0x9841d4c5510c4700ull, 0x97a6c4a0d2cdf9acull, 0x82f88d9e6b9b17c0ull, 0xf643cc9255f06741ull},  // x^(2^58)
    {0x30ac848541c0b04full, 0x55756dedb136961full, 0x65ba2fdf5fe59ed1ull, 0xe8e07ed05188af0full},  // x^(2^59)
    {0xadcede280bb92b99ull, 0x6d885bb5321527a7ull, 0x04ad0ecd62544db2ull, 0x679b88958f3bbdcbull},  // x^(2^60)
    {0x84db0e338a94ce16ull, 0xaaee46b89b106201ull, 0xbbf25302a56d6131ull, 0xd10d621b74213644ull},  // x^(2^61)
    {0xed3c94e03147ca9bull, 0x31fbe8b0a2035587ull, 0x5083dee093b632b7ull, 0x6ff477672ddf72b1ull},  // x^(2^62)
    {0x936ece877e64cc97ull, 0x22a36cdc0fda409full, 0xbae4d9a25a3928b9ull, 0xa9559a2368719526ull},  // x^(2^63)
};

RngJump::RngJump(uint64_t steps) : poly_{1, 0, 0, 0} {
  // x^steps as the product of x^(2^k) over steps' set bits k.
  for (int k = 0; steps != 0; ++k, steps >>= 1) {
    if ((steps & 1) != 0) {
      const Poly q = MulMod({poly_[0], poly_[1], poly_[2], poly_[3]}, kPowers[k]);
      std::copy(q.begin(), q.end(), poly_);
    }
  }
}

void RngJump::Apply(uint64_t words[4]) const {
  // Named scalars, not arrays: a vectorized accumulate would round-trip the
  // state through memory on every step.
  uint64_t s0 = words[0], s1 = words[1], s2 = words[2], s3 = words[3];
  uint64_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  for (const uint64_t word : poly_) {
    uint64_t coefficients = word;
    for (int b = 0; b < 64; ++b, coefficients >>= 1) {
      const uint64_t take = -(coefficients & 1);
      acc0 ^= s0 & take;
      acc1 ^= s1 & take;
      acc2 ^= s2 & take;
      acc3 ^= s3 & take;
      XoshiroNext(s0, s1, s2, s3);  // Only the state step is kept.
    }
  }
  words[0] = acc0;
  words[1] = acc1;
  words[2] = acc2;
  words[3] = acc3;
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

uint64_t Rng::NextUint64() { return XoshiroNext(state_[0], state_[1], state_[2], state_[3]); }

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

void Rng::Jump(uint64_t steps) { RngJump(steps).Apply(state_); }

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

#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/string_util.h"

namespace seastar {
namespace {

TEST(SplitMix64Test, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliEdgesAndRate) {
  Rng rng(17);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.NextWeighted(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / (counts[0] + counts[2]), 0.75, 0.02);
}

bool SameWords(const Rng& a, const Rng& b) {
  const RngState sa = a.SaveState();
  const RngState sb = b.SaveState();
  return std::memcmp(sa.words, sb.words, sizeof(sa.words)) == 0;
}

TEST(RngTest, JumpMatchesSequentialSteps) {
  for (const uint64_t m : {0u, 1u, 7u, 255u, 256u, 257u, 65537u, 220048u}) {
    Rng jumped(29);
    Rng stepped(29);
    jumped.Jump(m);
    for (uint64_t i = 0; i < m; ++i) {
      stepped.NextUint64();
    }
    EXPECT_TRUE(SameWords(jumped, stepped)) << "m=" << m;
    // One RngJump applied twice is a jump by 2m.
    uint64_t words[4];
    std::memcpy(words, Rng(29).SaveState().words, sizeof(words));
    const RngJump jump(m);
    jump.Apply(words);
    jump.Apply(words);
    for (uint64_t i = 0; i < m; ++i) {
      stepped.NextUint64();
    }
    EXPECT_EQ(std::memcmp(words, stepped.SaveState().words, sizeof(words)), 0) << "m=" << m;
  }
  // Jumps compose: Jump(a) then Jump(b) is Jump(a + b), for a and b near 2^40.
  const uint64_t a = (uint64_t{1} << 40) - 3;
  const uint64_t b = (uint64_t{1} << 40) + 12345;
  Rng twice(31);
  twice.Jump(a);
  twice.Jump(b);
  Rng once(31);
  once.Jump(a + b);
  EXPECT_TRUE(SameWords(twice, once));
  Rng other(31);
  other.Jump(a + b + 1);
  EXPECT_FALSE(SameWords(twice, other));
  // The Box-Muller cache is not part of the xoshiro state and survives.
  Rng cached(37);
  const double first = cached.NextGaussian();
  cached.Jump(5);
  EXPECT_TRUE(cached.SaveState().have_cached_gaussian);
  EXPECT_NE(cached.NextGaussian(), first);
}

// GF(2) polynomials of degree < 512 for re-deriving the jump constants
// independently of rng.cc's arithmetic.
using Poly512 = std::bitset<512>;

Poly512 FromWords(const uint64_t words[4]) {
  Poly512 p;
  for (int i = 0; i < 256; ++i) {
    p[static_cast<size_t>(i)] = (words[i / 64] >> (i % 64)) & 1;
  }
  return p;
}

Poly512 MulModP(const Poly512& a, const Poly512& b, const Poly512& p) {
  Poly512 r;
  for (size_t i = 0; i < 256; ++i) {
    if (b[i]) {
      r ^= a << i;
    }
  }
  for (size_t i = 511; i >= 256; --i) {
    if (r[i]) {
      r ^= p << (i - 256);
    }
  }
  return r;
}

TEST(RngTest, JumpConstantsMatchTheGenerator) {
  // Berlekamp-Massey over one state bit of successive draws gives the
  // transition's minimal polynomial, which for a full-period generator is
  // its degree-256 characteristic polynomial P.
  Rng rng(41);
  std::vector<int> bits;
  for (int i = 0; i < 600; ++i) {
    bits.push_back(static_cast<int>(rng.SaveState().words[0] & 1));
    rng.NextUint64();
  }
  std::vector<int> c = {1};
  std::vector<int> prev = {1};
  size_t length = 0;
  size_t gap = 1;
  for (size_t n = 0; n < bits.size(); ++n) {
    int discrepancy = bits[n];
    for (size_t i = 1; i <= length && i < c.size(); ++i) {
      discrepancy ^= c[i] & bits[n - i];
    }
    if (discrepancy == 0) {
      ++gap;
      continue;
    }
    std::vector<int> next = c;
    next.resize(std::max(c.size(), prev.size() + gap), 0);
    for (size_t i = 0; i < prev.size(); ++i) {
      next[i + gap] ^= prev[i];
    }
    if (2 * length <= n) {
      prev = c;
      length = n + 1 - length;
      gap = 1;
    } else {
      ++gap;
    }
    c = next;
  }
  ASSERT_EQ(length, 256u);
  c.resize(257, 0);
  Poly512 p;  // P(x) = x^256 * C(1/x).
  for (size_t i = 0; i <= 256; ++i) {
    p[256 - i] = c[i] != 0;
  }
  ASSERT_TRUE(p[256]);
  Poly512 low = p;
  low[256] = false;
  EXPECT_EQ(low, FromWords(RngJump::kCharPoly));

  // kPowers[k] = x^(2^k) mod P, by repeated squaring.
  Poly512 power;
  power[1] = true;
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(power, FromWords(RngJump::kPowers[k])) << "k=" << k;
    power = MulModP(power, power, p);
  }
  // And x^(2^128) mod P is xoshiro256's published JUMP polynomial.
  for (int k = 64; k < 128; ++k) {
    power = MulModP(power, power, p);
  }
  const uint64_t kPublishedJump[4] = {0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
                                      0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
  EXPECT_EQ(power, FromWords(kPublishedJump));
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> original = items;
  rng.Shuffle(items);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(StringUtilTest, SplitAndJoin) {
  const auto pieces = Split("a,b,,c", ',');
  EXPECT_EQ(pieces, (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.00 MB");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringUtilTest, FlagParsing) {
  const char* argv_c[] = {"prog", "--scale=0.5", "--full", "--epochs=20", "--name=reddit"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_DOUBLE_EQ(FlagDouble(5, argv, "scale", 1.0), 0.5);
  EXPECT_TRUE(FlagBool(5, argv, "full", false));
  EXPECT_FALSE(FlagBool(5, argv, "quiet", false));
  EXPECT_EQ(FlagInt(5, argv, "epochs", 200), 20);
  EXPECT_EQ(FlagValue(5, argv, "name", "cora"), "reddit");
  EXPECT_EQ(FlagValue(5, argv, "missing", "dflt"), "dflt");
  EXPECT_EQ(FlagInt(5, argv, "missing", -3), -3);
  EXPECT_DOUBLE_EQ(FlagDouble(5, argv, "missing", 2.5), 2.5);

  const char* numbers_c[] = {"prog", "--n=-42", "--big=9223372036854775807", "--x=1e-3",
                             "--y=+7.5"};
  char** numbers = const_cast<char**>(numbers_c);
  EXPECT_EQ(FlagInt(5, numbers, "n", 0), -42);
  EXPECT_EQ(FlagInt(5, numbers, "big", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(FlagDouble(5, numbers, "x", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(FlagDouble(5, numbers, "y", 0.0), 7.5);

  // A numeric value that does not parse exits 1 naming the flag, instead of
  // reading as 0: malformed, trailing junk, out of range, empty and bare.
  const auto exit_naming = [](std::vector<const char*> args, const char* key, bool integer) {
    args.insert(args.begin(), "prog");
    char** raw = const_cast<char**>(args.data());
    const int argc = static_cast<int>(args.size());
    const std::string pattern = std::string("flag --") + key;
    if (integer) {
      EXPECT_EXIT(FlagInt(argc, raw, key, 1), ::testing::ExitedWithCode(1), pattern) << args[1];
    } else {
      EXPECT_EXIT(FlagDouble(argc, raw, key, 1.0), ::testing::ExitedWithCode(1), pattern)
          << args[1];
    }
  };
  exit_naming({"--epochs=abc"}, "epochs", true);
  exit_naming({"--epochs=12x"}, "epochs", true);
  exit_naming({"--epochs=1.5"}, "epochs", true);
  exit_naming({"--epochs= 3"}, "epochs", true);
  exit_naming({"--epochs=99999999999999999999"}, "epochs", true);
  exit_naming({"--epochs="}, "epochs", true);
  exit_naming({"--epochs"}, "epochs", true);
  exit_naming({"--scale=abc"}, "scale", false);
  exit_naming({"--scale=0.5x"}, "scale", false);
  exit_naming({"--scale=1e999"}, "scale", false);
  exit_naming({"--scale=nan"}, "scale", false);
  exit_naming({"--scale"}, "scale", false);
}

TEST(StringUtilTest, FirstUnknownFlagNamesTheFirstUnreadArgument) {
  const char* argv_c[] = {"prog", "--scale=0.5", "--full", "--backend=dgl", "extra"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EQ(FirstUnknownFlag(1, argv, {}), "");
  EXPECT_EQ(FirstUnknownFlag(3, argv, {"scale", "full"}), "");
  EXPECT_EQ(FirstUnknownFlag(5, argv, {"scale", "full"}), "--backend=dgl");
  EXPECT_EQ(FirstUnknownFlag(5, argv, {"scale", "full", "backend"}), "extra");
  EXPECT_EQ(FirstUnknownFlag(3, argv, {"scale", "ful"}), "--full") << "keys match whole";
  EXPECT_EQ(FirstUnknownFlag(2, argv, {"scale=0.5"}), "--scale=0.5") << "the key ends at '='";
  const char* dashes_c[] = {"prog", "--", "-scale=1"};
  char** dashes = const_cast<char**>(dashes_c);
  EXPECT_EQ(FirstUnknownFlag(2, dashes, {"scale"}), "--");
  EXPECT_EQ(FirstUnknownFlag(3, dashes, {"scale", ""}), "-scale=1");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--scale=1", "--scale"));
  EXPECT_FALSE(StartsWith("-s", "--scale"));
}

}  // namespace
}  // namespace seastar

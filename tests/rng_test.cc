// The in-repo random engine against the standard library (`perf` label).
//
// `common::Mt19937_64` must produce the standard's mt19937_64 sequence, so
// it is compared with the library engine across several twists.
// `uniform()` and `gaussian()` must return what `common::Rng` returned when
// it drew through libstdc++'s `uniform_real_distribution` and a fresh
// `normal_distribution` per call: every fig table, golden trace and digest
// was recorded that way.  Those two oracles are libstdc++'s algorithms, not
// the standard's, so they run only where `__GLIBCXX__` is defined.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"

namespace sledzig::common {
namespace {

// lint: allow(raw-engine): the standard engine is the oracle
using StdMt = std::mt19937_64;

const std::vector<std::uint64_t> kSeeds = {
    0, 1, 5489, std::numeric_limits<std::uint64_t>::max(),
    derive_seed(1, 0), derive_seed(7919, 3), derive_seed(0xc0ffee, 42)};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(RngEngine, MatchesTheStandardEngineAcrossTwists) {
  constexpr std::size_t kDraws = 5 * 312;  // the seeded state, then 5 twists
  for (const std::uint64_t seed : kSeeds) {
    Mt19937_64 engine(seed);
    StdMt ref(seed);
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(engine(), ref()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(RngEngine, TenThousandthOutputIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042u);
}

TEST(RngEngine, EqualityComparesStateAndPosition) {
  // Equal exactly when the library engines are, around a twist too.
  for (const std::size_t lead : {0u, 1u, 311u, 312u, 313u}) {
    Mt19937_64 a(99), b(99);
    StdMt ra(99), rb(99);
    for (std::size_t i = 0; i < lead; ++i) {
      a();
      ra();
    }
    for (std::size_t i = 0; i < 2 * 312; ++i) {
      ASSERT_EQ(a == b, ra == rb) << "lead " << lead << " step " << i;
      b();
      rb();
    }
  }
  EXPECT_FALSE(Mt19937_64(1) == Mt19937_64(2));
}

TEST(RngDraws, ConversionMatchesStaticCastOnEdgeValues) {
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const double below_one = std::nextafter(1.0, 0.0);
  // 2^53 + 1 and 2^53 + 3 are ties between doubles 2 apart, 2^63 + 2^10
  // and 2^63 + 3 * 2^10 ties between doubles 2^11 apart: each rounds to
  // the even neighbour.  2^64 - 2^11 is the largest double below 2^64.
  const std::vector<std::uint64_t> exact = {
      0,           1,           2,           0xffffffffu, 0x100000000u,
      0x100000001u, k53 - 1,    k53,         k53 + 1,     k53 + 2,
      k53 + 3,     k63 - 1,     k63,         k63 + 1,     k63 + 0x3ff,
      k63 + 0x400, k63 + 0x401, k63 + 0xc00, 0xfffffffffffff800u,
      0xfffffffffffffbffu};
  for (const std::uint64_t x : exact) {
    const double d = static_cast<double>(x);
    ASSERT_LT(d, 0x1p64) << x;
    EXPECT_TRUE(same_bits(unit_double(x), d * 0x1p-64)) << x;
  }
  EXPECT_EQ(static_cast<double>(k53 + 1), 0x1p53);
  EXPECT_EQ(static_cast<double>(k53 + 3), 0x1p53 + 4.0);
  EXPECT_EQ(static_cast<double>(k63 + 0x400), 0x1p63);
  EXPECT_EQ(static_cast<double>(k63 + 0xc00), 0x1p63 + 0x1p12);
  EXPECT_EQ(unit_double(0xfffffffffffff800u), below_one);
  // The top 2^10 values round to 2^64 (the tie at 2^64 - 2^10 goes to the
  // even 2^64), and their result of 1 clamps to the double below it.
  for (const std::uint64_t x :
       {std::uint64_t{0xfffffffffffffc00u}, std::uint64_t{0xfffffffffffffc01u},
        std::uint64_t{0xfffffffffffffffeu}, std::uint64_t{0xffffffffffffffffu}}) {
    ASSERT_EQ(static_cast<double>(x), 0x1p64) << x;
    EXPECT_TRUE(same_bits(unit_double(x), below_one)) << x;
  }
}

TEST(RngDraws, ConversionMatchesStaticCastAtEveryMagnitude) {
  // Engine outputs shifted down to every bit length, so the low half
  // decides the rounding as often as the high half.
  StdMt ref(2024);
  const double below_one = std::nextafter(1.0, 0.0);
  std::size_t mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t raw = ref();
    for (int shift = 0; shift < 64; ++shift) {
      const std::uint64_t x = raw >> shift;
      const double want =
          std::min(static_cast<double>(x) * 0x1p-64, below_one);
      mismatches += same_bits(unit_double(x), want) ? 0 : 1;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

#if defined(__GLIBCXX__)

/// A generator whose every output is one fixed value.
struct FixedBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return value; }
  result_type value;
};

double library_canonical(std::uint64_t x) {
  FixedBits g{x};
  // lint: allow(library-draw): libstdc++'s conversion is the oracle
  return std::generate_canonical<double, 53>(g);
}

double library_uniform(StdMt& g) {
  // lint: allow(library-draw): libstdc++'s distribution is the oracle
  return std::uniform_real_distribution<double>(0.0, 1.0)(g);
}

double library_gaussian(StdMt& g, double stddev) {
  // lint: allow(library-draw): libstdc++'s distribution is the oracle
  return std::normal_distribution<double>(0.0, stddev)(g);
}

#endif

TEST(RngDraws, ConversionMatchesGenerateCanonical) {
#if defined(__GLIBCXX__)
  StdMt ref(77);
  for (std::uint64_t top = 0; top < 4096; ++top) {
    // The 4096 values at the top of the range (clamped and not), then
    // engine outputs.
    const std::uint64_t x = ~std::uint64_t{0} - top;
    ASSERT_TRUE(same_bits(unit_double(x), library_canonical(x))) << x;
    const std::uint64_t r = ref();
    ASSERT_TRUE(same_bits(unit_double(r), library_canonical(r))) << r;
  }
#else
  GTEST_SKIP() << "libstdc++'s generate_canonical is the oracle";
#endif
}

TEST(RngDraws, UniformMatchesUniformRealDistribution) {
#if defined(__GLIBCXX__)
  constexpr std::size_t kDraws = 1'000'000;
  for (const std::uint64_t seed : {std::uint64_t{1}, derive_seed(5, 8)}) {
    Rng rng(seed);
    StdMt ref(seed);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < kDraws; ++i) {
      mismatches += same_bits(rng.uniform(), library_uniform(ref)) ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    Rng ranged(seed);
    StdMt ranged_ref(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(same_bits(ranged.uniform(-3.5, 12.25),
                            -3.5 + 15.75 * library_uniform(ranged_ref)));
    }
  }
#else
  GTEST_SKIP() << "libstdc++'s uniform_real_distribution is the oracle";
#endif
}

TEST(RngDraws, GaussianMatchesAFreshNormalDistribution) {
#if defined(__GLIBCXX__)
  for (const double stddev : {1.0, 0.5, 2.75, 1e-3, 40.0, 3.1e-6}) {
    Rng rng(derive_seed(3, static_cast<std::uint64_t>(stddev * 1e6)));
    StdMt ref(derive_seed(3, static_cast<std::uint64_t>(stddev * 1e6)));
    std::size_t mismatches = 0;
    for (int i = 0; i < 50000; ++i) {
      mismatches +=
          same_bits(rng.gaussian(stddev), library_gaussian(ref, stddev)) ? 0
                                                                         : 1;
    }
    EXPECT_EQ(mismatches, 0u) << "stddev " << stddev;
    // Same number of uniform draws, rejections included.
    EXPECT_EQ(rng.engine()(), ref()) << "stddev " << stddev;
  }
#else
  GTEST_SKIP() << "libstdc++'s normal_distribution is the oracle";
#endif
}

TEST(RngDraws, ComplexGaussianDrawsTwoFreshNormals) {
#if defined(__GLIBCXX__)
  Rng rng(12);
  StdMt ref(12);
  for (const double power : {1.0, 1e-9, 0.37}) {
    for (int i = 0; i < 2000; ++i) {
      const std::complex<double> z = rng.complex_gaussian(power);
      const double s = std::sqrt(power / 2.0);
      const double re = library_gaussian(ref, s);
      const double im = library_gaussian(ref, s);
      ASSERT_TRUE(same_bits(z.real(), re) && same_bits(z.imag(), im));
    }
  }
#else
  GTEST_SKIP() << "libstdc++'s normal_distribution is the oracle";
#endif
}

TEST(RngDraws, BitsBytesAndIntegersFollowTheEngine) {
  Rng rng(31);
  StdMt ref(31);
  for (const Bit b : rng.bits(700)) ASSERT_EQ(b, static_cast<Bit>(ref() & 1u));
  for (const std::uint8_t v : rng.bytes(700)) {
    ASSERT_EQ(v, static_cast<std::uint8_t>(ref() & 0xffu));
  }
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t lo = -i;
    const std::int64_t hi = 3 * i + 1;
    // lint: allow(library-draw): uniform_int keeps the library algorithm
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    ASSERT_EQ(rng.uniform_int(lo, hi), dist(ref));
  }
  EXPECT_EQ(rng.engine()(), ref());
}

}  // namespace
}  // namespace sledzig::common

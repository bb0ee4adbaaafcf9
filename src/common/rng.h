// Deterministic random number generation for reproducible experiments.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <random>

#include "common/bits.h"

namespace sledzig::common {

/// MT19937-64, the standard's `mt19937_64` ([rand.predef]) kept in the
/// tree, so the simulator owns its streams rather than the standard
/// library.  Seeding, twist, tempering and `operator==` (state words and
/// position) follow `std::mersenne_twister_engine`, so every output equals
/// the library engine's for the same seed.  The twist selects the matrix
/// constant with a mask instead of a branch on each word's low bit.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005u * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ >= kN) twist();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555u;
    z ^= (z << 17) & 0x71d67fffeda60000u;
    z ^= (z << 37) & 0xfff7eee000000000u;
    z ^= z >> 43;
    return z;
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  static constexpr std::size_t kN = 312;

  /// Regenerates all kN state words and rewinds the position.
  void twist();

  std::array<result_type, kN> x_;
  std::size_t p_ = kN;
};

/// Maps a 64-bit draw to [0, 1) exactly as `std::generate_canonical<double,
/// 53>` does over a 64-bit engine: x rounded to the nearest double, times
/// 2^-64, with a result of 1 clamped to the double just below it.  Both
/// 32-bit halves convert exactly, so the one addition is the only rounding,
/// and no branch tests the draw's top bit.
inline double unit_double(std::uint64_t x) {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(x));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// The helpers the PHY/MAC simulations draw through, over `Mt19937_64`.
/// Every experiment takes an explicit seed so runs are reproducible;
/// nothing in the library touches global RNG state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  Bit bit() { return static_cast<Bit>(engine_() & 1u); }

  Bits bits(std::size_t count) {
    Bits out(count);
    for (auto& b : out) b = bit();
    return out;
  }

  Bytes bytes(std::size_t count) {
    Bytes out(count);
    for (auto& b : out) b = static_cast<std::uint8_t>(engine_() & 0xffu);
    return out;
  }

  /// Uniform double in [0, 1).
  double uniform() { return unit_double(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Zero-mean Gaussian with the given standard deviation: Marsaglia's
  /// polar method in the operation order of a freshly constructed
  /// libstdc++ `normal_distribution<double>(0, stddev)`.  The pair's
  /// second variate (x times the multiplier) is discarded.
  double gaussian(double stddev) {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return (y * std::sqrt(-2.0 * std::log(r2) / r2)) * stddev + 0.0;
  }

  /// Circularly-symmetric complex Gaussian sample with total power
  /// `power_mw` (E[|x|^2] = power_mw).
  std::complex<double> complex_gaussian(double power_mw) {
    const double s = std::sqrt(power_mw / 2.0);
    return {gaussian(s), gaussian(s)};
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace sledzig::common

// analyzer: path tests/fixture_clock_test.cc
// Tests profile: a test may not read the clock or draw through a library
// distribution (its assertions must not depend on either), but hash
// containers, statics, hand-mixed seeds and the structural rules are
// checked in src/ only.  Never compiled.

#include <chrono>
#include <cstdint>
#include <random>
#include <unordered_set>

namespace fixture {

double timed_assertion(std::uint64_t base, std::size_t i) {
  const auto t0 = std::chrono::steady_clock::now();  // expect: wall-clock
  std::normal_distribution<double> noise(0.0, 1.0);  // expect: library-draw
  static std::unordered_set<int> seen;
  Rng trial_rng(base + i);
  double gain_db = static_cast<double>(seen.size());
  return gain_db + static_cast<double>(t0.time_since_epoch().count());
}

}  // namespace fixture

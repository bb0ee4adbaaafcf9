// Seeded line-rule violations under the strict src/ profile.  Every marked
// line MUST be flagged; the self-test fails if any marker is missed or
// anything unmarked fires.  This file is never compiled — it only has to
// look like C++ to the analyzer.

#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

namespace fixture {

unsigned banned_rng_sources() {
  std::random_device rd;                         // expect: banned-rng
  std::srand(42);                                // expect: banned-rng
  unsigned x = static_cast<unsigned>(rand());    // expect: banned-rng
  return x + rd();
}

double wall_clock_reads() {
  const auto t0 = std::chrono::steady_clock::now();       // expect: wall-clock
  const auto t1 = std::chrono::system_clock::now();       // expect: wall-clock
  const std::time_t t2 = time(nullptr);                   // expect: wall-clock
  const std::clock_t t3 = clock();                        // expect: wall-clock
  return double(t2) + double(t3);
}

int unordered_on_result_path() {
  std::unordered_map<int, double> acc;           // expect: unordered
  double total = 0.0;
  for (const auto& [k, v] : acc) total += v;
  return static_cast<int>(total);
}

void raw_engines() {
  std::mt19937 gen32(123);                       // expect: raw-engine
  std::mt19937_64 gen64(456);                    // expect: raw-engine
  std::default_random_engine eng(7);             // expect: raw-engine
}

// Library distributions: their algorithms differ between standard
// libraries, so only common/rng.h may hold one.
double library_draws(common::Rng& rng) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);  // expect: library-draw
  std::normal_distribution<double> normal(0.0, 2.0);     // expect: library-draw
  std::bernoulli_distribution coin(0.5);                 // expect: library-draw
  return std::generate_canonical<double, 53>(rng.engine());  // expect: library-draw
}

// In src/ a hand-mixed seed is a seed-derivation finding, not an
// underived-seed one; see bad_bench_seed.cc and bad_tools_seed.cc.
void underived_seeds_in_src(std::uint64_t base, std::size_t i) {
  Rng trial_rng(base + i);                       // expect: seed-derivation
}

int mutable_static_state() {
  static int call_count = 0;                     // expect: static-state
  static std::unordered_map<int, int> memo;      // expect: static-state, unordered
  thread_local int per_thread_calls = 0;         // expect: static-state
  return ++call_count + ++per_thread_calls + static_cast<int>(memo.size());
}

// A cast in the initialiser exempts nothing.
int static_state_behind_a_cast() {
  static int calls = static_cast<int>(0);        // expect: static-state
  thread_local long ticks = static_cast<long>(1); // expect: static-state
  return ++calls + static_cast<int>(++ticks);
}

}  // namespace fixture

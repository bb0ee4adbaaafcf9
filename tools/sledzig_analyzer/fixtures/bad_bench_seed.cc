// analyzer: path bench/fixture_seed.cc
// Bench profile: benchmarks may time themselves (no wall-clock findings)
// but their Rng seeds still have to come from a deriver.  Never compiled.

#include <chrono>
#include <cstdint>

namespace fixture {

double timed_trial(std::uint64_t base, std::size_t i) {
  const auto t0 = std::chrono::steady_clock::now();  // clocks OK in bench
  Rng trial_rng(base * 2654435761u + i);         // expect: underived-seed
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Every Rng construction the lexer sees is judged: member initialisers and
// arguments that span lines too.
struct Trial {
  Trial(std::uint64_t base, std::size_t i)
      : rng_(base +                              // expect: underived-seed
             i) {}
  Rng rng_;
};

// Outside a function body any `*_rng(` reads as a member initialiser, so a
// declaration whose parameters hold a `*` reads as a hand-mixed seed, as
// seed-derivation reads it in src/.  Helpers that fill buffers from an Rng
// take a name without the suffix.
void fill_rng(double* out, std::size_t n);       // expect: underived-seed
void fill_uniform(double* out, std::size_t n);   // no Rng name: no finding

}  // namespace fixture

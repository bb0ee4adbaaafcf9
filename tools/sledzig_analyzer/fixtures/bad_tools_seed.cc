// analyzer: path tools/fixture_seed.cc
// Outside src/ the structural seed rule does not run, but helper binaries
// and benchmarks seed Rngs too, and their streams must decorrelate the
// same way: underived-seed checks each Rng construction.  Never compiled.

#include <cstdint>

namespace fixture {

void underived_seeds(std::uint64_t base, std::size_t i) {
  Rng trial_rng(base + i);                       // expect: underived-seed
  Rng xor_rng(base ^ i);                         // expect: underived-seed
  common::Rng scaled(base * 31 + i);             // expect: underived-seed
  Rng shifted((base << 8) | i);                  // expect: underived-seed
}

void derived_seeds(std::uint64_t base, std::size_t i) {
  Rng ok(common::derive_seed(base, i));          // derived: no finding
  Rng plain(base);                               // unmixed: no finding
}

}  // namespace fixture

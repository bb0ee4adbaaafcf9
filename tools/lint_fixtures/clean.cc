// Negative fixture for lint_determinism.py --self-test: every construct
// here is legitimate and must produce ZERO findings under the strict 'src'
// profile.  Lines exercise the known near-misses of each rule.

#include <cstdint>
#include <map>
#include <vector>

namespace fixture {

// "rand" / "time" as substrings of longer identifiers must not fire.
double operand_airtime(double airtime_us, double grand_total) {
  return airtime_us + grand_total;
}

// time/clock mentioned in comments only: std::chrono::steady_clock::now()
// and rand() and std::random_device do not fire once comments are stripped.
double frame_airtime(double symbols) { return symbols * 16.0; }

// Calling a *member* named time-ish or a timeline type is fine.
struct WifiTimeline {
  double duration_us() const { return duration_us_; }
  double duration_us_ = 0.0;
};

// Properly derived seeds: literals, plain variables, and derive_seed /
// splitmix64 / stage_seed calls (arithmetic inside the call is fine).
void derived_seeds(std::uint64_t base, std::size_t i) {
  Rng literal_rng(0xc0ffee);
  Rng plain_rng(base);
  Rng derived(common::derive_seed(base, i));
  Rng derived_mixed(derive_seed(base ^ 1, i + 3));
  common::Rng staged(stage_seed(base, 4));
}

// Immutable statics and static casts/asserts are allowed without
// annotation.
int immutable_statics(int v) {
  static const int kTableSize = 64;
  static constexpr double kScale = 0.5;
  static_assert(sizeof(int) >= 4, "platform");
  return static_cast<int>(v * kScale) + kTableSize;
}

// Mutable static state carrying an allow annotation with a reason.
const std::map<int, double>& memo_cache() {
  // lint: allow(static-state): memo cache, guarded by caller's mutex
  static std::map<int, double> cache;
  return cache;
}

// Draws through common::Rng, and names that only end in
// `_distribution` outside namespace std, are fine.
double rng_draws(common::Rng& rng, const sim::arrival_distribution& d) {
  const double power_distribution = rng.gaussian(2.0) + rng.uniform();
  return power_distribution + d.mean_us;
}

// Ordered containers are always fine.
double ordered_accumulate(const std::map<int, double>& values) {
  double total = 0.0;
  for (const auto& [k, v] : values) total += v;
  return total;
}

}  // namespace fixture

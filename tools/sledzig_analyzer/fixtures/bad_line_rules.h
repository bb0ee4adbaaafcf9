// Header fixture under the src/ profile.  Checks two path-sensitive
// behaviours: pattern rules (banned-rng, raw-engine, wall-clock) apply to
// headers exactly as to .cc files, while the static-state rule applies to
// .cc files ONLY — the unannotated mutable static member below must NOT
// fire here.

#pragma once

#include <random>

namespace fixture {

// Pattern rules fire in headers.
inline unsigned header_entropy() {
  std::random_device rd;                         // expect: banned-rng
  std::mt19937 gen(rd());                        // expect: raw-engine
  return gen();
}

inline double header_clock() {
  return std::chrono::steady_clock::now()        // expect: wall-clock
      .time_since_epoch()
      .count();
}

// static-state is a .cc-only rule (headers declare; definitions live in
// translation units), so none of these may fire:
struct Counters {
  static int instances;  // declaration, not storage
};

inline int header_helper(int v) {
  static const int kBias = 3;
  return v + kBias + static_cast<int>(sizeof(Counters));
}

}  // namespace fixture

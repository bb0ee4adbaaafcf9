// analyzer: path examples/fixture_clock.cpp
// Examples are checked like tests: a wall-clock read fires unless it is
// annotated, and a line-rule allow covers only its own line and the next.
// Hash containers, statics and the structural rules are src/-only.  This
// file is never compiled.

#include <chrono>
#include <unordered_map>

namespace fixture {

void set_gain(double gain_db);  // raw-unit is src/-only

double timed_example() {
  const auto t0 = std::chrono::steady_clock::now();      // expect: wall-clock
  // lint: allow(wall-clock): times the run for the printed rate only
  const auto t1 = std::chrono::steady_clock::now();
  // lint: allow(wall-clock): reaches the next line, which is blank

  const auto t2 = std::chrono::steady_clock::now();      // expect: wall-clock
  static std::unordered_map<int, double> seen;
  return std::chrono::duration<double>(t2 - t1 + (t1 - t0)).count() +
         static_cast<double>(seen.size());
}

}  // namespace fixture

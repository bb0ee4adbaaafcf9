// Machine-readable end-to-end sweep benchmark: a Monte-Carlo sweep of
// discrete-event engine runs timed serial vs. pooled, repeated and written
// as JSON (default BENCH_hotpath.json, override with argv[1]) with the build
// type, thread count, repetitions and min/median/max of each arm.
// Committed snapshots of this file let later PRs regress wall-time without
// re-reading bench logs.  Kernel timings live in BENCH_microbench.json,
// written by bench_microbench (google-benchmark) — see its header.
//
// Every repetition re-checks bit-identity between the serial and pooled
// sweep so a speed regression fix can never silently trade determinism
// away.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "sim/engine.h"

using namespace sledzig;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kRepetitions = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The fig14-style end-to-end sweep (one channel, saturated SledZig WiFi),
/// run on the discrete-event engine to time the whole trial pipeline
/// through a given pool.
std::vector<double> sweep_throughput(common::ThreadPool& pool) {
  const double distances[] = {1.0, 3.0, 5.0, 7.0, 10.0};
  // Enough trials that the serial sweep takes O(seconds): the JSON reports
  // the times in milliseconds, so a sub-tenth-of-a-second sweep would
  // quantize both arms into the same bucket and fake a 1.0x speedup.
  const std::size_t seeds = 8;
  return common::parallel_map(
      pool, std::size(distances) * seeds, [&](std::size_t i) {
        const auto cfg = sim::two_node_paper_scenario(
            core::SledzigConfig{}, /*sledzig_on=*/true,
            /*wifi_duty_ratio=*/1.0, distances[i / seeds], /*d_z_m=*/1.0,
            /*duration_s=*/30.0, /*seed=*/1 + i % seeds);
        return sim::run_scenario(cfg).zigbee[0].throughput_kbps;
      });
}

struct Spread {
  double min, median, max;
};

/// Min, median and max of the samples (sorted in place).
Spread spread(std::vector<double>& ms) {
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2], ms.back()};
}

void write_arm(std::FILE* f, const char* name, const Spread& s) {
  std::fprintf(f,
               "  \"%s\": {\"min\": %.1f, \"median\": %.1f, \"max\": %.1f, "
               "\"unit\": \"ms\"},\n",
               name, s.min, s.median, s.max);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_hotpath.json";

  common::ThreadPool serial_pool(1);
  std::vector<double> serial_ms, pooled_ms;
  std::size_t trials = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto t0 = Clock::now();
    const auto serial = sweep_throughput(serial_pool);
    serial_ms.push_back(seconds_since(t0) * 1e3);

    t0 = Clock::now();
    const auto pooled = sweep_throughput(common::default_pool());
    pooled_ms.push_back(seconds_since(t0) * 1e3);

    if (serial.size() != pooled.size() ||
        std::memcmp(serial.data(), pooled.data(),
                    serial.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FATAL: pooled sweep diverged from the serial sweep\n");
      return 1;
    }
    trials = serial.size();
  }
  const Spread serial = spread(serial_ms);
  const Spread pooled = spread(pooled_ms);

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", SLEDZIG_BUILD_TYPE);
  std::fprintf(f, "  \"threads\": %zu,\n", common::default_pool().size());
  std::fprintf(f, "  \"repetitions\": %d,\n", kRepetitions);
  std::fprintf(f, "  \"sweep_trials\": %zu,\n", trials);
  std::fprintf(f, "  \"thread_invariant\": true,\n");
  write_arm(f, "sweep_serial_ms", serial);
  write_arm(f, "sweep_pooled_ms", pooled);
  std::fprintf(f, "  \"sweep_speedup\": {\"value\": %.2f, \"unit\": \"x\"}\n",
               serial.median / pooled.median);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "wrote %s (%zu threads, median sweep %.0f ms serial / %.0f ms pooled)\n",
      path, common::default_pool().size(), serial.median, pooled.median);
  return 0;
}

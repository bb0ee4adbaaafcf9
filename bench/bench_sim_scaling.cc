// Machine-readable discrete-event engine benchmark: events/second versus
// node count, written as JSON (default BENCH_sim.json, override with the
// first non-flag argument).  Committed snapshots let later PRs regress the
// event loop's wall-time without re-reading bench logs.
//
// Every point builds its link cache once, as run_replications and the
// campaign runner do, then runs once to warm the allocator and the in-band
// memo and times kRepetitions more runs.  Every timed run's digest and
// event count must equal the warm-up's (a mismatch is fatal), so a speed
// change can never silently trade the engine's determinism away.  Each
// point records min/median/max events/s; `construct_ms`, the median of
// kRepetitions construction-only runs (the same config with a 1 ns
// horizon, so only the engine's set-up and the events at t = 0 run); and
// `peak_rss_mb`, the process's VmHWM after the point.  Points run in
// ascending size, so each peak is its own point's.  The file records the
// build type, thread count and repetitions.
//
// `--smoke` runs only the small grid points (CI determinism guard);
// the full sweep tops out at a 1100-node campus.  `--seed N` re-seeds the
// sweep, `--out PATH` (or the first positional) moves the snapshot.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/engine.h"
#include "sim/link_cache.h"

using namespace sledzig;
using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t g_seed = 9;

sim::ScenarioConfig grid_scenario(std::size_t n_wifi, std::size_t n_zigbee) {
  sim::ScenarioConfig cfg;
  cfg.duration_s = 2.0;
  cfg.seed = g_seed;
  for (std::size_t i = 0; i < n_wifi; ++i) {
    sim::WifiNodeConfig ap;
    ap.tx = {2.0 * static_cast<double>(i), 0.0};
    ap.rx = {2.0 * static_cast<double>(i), 3.0};
    cfg.wifi.push_back(ap);
  }
  for (std::size_t j = 0; j < n_zigbee; ++j) {
    sim::ZigbeeNodeConfig mote;
    mote.tx = {1.0 + 2.0 * static_cast<double>(j), 4.0};
    mote.rx = {1.0 + 2.0 * static_cast<double>(j), 5.0};
    cfg.zigbee.push_back(mote);
  }
  return cfg;
}

constexpr int kRepetitions = 5;
// Construction-only horizon: before every event but those at t = 0.
constexpr double kConstructHorizonS = 1e-9;

struct Point {
  std::string label;
  std::size_t nodes;
  std::uint64_t events;
  double min_events_per_s;
  double median_events_per_s;
  double max_events_per_s;
  double construct_ms;
  double peak_rss_mb;
};

/// Peak resident set size of this process (VmHWM) in MB, or -1 when
/// /proc/self/status cannot be read.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return -1.0;
}

/// Wall-time of one run.
double time_run(const sim::ScenarioConfig& cfg, std::uint64_t* digest,
                std::uint64_t* events) {
  const auto t0 = Clock::now();
  const auto r = sim::run_scenario(cfg);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  *digest = r.trace_digest;
  *events = r.events_processed;
  return s;
}

bool bench_point(sim::ScenarioConfig cfg, const std::string& label,
                 std::vector<Point>& out) {
  cfg.link_cache = sim::LinkCache::build(cfg);
  std::uint64_t warm_digest = 0, warm_events = 0, digest = 0, events = 0;
  time_run(cfg, &warm_digest, &warm_events);
  std::vector<double> rates;
  for (int i = 0; i < kRepetitions; ++i) {
    const double s = time_run(cfg, &digest, &events);
    if (digest != warm_digest || events != warm_events) {
      std::fprintf(stderr, "FATAL: repeated run diverged at %s\n",
                   label.c_str());
      return false;
    }
    rates.push_back(static_cast<double>(events) / s);
  }
  std::sort(rates.begin(), rates.end());

  sim::ScenarioConfig construct = cfg;
  construct.duration_s = kConstructHorizonS;
  std::vector<double> construct_ms;
  for (int i = 0; i < kRepetitions; ++i) {
    std::uint64_t unused_digest = 0, unused_events = 0;
    construct_ms.push_back(
        1e3 * time_run(construct, &unused_digest, &unused_events));
  }
  std::sort(construct_ms.begin(), construct_ms.end());

  const std::size_t nodes = cfg.wifi.size() + cfg.zigbee.size();
  out.push_back({label, nodes, events, rates.front(), rates[rates.size() / 2],
                 rates.back(), construct_ms[construct_ms.size() / 2],
                 peak_rss_mb()});
  std::printf("%-16s %5zu nodes: %9llu events, median %10.0f ev/s "
              "(min %.0f, max %.0f), construct %.3f ms, peak RSS %.1f MB\n",
              label.c_str(), nodes, static_cast<unsigned long long>(events),
              out.back().median_events_per_s, out.back().min_events_per_s,
              out.back().max_events_per_s, out.back().construct_ms,
              out.back().peak_rss_mb);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions opts;
  if (!bench::parse_cli(argc, argv, &opts)) return 1;
  if (opts.seed_set) g_seed = opts.seed;
  const std::string path = !opts.out.empty()        ? opts.out
                           : !opts.positionals.empty() ? opts.positionals[0]
                                                       : "BENCH_sim.json";
  const bool smoke = opts.smoke;

  std::vector<Point> points;
  const std::size_t counts[][2] = {{1, 1}, {2, 2}, {4, 4}, {8, 8}};
  for (const auto& c : counts) {
    if (!bench_point(grid_scenario(c[0], c[1]),
                     "grid_" + std::to_string(c[0] + c[1]), points)) {
      return 1;
    }
  }

  if (!smoke) {
    // Dense multi-channel campuses, where the link index, pruning and
    // segment-run delivery matter.  The simulated duration shrinks with
    // size to keep the sweep short; events/s is duration-independent.
    struct Campus {
      std::size_t gx, gy, sensors;
      double duration_s;
    };
    const Campus campuses[] = {
        {2, 2, 4, 1.0},     // 20 nodes
        {4, 4, 6, 0.5},     // 112 nodes
        {6, 6, 8, 0.3},     // 324 nodes
        {10, 10, 10, 0.5},  // 1100 nodes
    };
    for (const auto& c : campuses) {
      auto cfg = sim::campus_scenario(c.gx, c.gy, c.sensors, /*spacing_m=*/20.0,
                                      c.duration_s, g_seed);
      const std::size_t nodes = cfg.wifi.size() + cfg.zigbee.size();
      if (!bench_point(cfg, "campus_" + std::to_string(nodes), points)) {
        return 1;
      }
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", SLEDZIG_BUILD_TYPE);
  // Every run is a single run_scenario on the calling thread.
  std::fprintf(f, "  \"threads\": 1,\n");
  std::fprintf(f, "  \"repetitions\": %d,\n", kRepetitions);
  std::fprintf(f, "  \"deterministic\": true,\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "  \"%s\": {\"nodes\": %zu, \"events\": %llu, "
                 "\"min_events_per_s\": %.0f, \"median_events_per_s\": %.0f, "
                 "\"max_events_per_s\": %.0f, \"construct_ms\": %.4f, "
                 "\"peak_rss_mb\": %.1f}%s\n",
                 p.label.c_str(), p.nodes,
                 static_cast<unsigned long long>(p.events), p.min_events_per_s,
                 p.median_events_per_s, p.max_events_per_s, p.construct_ms,
                 p.peak_rss_mb, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

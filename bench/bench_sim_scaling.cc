// Machine-readable discrete-event engine benchmark: events/second versus
// node count, written as JSON (default BENCH_sim.json, override with the
// first non-flag argument).  Committed snapshots let later PRs regress the
// event loop's wall-time without re-reading bench logs.
//
// Every point is timed twice: once on the per-symbol reference path
// (fastpath off: per-symbol ZigBee delivery, no pruning, each run builds
// its own link cache) and once on the dense-deployment fast path (shared
// link cache + pruning + segment runs, the default).  Both arms run over
// the same indexed power tables and per-component ledgers, which every
// run builds.  The two trace digests are compared — on these geometries
// the fast path is bit-exact, so a speedup can never silently trade the
// engine's determinism away.  Each configuration is additionally run
// twice to guard repeatability.
//
// `--smoke` runs only the small grid points (CI determinism guard);
// the full sweep tops out at a 1100-node campus.  `--seed N` re-seeds the
// sweep, `--out PATH` (or the first positional) moves the snapshot.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
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

struct Point {
  std::string label;
  std::size_t nodes;
  std::uint64_t events;
  double ref_events_per_s;
  double fast_events_per_s;
};

/// Wall-time of one run (a warm-up run precedes every timed one).
double time_run(const sim::ScenarioConfig& cfg, std::uint64_t* digest,
                std::uint64_t* events) {
  const auto t0 = Clock::now();
  const auto r = sim::run_scenario(cfg);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  *digest = r.trace_digest;
  *events = r.events_processed;
  return s;
}

bool bench_point(const sim::ScenarioConfig& base, const std::string& label,
                 std::vector<Point>& out) {
  sim::ScenarioConfig fast = base;  // defaults: segment runs + pruning on
  // The cache is part of the fast path: built once per scenario and shared
  // by every run/replication of it.  The reference arm leaves it unset, so
  // each run re-derives the geometry inline — the pre-cache behaviour.
  fast.link_cache = sim::LinkCache::build(fast);
  sim::ScenarioConfig ref = base;
  ref.fastpath.segment_runs = false;
  ref.fastpath.prune = false;

  std::uint64_t warm_digest = 0, digest = 0, events = 0, warm_events = 0;
  time_run(fast, &warm_digest, &warm_events);  // warms allocator + tables
  // Best-of-N per arm: the minimum wall-time is the run least disturbed by
  // scheduler noise, which matters on small shared machines.  Every trial's
  // digest is still checked — repeatability and fast/reference equivalence
  // are part of the benchmark contract, not a separate test.
  constexpr int kTrials = 3;
  double fast_s = 1e300, ref_s = 1e300;
  for (int i = 0; i < kTrials; ++i) {
    fast_s = std::min(fast_s, time_run(fast, &digest, &events));
    if (digest != warm_digest) {
      std::fprintf(stderr, "FATAL: repeated fast run diverged at %s\n",
                   label.c_str());
      return false;
    }
  }
  for (int i = 0; i < kTrials; ++i) {
    ref_s = std::min(ref_s, time_run(ref, &warm_digest, &warm_events));
    if (warm_digest != digest || warm_events != events) {
      std::fprintf(stderr,
                   "FATAL: fast path diverged from per-symbol reference at %s\n",
                   label.c_str());
      return false;
    }
  }

  const std::size_t nodes = base.wifi.size() + base.zigbee.size();
  out.push_back({label, nodes, events,
                 static_cast<double>(events) / ref_s,
                 static_cast<double>(events) / fast_s});
  std::printf(
      "%-16s %5zu nodes: %9llu events, ref %10.0f ev/s, fast %10.0f ev/s "
      "(%.1fx)\n",
      label.c_str(), nodes, static_cast<unsigned long long>(events),
      out.back().ref_events_per_s, out.back().fast_events_per_s,
      out.back().fast_events_per_s / out.back().ref_events_per_s);
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
    // Dense multi-channel campuses: the fast path's target regime.  The
    // simulated duration shrinks with size so the reference path stays
    // benchmarkable; events/s is duration-independent.
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
  std::fprintf(f, "{\n  \"deterministic\": true,\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "  \"%s\": {\"nodes\": %zu, \"events\": %llu, "
                 "\"ref_events_per_s\": %.0f, \"fast_events_per_s\": %.0f, "
                 "\"speedup\": %.2f}%s\n",
                 p.label.c_str(), p.nodes,
                 static_cast<unsigned long long>(p.events), p.ref_events_per_s,
                 p.fast_events_per_s, p.fast_events_per_s / p.ref_events_per_s,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

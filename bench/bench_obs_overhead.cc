// Observability overhead guard: runs the discrete-event engine with its
// metric sink detached (cfg.metrics = nullptr), attached (a live registry,
// the production default), and traced (attached plus record_trace, with
// the run's Chrome spans rendered by sim::render_spans — what a span user
// pays), and writes BENCH_obs.json (override with argv[1]) with the median
// events/s of each mode.
//
// Two guards ride along:
//   * the trace digests of all three modes must match exactly (obs is
//     observational — attaching a sink can never perturb the simulation);
//   * the attached-mode overhead must stay under kMaxOverheadPct.  The
//     attached-vs-detached gap upper-bounds the registry cost.  The traced
//     overhead is reported only: it scales with the trace length, and
//     shared-runner noise is too high to gate it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"

using namespace sledzig;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMaxOverheadPct = 10.0;  // generous for shared-runner noise
constexpr int kReps = 7;

sim::ScenarioConfig grid_scenario() {
  sim::ScenarioConfig cfg;
  cfg.duration_s = 2.0;
  cfg.seed = 9;
  for (std::size_t i = 0; i < 4; ++i) {
    sim::WifiNodeConfig ap;
    ap.tx = {2.0 * static_cast<double>(i), 0.0};
    ap.rx = {2.0 * static_cast<double>(i), 3.0};
    cfg.wifi.push_back(ap);
    sim::ZigbeeNodeConfig mote;
    mote.tx = {1.0 + 2.0 * static_cast<double>(i), 4.0};
    mote.rx = {1.0 + 2.0 * static_cast<double>(i), 5.0};
    cfg.zigbee.push_back(mote);
  }
  return cfg;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_obs.json";
  obs::Registry registry;

  auto detached = grid_scenario();
  detached.metrics = nullptr;
  auto attached = grid_scenario();
  attached.metrics = &registry;
  auto traced = attached;
  traced.record_trace = true;

  // Warm allocator, PHY tables, and the registry's metric names.
  const auto warm_base = sim::run_scenario(detached);
  const auto warm_att = sim::run_scenario(attached);
  const auto warm_traced = sim::run_scenario(traced);
  if (warm_base.trace_digest != warm_att.trace_digest ||
      warm_base.trace_digest != warm_traced.trace_digest) {
    std::fprintf(stderr, "FATAL: an obs sink changed the digest\n");
    return 1;
  }

  // Interleave the modes so drift (thermal, scheduler) hits all equally.
  std::vector<double> base_eps;
  std::vector<double> att_eps;
  std::vector<double> traced_eps;
  std::size_t span_events = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    const auto rb = sim::run_scenario(detached);
    base_eps.push_back(
        static_cast<double>(rb.events_processed) /
        std::chrono::duration<double>(Clock::now() - t0).count());

    t0 = Clock::now();
    const auto ra = sim::run_scenario(attached);
    att_eps.push_back(
        static_cast<double>(ra.events_processed) /
        std::chrono::duration<double>(Clock::now() - t0).count());

    t0 = Clock::now();
    const auto rt = sim::run_scenario(traced);
    span_events = sim::render_spans(rt).size();
    traced_eps.push_back(
        static_cast<double>(rt.events_processed) /
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  const double base = median(base_eps);
  const double att = median(att_eps);
  const double tr = median(traced_eps);
  const double overhead_pct = (base / att - 1.0) * 100.0;
  const double traced_overhead_pct = (base / tr - 1.0) * 100.0;
  std::printf("detached: %10.0f events/s\nattached: %10.0f events/s\n"
              "traced:   %10.0f events/s (%zu spans and instants)\n"
              "overhead: %+.2f%% attached, %+.2f%% traced\n",
              base, att, tr, span_events, overhead_pct, traced_overhead_pct);

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"baseline_eps\": %.0f,\n"
               "  \"attached_eps\": %.0f,\n  \"overhead_pct\": %.2f,\n"
               "  \"traced_eps\": %.0f,\n  \"traced_overhead_pct\": %.2f\n}\n",
               base, att, overhead_pct, tr, traced_overhead_pct);
  std::fclose(f);
  std::printf("wrote %s\n", path);

  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr, "FATAL: metrics overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, kMaxOverheadPct);
    return 1;
  }
  return 0;
}

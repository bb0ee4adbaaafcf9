// Multi-node smart-home coexistence, on the discrete-event engine: N WiFi
// links contend with each other (CSMA backoff, energy-detect deferral)
// while M ZigBee sensor pairs run 802.15.4 CSMA/CA against the actual
// energy on the air.  Runs the whole scenario twice — normal WiFi vs
// SledZig — and prints per-node PRR, throughput and airtime, then once
// more under a hostile fault plan (random crashes, a burst jammer, clock
// drift) with runtime invariants on, to show graceful degradation and
// replay-from-seed (DESIGN.md §14).
//
//   $ ./coexistence_sim [n_wifi] [n_zigbee] [d_wz_metres] [chaos_seed]
//
// A second mode exercises the dense-deployment fast path (DESIGN.md §15):
// a generated campus of channel-planned APs with ZigBee sensors parked in
// their overlap windows, run once through the hybrid-fidelity engine and
// summarised in aggregate.
//
//   $ ./coexistence_sim campus [grid_x] [grid_y] [sensors_per_ap]
//
// A third mode runs the control-plane A/B (DESIGN.md §18): the mixed-load
// two-BSS topology with and without the runtime coexistence controller,
// printing every control action as it fires.
//
//   $ ./coexistence_sim control [duration_s] [seed]
//
// Declarative modes (DESIGN.md §17): run a scenario JSON file directly, or
// a whole campaign spec (grid × replications) against a result store —
//
//   $ ./coexistence_sim --scenario two_node.json
//   $ ./coexistence_sim --campaign sweep.json [--store results.jsonl]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "campaign/runner.h"
#include "sim/engine.h"
#include "sim/invariants.h"
#include "sim/link_cache.h"

using namespace sledzig;

namespace {

sim::ScenarioConfig smart_home(int n_wifi, int n_zigbee, double d_wz,
                               bool sledzig_on) {
  sim::ScenarioConfig cfg;
  cfg.sledzig.modulation = wifi::Modulation::kQam64;
  cfg.sledzig.rate = wifi::CodingRate::kR23;
  cfg.sledzig.channel = core::OverlapChannel::kCh4;  // ZigBee channel 26
  cfg.sledzig_enabled = sledzig_on;
  cfg.duration_s = 10.0;
  cfg.seed = 7;

  // WiFi APs along a wall, each serving a station 3 m into the room.
  for (int i = 0; i < n_wifi; ++i) {
    sim::WifiNodeConfig ap;
    ap.tx = {2.0 * i, 0.0};
    ap.rx = {2.0 * i, 3.0};
    ap.traffic = {sim::TrafficKind::kSaturated, 0.0, 1.0};
    cfg.wifi.push_back(ap);
  }
  // ZigBee sensor pairs across the room, d_wz metres from the wall.
  for (int j = 0; j < n_zigbee; ++j) {
    sim::ZigbeeNodeConfig mote;
    mote.tx = {1.0 + 2.0 * j, d_wz};
    mote.rx = {1.0 + 2.0 * j, d_wz + 1.0};
    mote.traffic = {sim::TrafficKind::kCbr, 6346.0, 1.0};
    cfg.zigbee.push_back(mote);
  }
  return cfg;
}

void report(const char* label, const sim::SimResult& r) {
  std::printf("%s  (%llu events)\n", label,
              static_cast<unsigned long long>(r.events_processed));
  for (std::size_t i = 0; i < r.wifi.size(); ++i) {
    const auto& s = r.wifi[i];
    std::printf("  wifi[%zu]    %8.2f Mbps   PRR %.3f   airtime %4.1f%%   "
                "sent %zu\n",
                i, s.throughput_kbps / 1e3, s.prr,
                s.airtime_fraction * 100.0, s.sent);
  }
  for (std::size_t j = 0; j < r.zigbee.size(); ++j) {
    const auto& s = r.zigbee[j];
    std::printf("  zigbee[%zu]  %8.2f Kbps   PRR %.3f   airtime %4.1f%%   "
                "sent %zu  cca-drop %zu  queue-drop %zu\n",
                j, s.throughput_kbps, s.prr, s.airtime_fraction * 100.0,
                s.sent, s.cca_dropped, s.queue_dropped);
  }
  std::size_t lost = 0;
  for (const auto* side : {&r.wifi, &r.zigbee}) {
    for (const auto& s : *side) lost += s.lost_to_crash;
  }
  if (lost > 0) {
    std::printf("  %zu frame(s) lost to node crashes\n", lost);
  }
}

/// The same smart home with everything going wrong at once.  The whole
/// fault timeline is a pure function of (config, seed): re-running with the
/// printed seed reproduces the run bit-for-bit, which is how any chaos
/// failure in tests/chaos_test.cc is replayed.
void chaos_demo(int n_wifi, int n_zigbee, double d_wz, std::uint64_t seed) {
  auto cfg = smart_home(n_wifi, n_zigbee, d_wz, true);
  cfg.seed = seed;
  cfg.duration_s = 5.0;
  cfg.faults.random.crash_rate_per_s = 2.0;    // nodes die and reboot
  cfg.faults.random.mean_downtime_us = 50000.0;
  cfg.faults.random.surge_rate_per_s = 1.0;    // traffic spikes 4x
  sim::JammerConfig jam;                       // burst jammer in the room
  jam.pos = {1.0, d_wz - 1.0};
  jam.mean_on_us = 3000.0;
  jam.mean_off_us = 30000.0;
  cfg.faults.jammers.push_back(jam);
  cfg.faults.clocks.assign(cfg.wifi.size() + cfg.zigbee.size(),
                           {/*skew_us=*/0.0, /*drift_ppm=*/80.0});
  cfg.invariants.enabled = true;  // every event checked as it happens

  try {
    const auto r = sim::run_scenario(cfg);
    std::printf("chaos plan (seed %llu, replayable)\n",
                static_cast<unsigned long long>(seed));
    report("  degraded but never wedged:", r);
  } catch (const sim::InvariantViolation& v) {
    std::printf("invariant violated at t=%.0f us — replay with seed %llu\n",
                v.time_us(), static_cast<unsigned long long>(v.seed()));
  }
}

/// Dense multi-channel campus through the fast path: too many nodes for a
/// per-node table, so report fleet aggregates plus the trace digest (the
/// run is a pure function of the config, so the digest identifies it).
int campus_demo(int argc, char** argv) {
  const std::size_t gx = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  const std::size_t gy = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 4;
  const std::size_t spa = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 6;
  auto cfg = sim::campus_scenario(gx, gy, spa, /*spacing_m=*/20.0,
                                  /*duration_s=*/0.5, /*seed=*/7);
  cfg.link_cache = sim::LinkCache::build(cfg);

  std::printf("Campus: %zux%zu APs (channels 1/6/11), %zu sensors each -> "
              "%zu WiFi + %zu ZigBee nodes, %.1f s simulated.\n\n",
              gx, gy, spa, cfg.wifi.size(), cfg.zigbee.size(),
              cfg.duration_s);

  // lint: allow(wall-clock): times the run for the printed events/s only
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = sim::run_scenario(cfg);
  // lint: allow(wall-clock): times the run for the printed events/s only
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  double wifi_mbps = 0.0, wifi_prr = 0.0;
  for (const auto& s : r.wifi) {
    wifi_mbps += s.throughput_kbps / 1e3;
    wifi_prr += s.prr;
  }
  double zig_kbps = 0.0, zig_prr = 0.0;
  std::size_t zig_sent = 0, zig_cca = 0;
  for (const auto& s : r.zigbee) {
    zig_kbps += s.throughput_kbps;
    zig_prr += s.prr;
    zig_sent += s.sent;
    zig_cca += s.cca_dropped;
  }
  std::printf("  wifi    %8.1f Mbps aggregate   mean PRR %.3f\n", wifi_mbps,
              wifi_prr / static_cast<double>(r.wifi.size()));
  std::printf("  zigbee  %8.1f Kbps aggregate   mean PRR %.3f   "
              "sent %zu   cca-drop %zu\n",
              zig_kbps, zig_prr / static_cast<double>(r.zigbee.size()),
              zig_sent, zig_cca);
  std::printf("  %llu events in %.2f s wall (%.0f events/s), "
              "trace digest %016llx\n",
              static_cast<unsigned long long>(r.events_processed), wall_s,
              static_cast<double>(r.events_processed) / wall_s,
              static_cast<unsigned long long>(r.trace_digest));
  std::printf("\nScale it up: ./coexistence_sim campus 10 10 10  "
              "(1100 nodes)\n");
  return 0;
}

/// Policy-vs-static A/B on the mixed-load two-BSS topology (DESIGN.md
/// §18): the same scenario and seed run once with static always-on SledZig
/// and once with the runtime controller (ZigBee channel hopping + SledZig
/// hysteresis), with every control action printed as it fires.
int control_demo(int argc, char** argv) {
  const double duration_s = argc > 2 ? std::atof(argv[2]) : 5.0;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2026;

  std::printf("Control-plane A/B: heavy BSS (ch 1, 80%% duty) with four "
              "motes in its\noverlap windows vs quiet BSS (ch 11, 10%% "
              "duty), %.1f s simulated, seed %llu.\n\n",
              duration_s, static_cast<unsigned long long>(seed));

  auto fixed = sim::control_ab_scenario(false, duration_s, seed);
  report("static SledZig (no controller)", sim::run_scenario(fixed));

  auto controlled = sim::control_ab_scenario(true, duration_s, seed);
  controlled.record_trace = true;
  const auto r = sim::run_scenario(controlled);
  std::printf("\n");
  report("runtime controller (hop + hysteresis)", r);
  std::printf("  control timeline:\n");
  for (const auto& e : r.trace) {
    switch (e.type) {
      case sim::TraceType::kControlSledzig:
        std::printf("    t=%8.0f us  SledZig %s\n", e.time_us,
                    e.aux != 0 ? "engaged" : "disengaged");
        break;
      case sim::TraceType::kControlHop:
        std::printf("    t=%8.0f us  node %u hops to 802.15.4 channel %d\n",
                    e.time_us, e.node, e.aux);
        break;
      case sim::TraceType::kControlShape:
        std::printf("    t=%8.0f us  wifi[%u] rate scaled to %.2f\n",
                    e.time_us, e.node,
                    static_cast<double>(e.aux) / 1000.0);
        break;
      default:
        break;
    }
  }
  std::printf("\nSame run, declaratively: ./coexistence_sim --campaign "
              "examples/campaigns/control_ab.json\n");
  return 0;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void print_errors(const std::vector<sim::ConfigError>& errors) {
  for (const auto& e : errors) {
    std::fprintf(stderr, "  %s: %s\n", e.field.c_str(), e.message.c_str());
  }
}

/// Runs a declarative scenario file (campaign/scenario_json.h) once and
/// reports it like the built-in modes.
int scenario_mode(const std::string& path) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  sim::ScenarioConfig cfg;
  std::vector<sim::ConfigError> errors;
  if (!campaign::scenario_from_text(text, &cfg, &errors)) {
    std::fprintf(stderr, "%s: invalid scenario:\n", path.c_str());
    print_errors(errors);
    return 1;
  }
  std::printf("Scenario %s: %zu WiFi + %zu ZigBee node(s), %.1f s "
              "simulated, seed %llu.\n\n",
              path.c_str(), cfg.wifi.size(), cfg.zigbee.size(),
              cfg.duration_s, static_cast<unsigned long long>(cfg.seed));
  report("declarative scenario", sim::run_scenario(cfg));
  return 0;
}

/// Runs a campaign spec end-to-end (one shard, default threads) against a
/// result store, then prints the aggregate digest.
int campaign_mode(const std::string& path, const std::string& store) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  campaign::CampaignSpec spec;
  std::vector<sim::ConfigError> errors;
  if (!campaign_from_text(text, &spec, &errors)) {
    std::fprintf(stderr, "%s: invalid campaign:\n", path.c_str());
    print_errors(errors);
    return 1;
  }
  campaign::RunnerOptions opts;
  opts.store_path = store.empty() ? spec.name + ".results.jsonl" : store;
  campaign::RunnerReport rep;
  if (!run_campaign(spec, opts, &rep, &errors)) {
    std::fprintf(stderr, "campaign failed:\n");
    print_errors(errors);
    return 2;
  }
  std::printf("campaign '%s': %zu item(s), resumed %zu, ran %zu -> %s\n",
              spec.name.c_str(), rep.items_total, rep.items_resumed,
              rep.items_run, opts.store_path.c_str());
  std::printf("store digest %s%s\n", campaign::hex64(rep.digest).c_str(),
              rep.complete ? "" : " (incomplete)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "campus") == 0) {
    return campus_demo(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "control") == 0) {
    return control_demo(argc, argv);
  }
  if (argc > 1 && argv[1][0] == '-') {
    bench::CliOptions opts;
    if (!bench::parse_cli(argc, argv, &opts)) return 1;
    if (!opts.scenario.empty()) return scenario_mode(opts.scenario);
    if (!opts.campaign.empty()) {
      return campaign_mode(opts.campaign, opts.store);
    }
    std::fprintf(stderr,
                 "usage: coexistence_sim [--scenario FILE | --campaign FILE "
                 "[--store FILE]]\n");
    return 1;
  }
  const int n_wifi = argc > 1 ? std::atoi(argv[1]) : 2;
  const int n_zigbee = argc > 2 ? std::atoi(argv[2]) : 2;
  const double d_wz = argc > 3 ? std::atof(argv[3]) : 4.0;

  std::printf("Smart home: %d WiFi link(s) vs %d ZigBee pair(s), %.1f m "
              "apart, 10 s simulated.\n"
              "ZigBee interference-free ceiling ~63 Kbps per pair.\n\n",
              n_wifi, n_zigbee, d_wz);

  report("normal WiFi",
         sim::run_scenario(smart_home(n_wifi, n_zigbee, d_wz, false)));
  std::printf("\n");
  report("SledZig (QAM-64 2/3)",
         sim::run_scenario(smart_home(n_wifi, n_zigbee, d_wz, true)));

  std::printf("\n");
  const std::uint64_t chaos_seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 7;
  chaos_demo(n_wifi, n_zigbee, d_wz, chaos_seed);

  std::printf("\nTry more nodes or closer APs: ./coexistence_sim 3 4 2.0\n");
  return 0;
}

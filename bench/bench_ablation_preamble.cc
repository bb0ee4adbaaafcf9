// Ablation: how much does the *unprotected WiFi preamble* cost ZigBee?
//
// Section IV-F of the paper concedes that SledZig cannot touch the 16 us
// preamble, which stays at full band power and corrupts overlapping ZigBee
// symbols.  This bench re-runs the Fig 15 sweep with a hypothetical
// "preamble also reduced" variant (preamble in-band power set equal to the
// SledZig payload level) to quantify the headroom a preamble-aware design
// would unlock — the paper's implicit future work.
//
// Each trial is one discrete-event engine run of the two-node testbed; 40
// seeds per cell because every run draws one shadowing value for a ZigBee
// link that sits near the -85 dBm sensitivity cliff.  Trials fan out over
// the deterministic parallel sweep engine (identical for any thread count).
#include <array>
#include <memory>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "sim/engine.h"
#include "sim/link_cache.h"

using namespace sledzig;

namespace {

constexpr std::array<double, 6> kDistances = {1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
constexpr std::size_t kSeeds = 40;

sim::ScenarioConfig scenario(double d_z, std::uint64_t seed) {
  return sim::two_node_paper_scenario(
      core::SledzigConfig{wifi::Modulation::kQam256, wifi::CodingRate::kR34,
                          core::OverlapChannel::kCh4},
      /*sledzig_on=*/true, /*wifi_duty_ratio=*/1.0, /*d_wz_m=*/6.0, d_z,
      /*duration_s=*/15.0, seed);
}

/// The engine reads every received power from the scenario's link cache,
/// and the cache stores the WiFi preamble and payload levels separately —
/// so the hypothetical variant is a copy of the real cache with each WiFi
/// transmitter's preamble clamped to its payload level, handed to the run
/// through ScenarioConfig::link_cache.  Everything else (geometry,
/// shadowing draws, MAC timelines) stays exactly as in the standard run.
std::shared_ptr<const sim::LinkCache> reduced_preamble_cache(
    const sim::ScenarioConfig& cfg) {
  auto cache = std::make_shared<sim::LinkCache>(*sim::LinkCache::build(cfg));
  for (auto& link : cache->coupled) {
    if (link.tx < cache->num_wifi) link.preamble_dbm = link.payload_dbm;
  }
  return cache;
}

}  // namespace

int main() {
  // Flat trial index per (distance, arm, seed); arm 0 is the standard
  // preamble, arm 1 the hypothetical reduced one.
  const auto trials =
      common::parallel_map(kDistances.size() * 2 * kSeeds, [&](std::size_t i) {
        const std::size_t cell = i / kSeeds;
        auto cfg = scenario(kDistances[cell / 2], 1 + i % kSeeds);
        if (cell % 2 == 1) cfg.link_cache = reduced_preamble_cache(cfg);
        return sim::run_scenario(cfg).zigbee[0].throughput_kbps;
      });

  bench::title("Ablation: preamble cost (Fig 15 setup, SledZig QAM-256/CH4)");
  bench::row("  %-7s %-18s %-22s", "d_Z(m)", "standard preamble",
             "hypothetical reduced");
  for (std::size_t d = 0; d < kDistances.size(); ++d) {
    double mean[2];
    for (std::size_t arm = 0; arm < 2; ++arm) {
      const std::size_t cell = d * 2 + arm;
      std::vector<double> vals(trials.begin() + static_cast<long>(cell * kSeeds),
                               trials.begin() +
                                   static_cast<long>((cell + 1) * kSeeds));
      mean[arm] = common::mean(vals);
    }
    bench::row("  %-7.1f %-18.1f %-22.1f", kDistances[d], mean[0], mean[1]);
  }
  bench::note("The residual gap at large d_Z is the receiver-sensitivity");
  bench::note("cliff; the preamble costs throughput at every distance.");
  return 0;
}

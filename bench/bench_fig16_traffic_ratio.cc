// Fig 16: ZigBee throughput vs WiFi duration ratio (20%..90%) at close
// range (d_WZ = 1 m, d_Z = 0.5 m, CH3).  Box-plot statistics over seeds.
// Paper: normal WiFi ~23 Kbps at 20% then near zero; SledZig keeps high
// throughput up to ~20% (QAM-16), ~40% (QAM-64), ~70% (QAM-256; mean
// 34.5 Kbps, lower quartile ~20 Kbps at 70%).
//
// Each trial is one discrete-event engine run of the two-node testbed with
// the WiFi node on a closed-loop duty-cycle source.
#include <array>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "sim/engine.h"

using namespace sledzig;

namespace {

constexpr std::array<double, 8> kRatios = {0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7, 0.8, 0.9};
constexpr std::size_t kSeeds = 12;

void sweep(const char* label, wifi::Modulation m, wifi::CodingRate r,
           bool sledzig_on) {
  // All (ratio, seed) trials of this scheme fan out at once; the box stats
  // per ratio are computed serially from the gathered values.
  const auto trials =
      common::parallel_map(kRatios.size() * kSeeds, [&](std::size_t i) {
        const auto cfg = sim::two_node_paper_scenario(
            core::SledzigConfig{m, r, core::OverlapChannel::kCh3}, sledzig_on,
            kRatios[i / kSeeds], /*d_wz_m=*/1.0, /*d_z_m=*/0.5,
            /*duration_s=*/15.0, /*seed=*/1 + i % kSeeds);
        return sim::run_scenario(cfg).zigbee[0].throughput_kbps;
      });

  bench::row("  %s", label);
  bench::row("  %-9s %-8s %-8s %-8s %-8s %-8s", "ratio(%)", "min", "q1",
             "median", "q3", "max");
  for (std::size_t ri = 0; ri < kRatios.size(); ++ri) {
    std::vector<double> vals(trials.begin() + static_cast<long>(ri * kSeeds),
                             trials.begin() +
                                 static_cast<long>((ri + 1) * kSeeds));
    const auto b = common::box_stats(vals);
    bench::row("  %-9.0f %-8.1f %-8.1f %-8.1f %-8.1f %-8.1f",
               kRatios[ri] * 100, b.min, b.q1, b.median, b.q3, b.max);
  }
}

}  // namespace

int main() {
  bench::title("Fig 16: ZigBee throughput vs WiFi duration ratio");
  bench::note("d_WZ = 1 m, d_Z = 0.5 m, CH3; 12 seeds per box.");
  sweep("normal WiFi (paper: ~23 Kbps @20%, ~0 beyond)",
        wifi::Modulation::kQam64, wifi::CodingRate::kR23, false);
  sweep("SledZig QAM-16 (paper: works at 20%)", wifi::Modulation::kQam16,
        wifi::CodingRate::kR12, true);
  sweep("SledZig QAM-64 (paper: works to ~40%)", wifi::Modulation::kQam64,
        wifi::CodingRate::kR23, true);
  sweep("SledZig QAM-256 (paper: works to ~70%, mean 34.5 Kbps there)",
        wifi::Modulation::kQam256, wifi::CodingRate::kR34, true);
  return 0;
}

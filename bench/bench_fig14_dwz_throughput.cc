// Fig 14: ZigBee throughput vs WiFi-to-ZigBee distance d_WZ under
// continuous (saturated) WiFi traffic.
//   (a) CH1-CH3 window (we use CH3 like the paper's discussion):
//       normal WiFi needs d_WZ >= ~8.5 m; SledZig shrinks the cutoff to
//       ~5 / 4.5 / 3.5 m for QAM-16/64/256.
//   (b) CH4: everything shifts closer; QAM-256 works from ~1 m.
//
// Every trial is one run of the discrete-event engine on the paper's
// two-node testbed (sim::two_node_paper_scenario).  The trial grid
// (distance x scheme x seed) runs through the deterministic parallel sweep
// engine: every trial is seeded independently, so the table is
// bit-identical for any SLEDZIG_THREADS value.
#include <array>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "sim/engine.h"

using namespace sledzig;

namespace {

struct Column {
  wifi::Modulation m;
  wifi::CodingRate r;
  bool sledzig_on;
};

constexpr std::array<Column, 4> kColumns = {{
    {wifi::Modulation::kQam64, wifi::CodingRate::kR23, false},
    {wifi::Modulation::kQam16, wifi::CodingRate::kR12, true},
    {wifi::Modulation::kQam64, wifi::CodingRate::kR23, true},
    {wifi::Modulation::kQam256, wifi::CodingRate::kR34, true},
}};

constexpr std::array<double, 11> kDistances = {1.0, 2.0, 3.0, 3.5, 4.0, 4.5,
                                               5.0, 6.0, 7.0, 8.5, 10.0};
constexpr std::size_t kSeeds = 3;

void sweep(core::OverlapChannel ch, const char* label) {
  // One flat trial index per (distance, column, seed); trials are
  // independent, so the whole table fans out over the pool at once.
  const std::size_t cells = kDistances.size() * kColumns.size();
  const auto trials =
      common::parallel_map(cells * kSeeds, [&](std::size_t i) {
        const std::size_t cell = i / kSeeds;
        const Column& col = kColumns[cell % kColumns.size()];
        const auto cfg = sim::two_node_paper_scenario(
            core::SledzigConfig{col.m, col.r, ch}, col.sledzig_on,
            /*wifi_duty_ratio=*/1.0, kDistances[cell / kColumns.size()],
            /*d_z_m=*/1.0, /*duration_s=*/20.0, /*seed=*/1 + i % kSeeds);
        return sim::run_scenario(cfg).zigbee[0].throughput_kbps;
      });

  bench::title(std::string("Fig 14") + label);
  bench::row("  %-7s %-9s %-9s %-9s %-9s", "d_WZ(m)", "normal", "QAM-16",
             "QAM-64", "QAM-256");
  for (std::size_t d = 0; d < kDistances.size(); ++d) {
    double mean[kColumns.size()];
    for (std::size_t c = 0; c < kColumns.size(); ++c) {
      const std::size_t cell = d * kColumns.size() + c;
      std::vector<double> vals(trials.begin() + static_cast<long>(cell * kSeeds),
                               trials.begin() +
                                   static_cast<long>((cell + 1) * kSeeds));
      mean[c] = common::mean(vals);
    }
    bench::row("  %-7.1f %-9.1f %-9.1f %-9.1f %-9.1f", kDistances[d], mean[0],
               mean[1], mean[2], mean[3]);
  }
}

}  // namespace

int main() {
  bench::note("ZigBee: gain 31, d_Z = 1 m, saturated WiFi at gain 15.");
  bench::note("Interference-free reference throughput ~63 Kbps.");
  sweep(core::OverlapChannel::kCh3,
        "(a): CH3 (CH1-CH3 family).  Paper cutoffs: normal 8.5 m, "
        "QAM-16 5 m, QAM-64 4.5 m, QAM-256 3.5 m");
  sweep(core::OverlapChannel::kCh4,
        "(b): CH4.  Paper: QAM-256 usable from ~1 m");
  return 0;
}

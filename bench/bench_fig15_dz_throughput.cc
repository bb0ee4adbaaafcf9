// Fig 15: ZigBee throughput vs ZigBee link distance d_Z, CH4, d_WZ = 6 m,
// continuous WiFi.  Paper: throughput collapses once d_Z reaches ~1.6 m —
// the ZigBee signal falls to the practical receiver sensitivity and the
// full-power WiFi preamble finishes the job; SledZig helps little there.
//
// Each trial is one discrete-event engine run of the two-node testbed.
// Every run draws one shadowing value for the ZigBee link, and near the
// -85 dBm sensitivity cliff that draw decides most of the run, so each
// cell averages 40 seeds (a 5-seed mean is mostly luck).  Trials fan out
// over the deterministic parallel sweep engine; each trial is keyed by its
// own seed, so the table is identical for any thread count.
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

constexpr std::array<double, 6> kDistances = {1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
constexpr std::size_t kSeeds = 40;

}  // namespace

int main() {
  const std::size_t cells = kDistances.size() * kColumns.size();
  const auto trials = common::parallel_map(cells * kSeeds, [](std::size_t i) {
    const std::size_t cell = i / kSeeds;
    const Column& col = kColumns[cell % kColumns.size()];
    const auto cfg = sim::two_node_paper_scenario(
        core::SledzigConfig{col.m, col.r, core::OverlapChannel::kCh4},
        col.sledzig_on, /*wifi_duty_ratio=*/1.0, /*d_wz_m=*/6.0,
        kDistances[cell / kColumns.size()], /*duration_s=*/20.0,
        /*seed=*/1 + i % kSeeds);
    return sim::run_scenario(cfg).zigbee[0].throughput_kbps;
  });

  bench::title("Fig 15: ZigBee throughput vs d_Z (CH4, d_WZ = 6 m)");
  bench::note("Paper: near zero from d_Z ~ 1.6 m for every scheme.");
  bench::row("  %-7s %-9s %-9s %-9s %-9s", "d_Z(m)", "normal", "QAM-16",
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
  return 0;
}

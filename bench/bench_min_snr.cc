// Validation of Table IV's "minimum SNR" column: packet error rate of the
// sample-domain WiFi receiver vs SNR for every paper mode.  The default
// receiver decodes soft decisions (LLRs), and its PER cliff sits at the
// paper's quoted thresholds; the last column feeds the same decoder hard
// decisions (LLRs of +-1, `soft_decision = false`) at the threshold, which
// shows the classic ~2 dB penalty.  The *ordering* across modes is what
// matters for the reproduction.
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"

using namespace sledzig;

namespace {

double packet_error_rate(wifi::Modulation m, wifi::CodingRate r,
                         double snr_db, int trials, bool soft = true) {
  const auto point = static_cast<std::int64_t>(snr_db * 10);
  common::Rng rng(common::derive_seed(77, static_cast<std::uint64_t>(point)));
  int errors = 0;
  for (int t = 0; t < trials; ++t) {
    const auto psdu = rng.bytes(300);
    wifi::WifiTxConfig tx;
    tx.modulation = m;
    tx.rate = r;
    auto packet = wifi::wifi_transmit(psdu, tx);
    const double noise = common::db_to_linear(-snr_db);
    for (auto& s : packet.samples) s += rng.complex_gaussian(noise);
    wifi::WifiRxConfig rxcfg;
    rxcfg.soft_decision = soft;
    const auto rx = wifi::wifi_receive(packet.samples, rxcfg);
    if (!rx.signal_valid || rx.psdu != psdu) ++errors;
  }
  return static_cast<double>(errors) / trials;
}

}  // namespace

int main() {
  bench::title("Table IV validation: PER vs SNR (sample-domain receiver)");
  bench::row("  %-8s %-5s %-10s  %s", "QAM", "rate", "paper SNR",
             "PER at SNR = paper-2, paper, paper+2, paper+4, paper+6 dB");
  for (const auto& mode : wifi::paper_phy_modes()) {
    std::printf("  %-8s %-5s %-10.0f ",
                wifi::to_string(mode.modulation).c_str(),
                wifi::to_string(mode.rate).c_str(), mode.min_snr_db);
    for (double delta : {-2.0, 0.0, 2.0, 4.0, 6.0}) {
      std::printf(" %5.2f",
                  packet_error_rate(mode.modulation, mode.rate,
                                    mode.min_snr_db + delta, 6));
    }
    std::printf("   hard@paper: %4.2f\n",
                packet_error_rate(mode.modulation, mode.rate,
                                  mode.min_snr_db, 6, /*soft=*/false));
  }
  bench::note("With soft decisions the PER cliff sits at the paper's");
  bench::note("thresholds; the hard-decision column shows the ~2 dB penalty.");
  return 0;
}

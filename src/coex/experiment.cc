#include "coex/experiment.h"

#include <cmath>

#include "common/units.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sledzig/encoder.h"
#include "wifi/preamble.h"
#include "wifi/transmitter.h"
#include "zigbee/cc2420.h"
#include "zigbee/transmitter.h"

namespace sledzig::coex {

WifiInbandPower wifi_inband_power(const core::SledzigConfig& cfg,
                                  Scheme scheme, double wifi_gain,
                                  double distance_m) {
  const common::Dbm wifi_total = channel::wifi_link().received_power_dbm(
      channel::wifi_tx_power_dbm(wifi_gain), distance_m);
  const auto offsets =
      measure_inband_offsets(cfg, scheme == Scheme::kSledzig);
  return {wifi_total + offsets.payload_offset_db,
          wifi_total + offsets.preamble_offset_db};
}

namespace {

/// Measured-RSSI distribution histograms, one per measurement chain.  Each
/// chain resolves its handle once, into a function-local static, and
/// observes a single value per call.
/// Observational only — nothing reads these back into results.
obs::Histogram rssi_histogram(const char* name) {
  constexpr double kDbmBounds[] = {-100, -95, -90, -85, -80, -75, -70, -65,
                                   -60,  -55, -50, -45, -40, -35, -30};
  return obs::Registry::global().histogram(name, kDbmBounds);
}

/// Emits `samples` at received power `power_dbm`, centred `freq_offset_hz`
/// from the receiver, over AWGN and the given impairment chain; returns the
/// receiver baseband.
common::CplxVec through_channel(const common::CplxVec& samples,
                                common::Dbm power_dbm,
                                common::Hz freq_offset_hz, common::Rng& rng,
                                const channel::ImpairmentConfig& impairment = {},
                                std::uint64_t impairment_seed = 0) {
  channel::Emission e{&samples, power_dbm.value(), freq_offset_hz.value(), 0,
                      &impairment, impairment_seed};
  return channel::mix_at_receiver(std::vector<channel::Emission>{e},
                                  samples.size(), rng);
}

}  // namespace

double measure_wifi_rssi_at_zigbee(const core::SledzigConfig& cfg,
                                   Scheme scheme, double wifi_gain,
                                   double distance_m, std::uint64_t seed,
                                   std::size_t forced_subcarriers,
                                   const channel::ImpairmentConfig& impairment) {
  SLEDZIG_PROF_SCOPE("coex.measure_wifi_rssi_at_zigbee");
  common::Rng rng(seed);
  core::SledzigConfig sz = cfg;
  if (forced_subcarriers != 0) sz.forced_subcarriers = forced_subcarriers;

  wifi::WifiTxConfig tx;
  tx.modulation = sz.modulation;
  tx.rate = sz.rate;
  tx.scrambler_seed = sz.scrambler_seed;

  const auto payload = rng.bytes(600);
  common::Bytes psdu = payload;
  if (scheme == Scheme::kSledzig) {
    psdu = core::sledzig_encode(payload, sz).transmit_psdu;
  }
  const auto packet = wifi::wifi_transmit(psdu, tx);

  const common::Dbm rx_power =
      channel::wifi_link().received_power_dbm(
          channel::wifi_tx_power_dbm(wifi_gain), distance_m) +
      common::Db{rng.gaussian(channel::kShadowingSigmaDb.value())};
  const auto rx = through_channel(packet.samples, rx_power, common::Hz{0.0},
                                  rng, impairment, seed);

  // The CC2420 averages RSSI over the packet payload; skip preamble+SIGNAL.
  const std::size_t payload_start = wifi::kPreambleLen + wifi::kSymbolLen;
  const double rssi = channel::rssi_2mhz_dbm(
      std::span<const common::Cplx>(rx).subspan(payload_start),
      core::channel_center_offset_hz(sz.channel));
  static const obs::Histogram hist =
      rssi_histogram("coex.rssi.wifi_at_zigbee_dbm");
  hist.observe(rssi);
  return rssi;
}

double measure_zigbee_rssi(unsigned zigbee_gain, double distance_m,
                           std::uint64_t seed,
                           const channel::ImpairmentConfig& impairment) {
  common::Rng rng(seed);
  const auto tx = zigbee::zigbee_transmit(rng.bytes(60));
  const common::Dbm rx_power =
      channel::zigbee_link().received_power_dbm(
          zigbee::tx_power_dbm(zigbee_gain), distance_m) +
      common::Db{rng.gaussian(channel::kShadowingSigmaDb.value())};
  const auto rx = through_channel(tx.samples, rx_power, common::Hz{0.0}, rng,
                                  impairment, seed);
  const double rssi = channel::rssi_2mhz_dbm(rx, 0.0);
  static const obs::Histogram hist = rssi_histogram("coex.rssi.zigbee_dbm");
  hist.observe(rssi);
  return rssi;
}

WifiRxRssi measure_rssi_at_wifi_rx(double wifi_gain, unsigned zigbee_gain,
                                   double distance_m, std::uint64_t seed,
                                   const channel::ImpairmentConfig& impairment) {
  common::Rng rng(seed);
  WifiRxRssi result{};
  {
    wifi::WifiTxConfig tx;
    tx.modulation = wifi::Modulation::kQam64;
    tx.rate = wifi::CodingRate::kR23;
    const auto packet = wifi::wifi_transmit(rng.bytes(400), tx);
    const common::Dbm rx_power =
        channel::wifi_link().received_power_dbm(
            channel::wifi_tx_power_dbm(wifi_gain), distance_m) +
        common::Db{rng.gaussian(channel::kShadowingSigmaDb.value())};
    const auto rx = through_channel(packet.samples, rx_power, common::Hz{0.0},
                                    rng, impairment, seed);
    result.wifi_dbm = common::Dbm{channel::rssi_2mhz_slice_dbm(rx)};
  }
  {
    const auto tx = zigbee::zigbee_transmit(rng.bytes(60));
    const common::Dbm rx_power =
        channel::zigbee_link().received_power_dbm(
            zigbee::tx_power_dbm(zigbee_gain), distance_m) +
        common::Db{rng.gaussian(channel::kShadowingSigmaDb.value())};
    // The ZigBee device sits on channel 26 (+8 MHz from the WiFi centre in
    // the paper's setup); the USRP's wideband RSSI sees it wherever it is.
    // lint: allow(seed-derivation): legacy `seed + 1` decorrelates the two
    // impairment chains of this figure; rerouting it through derive_seed
    // would shift every Fig 17 digest for zero behavioural gain.
    const auto rx = through_channel(tx.samples, rx_power, common::Hz{8e6}, rng,
                                    impairment, seed + 1);
    result.zigbee_dbm = common::Dbm{channel::rssi_2mhz_slice_dbm(rx)};
  }
  return result;
}

double wifi_throughput_mbps(const core::SledzigConfig& cfg, Scheme scheme,
                            double duty_ratio) {
  // PHY rate: N_DBPS per 4 us symbol.
  const double dbps = static_cast<double>(
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate));
  double rate_mbps = dbps / wifi::kSymbolDurationUs;
  if (scheme == Scheme::kSledzig) {
    rate_mbps *= 1.0 - core::throughput_loss(cfg);
  }
  return rate_mbps * duty_ratio;
}

}  // namespace sledzig::coex

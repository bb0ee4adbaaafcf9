// Tests for the PHY-side coexistence measurements: PHY-measured in-band
// offsets, the in-band WiFi power the engine's link tables are built from,
// and the sample-domain RSSI experiments.
#include <gtest/gtest.h>

#include <utility>

#include "coex/experiment.h"
#include "sledzig/power_analysis.h"
#include "zigbee/cc2420.h"

namespace sledzig::coex {
namespace {

using core::OverlapChannel;
using wifi::CodingRate;
using wifi::Modulation;

core::SledzigConfig cfg(Modulation m, CodingRate r, OverlapChannel ch) {
  core::SledzigConfig c;
  c.modulation = m;
  c.rate = r;
  c.channel = ch;
  return c;
}

TEST(Inband, SledzigReducesPayloadNotPreamble) {
  for (auto ch : {OverlapChannel::kCh2, OverlapChannel::kCh4}) {
    const auto c = cfg(Modulation::kQam64, CodingRate::kR23, ch);
    const auto normal = measure_inband_offsets(c, false);
    const auto sled = measure_inband_offsets(c, true);
    EXPECT_LT(sled.payload_offset_db.value(), normal.payload_offset_db.value() - 4.0)
        << to_string(ch);
    EXPECT_NEAR(sled.preamble_offset_db.value(), normal.preamble_offset_db.value(),
                0.7)
        << to_string(ch);
  }
}

TEST(Inband, MemoKeysOnTheWholePlan) {
  // Pairs that differ only in a field the measurement reads, queried in
  // both orders: neither plan may be served the other's memo entry.
  core::SledzigConfig lo;
  lo.window_offsets_hz = {-5e6};
  core::SledzigConfig hi = lo;
  hi.window_offsets_hz = {3e6};
  core::SledzigConfig seed_a;
  core::SledzigConfig seed_b = seed_a;
  seed_b.scrambler_seed = 0x2a;
  for (const auto& [a, b] : {std::pair{lo, hi}, std::pair{seed_a, seed_b}}) {
    const auto payload = [](const core::SledzigConfig& c) {
      return measure_inband_offsets(c, true).payload_offset_db.value();
    };
    const double a_first = payload(a);
    const double b_first = payload(b);
    const double b_again = payload(b);
    const double a_again = payload(a);
    EXPECT_NE(a_first, b_first);
    EXPECT_EQ(a_again, a_first);
    EXPECT_EQ(b_again, b_first);
  }
}

TEST(Inband, ReductionOrderedByModulation) {
  for (auto ch : core::kAllOverlapChannels) {
    const auto r16 = measure_inband_offsets(
        cfg(Modulation::kQam16, CodingRate::kR12, ch), true);
    const auto r64 = measure_inband_offsets(
        cfg(Modulation::kQam64, CodingRate::kR23, ch), true);
    const auto r256 = measure_inband_offsets(
        cfg(Modulation::kQam256, CodingRate::kR34, ch), true);
    EXPECT_LT(r64.payload_offset_db.value(), r16.payload_offset_db.value())
        << to_string(ch);
    EXPECT_LT(r256.payload_offset_db.value(), r64.payload_offset_db.value())
        << to_string(ch);
  }
}

TEST(Inband, Ch4ReductionNearPaper14dB) {
  // The paper's headline: up to 14 dB decrease (QAM-256 on CH4, where
  // spectral leakage caps the 19.3 dB constellation gap).
  const auto c = cfg(Modulation::kQam256, CodingRate::kR34, OverlapChannel::kCh4);
  const auto normal = measure_inband_offsets(c, false);
  const auto sled = measure_inband_offsets(c, true);
  const double reduction =
      (normal.payload_offset_db - sled.payload_offset_db).value();
  EXPECT_GT(reduction, 12.0);
  EXPECT_LT(reduction, 17.0);
}

TEST(Inband, MeasuredReductionTracksIdealWithLeakageLoss) {
  // Measured reduction <= ideal (leakage + pilot), within a few dB.
  for (auto ch : core::kAllOverlapChannels) {
    for (auto m : {Modulation::kQam16, Modulation::kQam64}) {
      const auto c = cfg(m, CodingRate::kR34, ch);
      const auto normal = measure_inband_offsets(c, false);
      const auto sled = measure_inband_offsets(c, true);
      const double measured =
          (normal.payload_offset_db - sled.payload_offset_db).value();
      const double ideal = core::ideal_inband_reduction_db(c).value();
      EXPECT_LT(measured, ideal + 0.8) << to_string(ch) << wifi::to_string(m);
      EXPECT_GT(measured, ideal - 3.5) << to_string(ch) << wifi::to_string(m);
    }
  }
}

TEST(Experiment, LinkBudgetAnchors) {
  // Normal WiFi in a CH1-CH3 window at 1 m: about -60 dBm (Fig 12).
  const auto inband = wifi_inband_power(
      cfg(Modulation::kQam64, CodingRate::kR23, OverlapChannel::kCh2),
      Scheme::kNormalWifi, /*wifi_gain=*/15.0, /*distance_m=*/1.0);
  EXPECT_NEAR(inband.payload_dbm.value(), -61.0, 2.0);
  // ZigBee link at 1 m, gain 31: about -80 dBm (Fig 13).
  const common::Dbm zigbee_dbm = channel::zigbee_link().received_power_dbm(
      zigbee::tx_power_dbm(31), 1.0);
  EXPECT_NEAR(zigbee_dbm.value(), -80.4, 0.5);
}

TEST(Experiment, SledzigLowersInbandBudget) {
  // SledZig lowers the in-band payload; the preamble stays at full power.
  const auto c = cfg(Modulation::kQam256, CodingRate::kR34, OverlapChannel::kCh4);
  const auto normal = wifi_inband_power(c, Scheme::kNormalWifi, 15.0, 2.0);
  const auto sled = wifi_inband_power(c, Scheme::kSledzig, 15.0, 2.0);
  EXPECT_LT(sled.payload_dbm.value(), normal.payload_dbm.value() - 12.0);
  EXPECT_NEAR(sled.preamble_dbm.value(), normal.preamble_dbm.value(), 0.7);
}

TEST(Experiment, RssiExperimentsMatchPaperLevels) {
  // Fig 12 anchor points (QAM-64, 1 m, gain 15), averaged over the
  // shadowing jitter.
  const auto c2 = cfg(Modulation::kQam64, CodingRate::kR23, OverlapChannel::kCh2);
  double normal = 0.0, sled = 0.0;
  const int runs = 5;
  for (int s = 0; s < runs; ++s) {
    normal += measure_wifi_rssi_at_zigbee(c2, Scheme::kNormalWifi, 15, 1.0,
                                          100 + s);
    sled += measure_wifi_rssi_at_zigbee(c2, Scheme::kSledzig, 15, 1.0, 100 + s);
  }
  EXPECT_NEAR(normal / runs, -61.0, 2.5);
  EXPECT_NEAR(sled / runs, -67.5, 2.5);
}

TEST(Experiment, ZigbeeRssiMatchesFig13) {
  EXPECT_NEAR(measure_zigbee_rssi(31, 0.5, 6), -75.0, 3.0);
  // Low gain at 1 m is buried in the noise floor.
  EXPECT_NEAR(measure_zigbee_rssi(3, 1.0, 6), -91.0, 2.0);
}

TEST(Experiment, WifiRxSeesZigbee30dBBelowWifi) {
  // Fig 17: at 0.5 m the ZigBee signal at the WiFi receiver is ~30 dB below
  // the WiFi signal and near the noise floor by 2 m.  Averaged over the
  // shadowing jitter.
  double wifi_half = 0.0, zb_half = 0.0, zb_two = 0.0;
  const int runs = 5;
  for (int s = 0; s < runs; ++s) {
    const auto at_half = measure_rssi_at_wifi_rx(15, 31, 0.5, 200 + s);
    wifi_half += at_half.wifi_dbm.value();
    zb_half += at_half.zigbee_dbm.value();
    zb_two += measure_rssi_at_wifi_rx(15, 31, 2.0, 200 + s).zigbee_dbm.value();
  }
  EXPECT_NEAR(wifi_half / runs, -56.6, 2.5);
  EXPECT_NEAR(zb_half / runs, -84.3, 2.5);
  EXPECT_GT(wifi_half / runs - zb_half / runs, 24.0);
  EXPECT_LT(zb_two / runs, -87.0);
}

TEST(Experiment, WifiThroughputLossMatchesTableIv) {
  const auto c = cfg(Modulation::kQam16, CodingRate::kR34, OverlapChannel::kCh4);
  const double normal = wifi_throughput_mbps(c, Scheme::kNormalWifi);
  const double sled = wifi_throughput_mbps(c, Scheme::kSledzig);
  EXPECT_NEAR(normal, 36.0, 1e-9);  // 144 bits / 4 us
  EXPECT_NEAR((normal - sled) / normal, 0.0694, 1e-3);
}

}  // namespace
}  // namespace sledzig::coex

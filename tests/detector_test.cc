// Tests for the ZigBee-activity detector, the adaptive controller and the
// multi-channel protection extension.
#include <gtest/gtest.h>

#include "channel/medium.h"
#include "coex/detector.h"
#include "common/rng.h"
#include "sledzig/encoder.h"
#include "wifi/qam.h"
#include "wifi/subcarriers.h"
#include "wifi/transmitter.h"
#include "zigbee/transmitter.h"

namespace sledzig::coex {
namespace {

using core::OverlapChannel;

common::CplxVec zigbee_on_air(OverlapChannel ch, double power_dbm,
                              common::Rng& rng, std::size_t total = 40000) {
  const auto tx = zigbee::zigbee_transmit(rng.bytes(40));
  channel::Emission e{&tx.samples, power_dbm,
                      core::channel_center_offset_hz(ch), 1000};
  return channel::mix_at_receiver(std::vector<channel::Emission>{e}, total,
                                  rng);
}

TEST(Detector, FindsActiveChannel) {
  common::Rng rng(401);
  for (OverlapChannel ch : core::kAllOverlapChannels) {
    const auto rx = zigbee_on_air(ch, -70.0, rng);
    const auto detections = detect_zigbee_activity(rx);
    ASSERT_FALSE(detections.empty()) << core::to_string(ch);
    EXPECT_EQ(detections.front().channel, ch);
    EXPECT_NEAR(detections.front().band_power_dbm, -70.0, 3.0);
    EXPECT_GT(detections.front().chip_correlation, 0.35);
  }
}

TEST(Detector, SilentBandYieldsNothing) {
  common::Rng rng(402);
  const auto rx = channel::mix_at_receiver({}, 40000, rng);
  EXPECT_TRUE(detect_zigbee_activity(rx).empty());
}

TEST(Detector, RejectsWifiEnergy) {
  // A WiFi packet has plenty of in-band energy on every ZigBee channel but
  // must not be classified as ZigBee (the correlation gate).
  common::Rng rng(403);
  wifi::WifiTxConfig tx;
  tx.modulation = wifi::Modulation::kQam64;
  tx.rate = wifi::CodingRate::kR23;
  const auto packet = wifi::wifi_transmit(rng.bytes(600), tx);
  channel::Emission e{&packet.samples, -55.0, 0.0, 0};
  const auto rx = channel::mix_at_receiver(std::vector<channel::Emission>{e},
                                           packet.samples.size(), rng);
  const auto detections = detect_zigbee_activity(rx);
  EXPECT_TRUE(detections.empty());
}

TEST(Detector, TwoSimultaneousChannels) {
  common::Rng rng(404);
  const auto tx1 = zigbee::zigbee_transmit(rng.bytes(30));
  const auto tx2 = zigbee::zigbee_transmit(rng.bytes(30));
  std::vector<channel::Emission> emissions = {
      {&tx1.samples, -68.0,
       core::channel_center_offset_hz(OverlapChannel::kCh1), 500},
      {&tx2.samples, -72.0,
       core::channel_center_offset_hz(OverlapChannel::kCh4), 500},
  };
  const auto rx = channel::mix_at_receiver(emissions, 40000, rng);
  const auto detections = detect_zigbee_activity(rx);
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_EQ(detections[0].channel, OverlapChannel::kCh1);  // stronger first
  EXPECT_EQ(detections[1].channel, OverlapChannel::kCh4);
}

TEST(Detector, BelowEnergyThresholdIgnored) {
  common::Rng rng(405);
  const auto rx = zigbee_on_air(OverlapChannel::kCh2, -89.0, rng);
  DetectorConfig cfg;
  cfg.energy_threshold_dbm = -85.0;
  EXPECT_TRUE(detect_zigbee_activity(rx, cfg).empty());
}

TEST(AdaptiveController, HysteresisOnOff) {
  AdaptiveController ctrl(AdaptiveController::Params{2, 3, 2});
  const std::vector<ZigbeeDetection> ch2 = {
      {OverlapChannel::kCh2, -70.0, 0.8}};
  const std::vector<ZigbeeDetection> none;

  EXPECT_FALSE(ctrl.observe(ch2));  // 1st sighting: not yet
  EXPECT_TRUE(ctrl.protected_channels().empty());
  EXPECT_TRUE(ctrl.observe(ch2));   // 2nd: protect
  ASSERT_EQ(ctrl.protected_channels().size(), 1u);
  EXPECT_EQ(ctrl.protected_channels()[0], OverlapChannel::kCh2);

  EXPECT_FALSE(ctrl.observe(none));  // idle 1
  EXPECT_FALSE(ctrl.observe(none));  // idle 2
  EXPECT_TRUE(ctrl.observe(none));   // idle 3: release
  EXPECT_TRUE(ctrl.protected_channels().empty());
}

TEST(AdaptiveController, ConfigCarriesExtraChannels) {
  AdaptiveController ctrl(AdaptiveController::Params{1, 3, 2});
  const std::vector<ZigbeeDetection> both = {
      {OverlapChannel::kCh1, -65.0, 0.8},
      {OverlapChannel::kCh4, -70.0, 0.7}};
  ctrl.observe(both);
  const auto cfg =
      ctrl.config(wifi::Modulation::kQam64, wifi::CodingRate::kR23);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->channel, OverlapChannel::kCh1);
  ASSERT_EQ(cfg->extra_channels.size(), 1u);
  EXPECT_EQ(cfg->extra_channels[0], OverlapChannel::kCh4);
}

TEST(AdaptiveController, RespectsMaxChannels) {
  AdaptiveController ctrl(AdaptiveController::Params{1, 3, 2});
  std::vector<ZigbeeDetection> three = {
      {OverlapChannel::kCh1, -65.0, 0.8},
      {OverlapChannel::kCh2, -66.0, 0.8},
      {OverlapChannel::kCh3, -67.0, 0.8}};
  ctrl.observe(three);
  EXPECT_EQ(ctrl.protected_channels().size(), 2u);
}

TEST(AdaptiveController, NoDetectionsNoConfig) {
  AdaptiveController ctrl;
  EXPECT_FALSE(
      ctrl.config(wifi::Modulation::kQam16, wifi::CodingRate::kR12).has_value());
}

TEST(AdaptiveController, OrderingIsStrengthDescThenChannelAsc) {
  // The protected list must be a pure function of the observation history:
  // strongest activity first, equal strengths broken by channel id.  The
  // order the detections arrive in must not matter.
  AdaptiveController ctrl(AdaptiveController::Params{1, 5, 4});
  const std::vector<ZigbeeDetection> shuffled = {
      {OverlapChannel::kCh2, -70.0, 0.8},
      {OverlapChannel::kCh4, -65.0, 0.8},
      {OverlapChannel::kCh1, -70.0, 0.8},
      {OverlapChannel::kCh3, -60.0, 0.8}};
  EXPECT_TRUE(ctrl.observe(shuffled));
  const auto& prot = ctrl.protected_channels();
  ASSERT_EQ(prot.size(), 4u);
  EXPECT_EQ(prot[0], OverlapChannel::kCh3);  // -60: strongest
  EXPECT_EQ(prot[1], OverlapChannel::kCh4);  // -65
  EXPECT_EQ(prot[2], OverlapChannel::kCh1);  // -70 tie: lower channel first
  EXPECT_EQ(prot[3], OverlapChannel::kCh2);  // -70 tie
}

TEST(AdaptiveController, OffThresholdCountingSurvivesRankRebuild) {
  // Regression: a rank change on *another* channel rebuilds the protected
  // list; the rebuild must not restart the idle count of a channel that is
  // on its way out.  Release happens exactly at off_threshold idle scans.
  AdaptiveController ctrl(AdaptiveController::Params{1, 3, 2});
  const std::vector<ZigbeeDetection> both = {
      {OverlapChannel::kCh1, -60.0, 0.8},
      {OverlapChannel::kCh2, -65.0, 0.8}};
  EXPECT_TRUE(ctrl.observe(both));
  ASSERT_EQ(ctrl.protected_channels().size(), 2u);
  EXPECT_EQ(ctrl.protected_channels()[0], OverlapChannel::kCh1);

  // Ch2 goes idle; Ch1 stays at full strength.  Rank unchanged.
  const std::vector<ZigbeeDetection> ch1_strong = {
      {OverlapChannel::kCh1, -60.0, 0.8}};
  EXPECT_FALSE(ctrl.observe(ch1_strong));  // Ch2 idle 1

  // Ch1 weakens below Ch2's last strength: rank flips, forcing a rebuild
  // while Ch2 is mid-count.
  const std::vector<ZigbeeDetection> ch1_weak = {
      {OverlapChannel::kCh1, -72.0, 0.8}};
  EXPECT_TRUE(ctrl.observe(ch1_weak));  // Ch2 idle 2, now ranked first
  ASSERT_EQ(ctrl.protected_channels().size(), 2u);
  EXPECT_EQ(ctrl.protected_channels()[0], OverlapChannel::kCh2);
  EXPECT_EQ(ctrl.protected_channels()[1], OverlapChannel::kCh1);

  // Third consecutive idle scan == off_threshold: released exactly now,
  // not three scans after the rebuild.
  EXPECT_TRUE(ctrl.observe(ch1_weak));  // Ch2 idle 3: release
  ASSERT_EQ(ctrl.protected_channels().size(), 1u);
  EXPECT_EQ(ctrl.protected_channels()[0], OverlapChannel::kCh1);
}

TEST(AdaptiveController, OffThresholdCountingSurvivesTruncation) {
  // A stronger newcomer can push a protected channel past max_channels.
  // Truncation out of the visible list must not restart its idle count
  // either: once idle scans hit off_threshold the state fully releases.
  AdaptiveController ctrl(AdaptiveController::Params{1, 2, 2});
  const std::vector<ZigbeeDetection> both = {
      {OverlapChannel::kCh1, -60.0, 0.8},
      {OverlapChannel::kCh2, -65.0, 0.8}};
  EXPECT_TRUE(ctrl.observe(both));
  ASSERT_EQ(ctrl.protected_channels().size(), 2u);

  // Ch3 arrives stronger than everything while Ch2 goes idle: Ch2 is
  // truncated out of the two-slot list on the same scan.
  const std::vector<ZigbeeDetection> newcomer = {
      {OverlapChannel::kCh1, -60.0, 0.8},
      {OverlapChannel::kCh3, -55.0, 0.8}};
  EXPECT_TRUE(ctrl.observe(newcomer));  // Ch2 idle 1, truncated
  ASSERT_EQ(ctrl.protected_channels().size(), 2u);
  EXPECT_EQ(ctrl.protected_channels()[0], OverlapChannel::kCh3);
  EXPECT_EQ(ctrl.protected_channels()[1], OverlapChannel::kCh1);

  // One more idle scan reaches off_threshold == 2: Ch2's protection state
  // is gone, so a single fresh sighting re-admits it (on_threshold == 1)
  // rather than resuming a half-released entry.
  EXPECT_FALSE(ctrl.observe(newcomer));  // Ch2 idle 2: releases (invisible)
  const std::vector<ZigbeeDetection> ch2_back = {
      {OverlapChannel::kCh2, -50.0, 0.8}};
  EXPECT_TRUE(ctrl.observe(ch2_back));
  ASSERT_EQ(ctrl.protected_channels().size(), 2u);
  EXPECT_EQ(ctrl.protected_channels()[0], OverlapChannel::kCh2);
}

// ------------------------------------------------- multi-channel encoding

TEST(MultiChannel, UnionSubcarrierSet) {
  core::SledzigConfig cfg;
  cfg.channel = OverlapChannel::kCh1;
  cfg.extra_channels = {OverlapChannel::kCh4};
  const auto set = cfg.forced_subcarrier_set();
  EXPECT_EQ(set.size(), 12u);  // 7 (CH1) + 5 (CH4)
  EXPECT_EQ(core::significant_bits_per_symbol(
                core::SledzigConfig{wifi::Modulation::kQam64,
                                    wifi::CodingRate::kR23,
                                    OverlapChannel::kCh1,
                                    {OverlapChannel::kCh4}}),
            12u * 4u);
}

TEST(MultiChannel, EncodeDecodeRoundTrip) {
  common::Rng rng(406);
  core::SledzigConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  cfg.channel = OverlapChannel::kCh2;
  cfg.extra_channels = {OverlapChannel::kCh4};
  const auto payload = rng.bytes(200);
  const auto enc = core::sledzig_encode(payload, cfg);
  EXPECT_EQ(enc.num_collisions, 0u);
  EXPECT_EQ(enc.num_violations, 0u);
  const auto dec = core::sledzig_decode(enc.transmit_psdu, cfg);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, payload);
}

TEST(MultiChannel, BothWindowsForcedOnAir) {
  common::Rng rng(407);
  core::SledzigConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  cfg.channel = OverlapChannel::kCh2;
  cfg.extra_channels = {OverlapChannel::kCh4};
  const auto enc = core::sledzig_encode(rng.bytes(300), cfg);

  wifi::WifiTxConfig tx;
  tx.modulation = cfg.modulation;
  tx.rate = cfg.rate;
  const auto packet = wifi::wifi_transmit(enc.transmit_psdu, tx);
  const std::size_t dbps =
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate);
  const std::size_t full_symbols = (enc.transmit_psdu.size() * 8) / dbps;
  const std::size_t first = enc.num_unforced_head > 0 ? 1 : 0;
  const auto& plan = wifi::channel_plan(wifi::ChannelWidth::k20MHz);
  for (std::size_t s = first; s < full_symbols; ++s) {
    for (int logical : cfg.forced_subcarrier_set()) {
      const int pos = plan.data_position(logical);
      EXPECT_TRUE(wifi::is_lowest_point(
          packet.data_points[s * wifi::kNumDataSubcarriers +
                             static_cast<std::size_t>(pos)],
          cfg.modulation))
          << "symbol " << s << " sc " << logical;
    }
  }
}

TEST(MultiChannel, CostGrowsWithChannels) {
  core::SledzigConfig one{wifi::Modulation::kQam64, wifi::CodingRate::kR23,
                          OverlapChannel::kCh2};
  core::SledzigConfig two = one;
  two.extra_channels = {OverlapChannel::kCh4};
  EXPECT_GT(core::throughput_loss(two), core::throughput_loss(one));
  EXPECT_NEAR(core::throughput_loss(two),
              core::throughput_loss(one) + 20.0 / 192.0, 1e-9);
}

}  // namespace
}  // namespace sledzig::coex

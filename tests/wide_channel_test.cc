// Tests for the 40 MHz extension: plan geometry, wide-channel WiFi PHY
// loopback and SledZig over explicit windows (the paper's footnote 1:
// "the similar idea can be easily extended to wider channel scenarios").
#include <gtest/gtest.h>

#include "common/dsp.h"
#include "common/rng.h"
#include "common/units.h"
#include "sledzig/encoder.h"
#include "wifi/interleaver.h"
#include "wifi/preamble.h"
#include "wifi/qam.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"

namespace sledzig {
namespace {

using wifi::ChannelWidth;
using wifi::CodingRate;
using wifi::Modulation;

const wifi::ChannelPlan& plan40() {
  return wifi::channel_plan(ChannelWidth::k40MHz);
}

TEST(Plan40, Geometry) {
  const auto& p = plan40();
  EXPECT_EQ(p.fft_size, 128u);
  EXPECT_EQ(p.cp_len, 32u);
  EXPECT_EQ(p.num_data(), 108u);
  EXPECT_EQ(p.pilot_indices.size(), 6u);
  EXPECT_NEAR(p.subcarrier_spacing_hz(), 312500.0, 1e-6);
  EXPECT_EQ(p.symbol_len(), 160u);  // still 4 us at 40 MS/s
  // DC nulls and pilots are not data subcarriers.
  for (int l : {-1, 0, 1, -53, -25, -11, 11, 25, 53}) {
    EXPECT_EQ(p.data_position(l), -1) << l;
  }
  EXPECT_EQ(p.data_position(-58), 0);
  EXPECT_EQ(p.data_position(58), 107);
}

TEST(Plan40, Plan20MatchesLegacyConstants) {
  const auto& p = wifi::channel_plan(ChannelWidth::k20MHz);
  EXPECT_EQ(p.fft_size, wifi::kNumSubcarriers);
  EXPECT_EQ(p.num_data(), wifi::kNumDataSubcarriers);
  EXPECT_EQ(p.cp_len, wifi::kCyclicPrefixLen);
  // 802.11 17.3.5.10: data on -26..26 except DC and the pilots at +-7, +-21.
  std::vector<int> standard_data;
  for (int l = -26; l <= 26; ++l) {
    if (l != 0 && std::abs(l) != 7 && std::abs(l) != 21) {
      standard_data.push_back(l);
    }
  }
  EXPECT_EQ(p.data_indices, standard_data);
  EXPECT_EQ(p.pilot_indices, (std::vector<int>{-21, -7, 7, 21}));
}

TEST(Plan40, BitCounts) {
  EXPECT_EQ(wifi::coded_bits_per_symbol(Modulation::kQam64, plan40()), 648u);
  EXPECT_EQ(
      wifi::data_bits_per_symbol(Modulation::kQam64, CodingRate::kR23, plan40()),
      432u);
  EXPECT_EQ(wifi::coded_bits_per_symbol(Modulation::kQam256, plan40()), 864u);
}

TEST(Plan40, InterleaverBijective) {
  for (auto m : {Modulation::kBpsk, Modulation::kQam16, Modulation::kQam64,
                 Modulation::kQam256}) {
    const auto perm = wifi::interleaver_permutation(m, plan40());
    std::vector<bool> seen(perm.size(), false);
    for (auto j : perm) {
      ASSERT_LT(j, perm.size());
      EXPECT_FALSE(seen[j]);
      seen[j] = true;
    }
  }
}

TEST(Plan40, PreambleStructure) {
  EXPECT_EQ(wifi::preamble_len(ChannelWidth::k40MHz), 640u);  // 16 us at 40 MS/s
  const auto& stf = wifi::short_training_field(ChannelWidth::k40MHz);
  ASSERT_EQ(stf.size(), 320u);
  // Periodic with period 32 (fft/4).
  for (std::size_t i = 32; i < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i - 32]), 0.0, 1e-9);
  }
  EXPECT_NEAR(common::mean_power(wifi::long_training_symbol(ChannelWidth::k40MHz)),
              104.0 / 114.0, 0.02);
}

class Wide40Loopback
    : public ::testing::TestWithParam<std::pair<Modulation, CodingRate>> {};

TEST_P(Wide40Loopback, CleanChannelExactRecovery) {
  common::Rng rng(501);
  const auto psdu = rng.bytes(400);
  wifi::WifiTxConfig tx;
  tx.modulation = GetParam().first;
  tx.rate = GetParam().second;
  tx.width = ChannelWidth::k40MHz;
  const auto packet = wifi::wifi_transmit(psdu, tx);

  wifi::WifiRxConfig rx;
  rx.width = ChannelWidth::k40MHz;
  const auto result = wifi::wifi_receive(packet.samples, rx);
  ASSERT_TRUE(result.detected);
  ASSERT_TRUE(result.signal_valid);
  EXPECT_EQ(result.signal.modulation, tx.modulation);
  EXPECT_EQ(result.psdu, psdu);
}

TEST_P(Wide40Loopback, NoisyRecovery) {
  common::Rng rng(502);
  const auto psdu = rng.bytes(200);
  wifi::WifiTxConfig tx;
  tx.modulation = GetParam().first;
  tx.rate = GetParam().second;
  tx.width = ChannelWidth::k40MHz;
  auto packet = wifi::wifi_transmit(psdu, tx);
  const double noise = common::db_to_linear(-38.0);
  for (auto& s : packet.samples) s += rng.complex_gaussian(noise);

  wifi::WifiRxConfig rx;
  rx.width = ChannelWidth::k40MHz;
  const auto result = wifi::wifi_receive(packet.samples, rx);
  ASSERT_TRUE(result.detected);
  EXPECT_EQ(result.psdu, psdu);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, Wide40Loopback,
    ::testing::Values(std::pair{Modulation::kQam16, CodingRate::kR12},
                      std::pair{Modulation::kQam64, CodingRate::kR23},
                      std::pair{Modulation::kQam64, CodingRate::kR56},
                      std::pair{Modulation::kQam256, CodingRate::kR34}));

// --------------------------------------------------------- SledZig on 40 MHz

core::SledzigConfig wide_config(double window_offset_hz) {
  core::SledzigConfig cfg;
  cfg.modulation = Modulation::kQam64;
  cfg.rate = CodingRate::kR23;
  cfg.width = ChannelWidth::k40MHz;
  cfg.window_offsets_hz = {window_offset_hz};
  return cfg;
}

TEST(Sledzig40, WindowSelection) {
  // A 40 MHz channel centred between WiFi channels overlaps up to 8 ZigBee
  // channels; a window at +13 MHz covers subcarriers ~37.4..45.8.
  const auto subs = core::window_data_subcarriers(plan40(), 13e6);
  EXPECT_FALSE(subs.empty());
  for (int s : subs) {
    EXPECT_GE(s, 37);
    EXPECT_LE(s, 46);
  }
  // The 20 MHz rule reproduces the paper's defaults.
  const auto& p20 = wifi::channel_plan(ChannelWidth::k20MHz);
  EXPECT_EQ(core::window_data_subcarriers(p20, -2e6),
            core::forced_data_subcarriers(core::OverlapChannel::kCh2));
  EXPECT_EQ(core::window_data_subcarriers(p20, 8e6),
            core::forced_data_subcarriers(core::OverlapChannel::kCh4));
}

TEST(Sledzig40, ZigbeeOffsetHelper) {
  // ZigBee channel 22 (2460 MHz) from a 2462 MHz 40 MHz-centre: -2 MHz.
  EXPECT_NEAR(core::zigbee_offset_hz(22, 2462e6), -2e6, 1);
}

TEST(Sledzig40, EncodeDecodeRoundTrip) {
  common::Rng rng(503);
  const auto cfg = wide_config(13e6);
  for (std::size_t len : {1u, 60u, 300u}) {
    const auto payload = rng.bytes(len);
    const auto enc = core::sledzig_encode(payload, cfg);
    EXPECT_EQ(enc.num_collisions, 0u) << len;
    EXPECT_EQ(enc.num_violations, 0u) << len;
    const auto dec = core::sledzig_decode(enc.transmit_psdu, cfg);
    ASSERT_TRUE(dec.has_value()) << len;
    EXPECT_EQ(*dec, payload) << len;
  }
}

TEST(Sledzig40, ForcedSubcarriersCarryLowestPoints) {
  common::Rng rng(504);
  const auto cfg = wide_config(-17e6);  // window near the lower band edge
  const auto enc = core::sledzig_encode(rng.bytes(400), cfg);

  wifi::WifiTxConfig tx;
  tx.modulation = cfg.modulation;
  tx.rate = cfg.rate;
  tx.width = ChannelWidth::k40MHz;
  const auto packet = wifi::wifi_transmit(enc.transmit_psdu, tx);

  const auto& plan = plan40();
  const std::size_t dbps =
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate, plan);
  const std::size_t full_symbols = (enc.transmit_psdu.size() * 8) / dbps;
  const std::size_t first = enc.num_unforced_head > 0 ? 1 : 0;
  ASSERT_GE(full_symbols, 2u);
  for (std::size_t s = first; s < full_symbols; ++s) {
    for (int logical : cfg.forced_subcarrier_set()) {
      const int pos = plan.data_position(logical);
      ASSERT_GE(pos, 0);
      EXPECT_TRUE(wifi::is_lowest_point(
          packet.data_points[s * plan.num_data() + static_cast<std::size_t>(pos)],
          cfg.modulation))
          << "symbol " << s << " sc " << logical;
    }
  }
}

TEST(Sledzig40, InbandPowerReduced) {
  // Spectrum-level check at 40 MS/s: the protected window loses ~6+ dB.
  common::Rng rng(505);
  const auto cfg = wide_config(13e6);
  const auto enc = core::sledzig_encode(rng.bytes(600), cfg);

  wifi::WifiTxConfig tx;
  tx.modulation = cfg.modulation;
  tx.rate = cfg.rate;
  tx.width = ChannelWidth::k40MHz;
  const auto sled = wifi::wifi_transmit(enc.transmit_psdu, tx);
  const auto normal = wifi::wifi_transmit(rng.bytes(enc.transmit_psdu.size()), tx);

  const std::size_t payload_start =
      wifi::preamble_len(ChannelWidth::k40MHz) + plan40().symbol_len();
  auto band = [&](const common::CplxVec& samples) {
    return common::linear_to_db(common::band_power(
        std::span<const common::Cplx>(samples).subspan(payload_start), 40e6,
        12e6, 14e6));
  };
  EXPECT_GT(band(normal.samples) - band(sled.samples), 5.0);
}

TEST(Sledzig40, MultiWindow) {
  common::Rng rng(506);
  auto cfg = wide_config(13e6);
  cfg.window_offsets_hz.push_back(-12e6);
  const auto payload = rng.bytes(150);
  const auto enc = core::sledzig_encode(payload, cfg);
  EXPECT_EQ(enc.num_collisions, 0u);
  const auto dec = core::sledzig_decode(enc.transmit_psdu, cfg);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, payload);
}

TEST(Sledzig40, WideWithoutWindowThrows) {
  core::SledzigConfig cfg;
  cfg.width = ChannelWidth::k40MHz;
  EXPECT_THROW(cfg.forced_subcarrier_set(), std::invalid_argument);
}

}  // namespace
}  // namespace sledzig

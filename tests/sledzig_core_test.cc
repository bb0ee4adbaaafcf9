// Tests for the SledZig core: channel geometry, significant-bit pipeline
// (exact Table II reproduction), the extra-bit encoder/decoder and the
// end-to-end lowest-point property through the *unmodified* WiFi chain.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sledzig/channels.h"
#include "sledzig/encoder.h"
#include "sledzig/power_analysis.h"
#include "sledzig/significant_bits.h"
#include "wifi/qam.h"
#include "wifi/signal_field.h"
#include "wifi/subcarriers.h"
#include "wifi/transmitter.h"

namespace sledzig::core {
namespace {

using common::Bytes;
using wifi::CodingRate;
using wifi::Modulation;

// ------------------------------------------------------------ channel maps

TEST(Channels, SubcarrierWindows) {
  // CH1 window -26..-19 (pilot -21), CH2 -10..-3 (pilot -7),
  // CH3 +6..+13 (pilot +7), CH4 +22..+26 data (27..29 are null).
  EXPECT_EQ(forced_data_subcarriers(OverlapChannel::kCh1),
            (std::vector<int>{-26, -25, -24, -23, -22, -20, -19}));
  EXPECT_EQ(forced_data_subcarriers(OverlapChannel::kCh2),
            (std::vector<int>{-10, -9, -8, -6, -5, -4, -3}));
  EXPECT_EQ(forced_data_subcarriers(OverlapChannel::kCh3),
            (std::vector<int>{6, 8, 9, 10, 11, 12, 13}));
  EXPECT_EQ(forced_data_subcarriers(OverlapChannel::kCh4),
            (std::vector<int>{22, 23, 24, 25, 26}));
}

TEST(Channels, DefaultCounts) {
  EXPECT_EQ(default_forced_count(OverlapChannel::kCh1), 7u);
  EXPECT_EQ(default_forced_count(OverlapChannel::kCh2), 7u);
  EXPECT_EQ(default_forced_count(OverlapChannel::kCh3), 7u);
  EXPECT_EQ(default_forced_count(OverlapChannel::kCh4), 5u);
}

TEST(Channels, PilotMembership) {
  EXPECT_TRUE(window_contains_pilot(OverlapChannel::kCh1));
  EXPECT_TRUE(window_contains_pilot(OverlapChannel::kCh2));
  EXPECT_TRUE(window_contains_pilot(OverlapChannel::kCh3));
  EXPECT_FALSE(window_contains_pilot(OverlapChannel::kCh4));
}

TEST(Channels, FrequencyOffsets) {
  EXPECT_NEAR(channel_center_offset_hz(OverlapChannel::kCh1), -7e6, 1);
  EXPECT_NEAR(channel_center_offset_hz(OverlapChannel::kCh4), 8e6, 1);
  // WiFi channel 13 at 2472 MHz; ZigBee 23..26 at 2465/2470/2475/2480:
  EXPECT_NEAR(wifi_channel_frequency_hz(13), 2472e6, 1);
  for (OverlapChannel ch : kAllOverlapChannels) {
    const double zb =
        2405e6 + 5e6 * static_cast<double>(testbed_zigbee_channel(ch) - 11);
    EXPECT_NEAR(wifi_channel_frequency_hz(13) + channel_center_offset_hz(ch),
                zb, 1);
  }
}

TEST(Channels, OverlapInverse) {
  for (OverlapChannel ch : kAllOverlapChannels) {
    const auto back = overlap_for_zigbee_channel(testbed_zigbee_channel(ch));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, ch);
  }
  EXPECT_FALSE(overlap_for_zigbee_channel(11).has_value());
}

TEST(Channels, Fig11SweepCounts) {
  for (OverlapChannel ch : kAllOverlapChannels) {
    for (std::size_t count : {5u, 6u, 7u, 8u}) {
      const auto subs = forced_data_subcarriers(ch, count);
      EXPECT_EQ(subs.size(), count);
      // All chosen subcarriers are data subcarriers.
      for (int s : subs) {
        EXPECT_GE(
            wifi::channel_plan(wifi::ChannelWidth::k20MHz).data_position(s),
            0);
      }
    }
  }
}

// --------------------------------------------------------------- Table II

TEST(SignificantBits, TableIiExactReproduction) {
  // Paper Table II: QAM-16, CH2, first OFDM symbol, 1-based positions p_k in
  // the coded stream and encoder steps n.
  SledzigConfig cfg;
  cfg.modulation = Modulation::kQam16;
  cfg.rate = CodingRate::kR12;
  cfg.channel = OverlapChannel::kCh2;

  const auto bits = significant_bits_for_symbol(cfg, 0);
  ASSERT_EQ(bits.size(), 14u);

  const std::size_t expected_p[] = {29, 30, 41, 42, 77, 78, 89,
                                    90, 125, 138, 172, 173, 183, 186};
  const std::size_t expected_n[] = {15, 15, 21, 21, 39, 39, 45,
                                    45, 63, 69, 86, 87, 92, 93};
  for (std::size_t k = 0; k < bits.size(); ++k) {
    EXPECT_EQ(bits[k].punctured_pos + 1, expected_p[k]) << "k=" << k + 1;
    EXPECT_EQ(bits[k].step + 1, expected_n[k]) << "k=" << k + 1;
  }
}

TEST(SignificantBits, TableIiTwinStructure) {
  SledzigConfig cfg;
  cfg.modulation = Modulation::kQam16;
  cfg.rate = CodingRate::kR12;
  cfg.channel = OverlapChannel::kCh2;
  const auto plan = build_constraint_plan(cfg, 0, 96);  // first symbol
  // Steps 15/21/39/45 (1-based) are twins; 63, 69, 86, 87, 92, 93 singles.
  EXPECT_EQ(plan.num_twins, 4u);
  EXPECT_EQ(plan.num_singles, 6u);
  EXPECT_EQ(plan.extra_positions.size(), 14u);
  EXPECT_EQ(plan.num_unforced(), 0u);
}

TEST(SignificantBits, LoneTwinUsesPaperExtraPositions) {
  // Algorithm 1 of the paper inserts a twin's extra bits at x_{n-5} and
  // x_{n-1}.  Table II's first twin is at step n = 15 (1-based): the extras
  // go to 0-based stream positions 9 and 13.
  SledzigConfig cfg;
  cfg.modulation = Modulation::kQam16;
  cfg.rate = CodingRate::kR12;
  cfg.channel = OverlapChannel::kCh2;
  const auto plan = build_constraint_plan(cfg, 0, 96);
  ASSERT_FALSE(plan.clusters.empty());
  // Table II's first two twins (steps 15 and 21, 1-based) are 6 steps apart,
  // so they form one cluster; each twin takes its paper positions
  // (n-5, n-1): {9, 13} and {15, 19}.
  const auto& first = plan.clusters.front();
  ASSERT_EQ(first.equations.size(), 4u);
  EXPECT_EQ(first.equations[0].step, 14u);
  EXPECT_EQ(first.equations[2].step, 20u);
  EXPECT_EQ(first.positions, (std::vector<std::size_t>{9, 13, 15, 19}));
  // And a lone single forces x_n itself.
  for (const auto& cluster : plan.clusters) {
    if (cluster.equations.size() == 1) {
      EXPECT_EQ(cluster.positions[0], cluster.equations[0].step);
    }
  }
}

// -------------------------------------------------- Table III (extra bits)

struct TableIiiRow {
  Modulation m;
  CodingRate r;
  std::size_t bits_per_symbol;
  std::size_t extra_ch13;
  std::size_t extra_ch4;
};

class TableIii : public ::testing::TestWithParam<TableIiiRow> {};

TEST_P(TableIii, ExtraBitCounts) {
  const auto& row = GetParam();
  EXPECT_EQ(wifi::data_bits_per_symbol(row.m, row.r), row.bits_per_symbol);
  for (OverlapChannel ch :
       {OverlapChannel::kCh1, OverlapChannel::kCh2, OverlapChannel::kCh3}) {
    SledzigConfig cfg{row.m, row.r, ch};
    EXPECT_EQ(extra_bits_per_symbol(cfg), row.extra_ch13) << to_string(ch);
  }
  SledzigConfig cfg4{row.m, row.r, OverlapChannel::kCh4};
  EXPECT_EQ(extra_bits_per_symbol(cfg4), row.extra_ch4);
}

// Note: the paper's Table III prints 24 for QAM-64 rate 2/3 CH1-CH3, but its
// own Table IV loss (14.58% of 192) and the subcarrier math (7 x 4) give 28.
// The paper's "QAM-16, 2/3" row carries 144 bits/symbol, i.e. rate 3/4.
INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableIii,
    ::testing::Values(TableIiiRow{Modulation::kQam16, CodingRate::kR12, 96, 14, 10},
                      TableIiiRow{Modulation::kQam16, CodingRate::kR34, 144, 14, 10},
                      TableIiiRow{Modulation::kQam64, CodingRate::kR23, 192, 28, 20},
                      TableIiiRow{Modulation::kQam64, CodingRate::kR34, 216, 28, 20},
                      TableIiiRow{Modulation::kQam64, CodingRate::kR56, 240, 28, 20},
                      TableIiiRow{Modulation::kQam256, CodingRate::kR34, 288, 42, 30},
                      TableIiiRow{Modulation::kQam256, CodingRate::kR56, 320, 42, 30}));

// ------------------------------------------------ Table IV (throughput loss)

TEST(TableIv, ThroughputLossMatchesPaper) {
  const auto pct = [](const SledzigConfig& cfg) {
    return throughput_loss(cfg) * 100.0;
  };
  using M = Modulation;
  using R = CodingRate;
  using C = OverlapChannel;
  EXPECT_NEAR(pct({M::kQam16, R::kR12, C::kCh1}), 14.58, 0.01);
  EXPECT_NEAR(pct({M::kQam16, R::kR12, C::kCh4}), 10.42, 0.01);
  EXPECT_NEAR(pct({M::kQam16, R::kR34, C::kCh1}), 9.72, 0.01);
  EXPECT_NEAR(pct({M::kQam16, R::kR34, C::kCh4}), 6.94, 0.01);
  EXPECT_NEAR(pct({M::kQam64, R::kR23, C::kCh2}), 14.58, 0.01);
  EXPECT_NEAR(pct({M::kQam64, R::kR23, C::kCh4}), 10.42, 0.01);
  EXPECT_NEAR(pct({M::kQam64, R::kR34, C::kCh3}), 12.96, 0.01);
  EXPECT_NEAR(pct({M::kQam64, R::kR34, C::kCh4}), 9.26, 0.01);
  EXPECT_NEAR(pct({M::kQam64, R::kR56, C::kCh1}), 11.67, 0.01);
  EXPECT_NEAR(pct({M::kQam64, R::kR56, C::kCh4}), 8.33, 0.01);
  EXPECT_NEAR(pct({M::kQam256, R::kR34, C::kCh2}), 14.58, 0.01);
  // Paper prints 11.72% here; 30/288 = 10.42% is the arithmetic value.
  EXPECT_NEAR(pct({M::kQam256, R::kR34, C::kCh4}), 10.42, 0.01);
  EXPECT_NEAR(pct({M::kQam256, R::kR56, C::kCh3}), 13.12, 0.01);
  EXPECT_NEAR(pct({M::kQam256, R::kR56, C::kCh4}), 9.37, 0.01);
}

// ------------------------------------------------------------ power theory

TEST(PowerAnalysis, ConstellationGaps) {
  EXPECT_NEAR(constellation_gap_db(Modulation::kQam16).value(), 7.0, 0.05);
  EXPECT_NEAR(constellation_gap_db(Modulation::kQam64).value(), 13.2, 0.05);
  EXPECT_NEAR(constellation_gap_db(Modulation::kQam256).value(), 19.3, 0.05);
}

TEST(PowerAnalysis, PilotLimitsCh1Ch3Reduction) {
  for (auto m : {Modulation::kQam16, Modulation::kQam64, Modulation::kQam256}) {
    SledzigConfig with_pilot{m, CodingRate::kR12, OverlapChannel::kCh2};
    SledzigConfig no_pilot{m, CodingRate::kR12, OverlapChannel::kCh4};
    EXPECT_LT(ideal_inband_reduction_db(with_pilot),
              ideal_inband_reduction_db(no_pilot));
    // Without a pilot the reduction equals the constellation gap.
    EXPECT_NEAR(ideal_inband_reduction_db(no_pilot).value(),
                constellation_gap_db(m).value(), 1e-9);
  }
  // CH1-CH3 reductions saturate around 5-9 dB because of the pilot.
  SledzigConfig q64{Modulation::kQam64, CodingRate::kR12, OverlapChannel::kCh1};
  EXPECT_NEAR(ideal_inband_reduction_db(q64).value(), 7.78, 0.05);
}

// ----------------------------------------------------- encoder / decoder

struct ComboParam {
  Modulation m;
  CodingRate r;
  OverlapChannel ch;
};

class SledzigCombos : public ::testing::TestWithParam<ComboParam> {};

TEST_P(SledzigCombos, EncodeDecodeRoundTrip) {
  common::Rng rng(101);
  const auto& p = GetParam();
  SledzigConfig cfg{p.m, p.r, p.ch};
  for (std::size_t len : {1u, 17u, 100u, 400u}) {
    const auto payload = rng.bytes(len);
    const auto enc = sledzig_encode(payload, cfg);
    EXPECT_EQ(enc.num_collisions, 0u) << len;
    EXPECT_EQ(enc.num_violations, 0u) << len;
    const auto dec = sledzig_decode(enc.transmit_psdu, cfg);
    ASSERT_TRUE(dec.has_value()) << len;
    EXPECT_EQ(*dec, payload) << len;
  }
}

TEST_P(SledzigCombos, ForcedSubcarriersCarryLowestPoints) {
  common::Rng rng(102);
  const auto& p = GetParam();
  SledzigConfig cfg{p.m, p.r, p.ch};
  const auto payload = rng.bytes(300);
  const auto enc = sledzig_encode(payload, cfg);

  wifi::WifiTxConfig tx;
  tx.modulation = p.m;
  tx.rate = p.r;
  tx.scrambler_seed = cfg.scrambler_seed;
  const auto packet = wifi_transmit(enc.transmit_psdu, tx);

  const auto subcarriers = forced_data_subcarriers(p.ch);
  // Every symbol whose uncoded bits lie wholly inside the payload region
  // must carry lowest points on all forced subcarriers.  The final symbol
  // contains tail/pad bits, which SledZig cannot force.
  const std::size_t dbps = wifi::data_bits_per_symbol(p.m, p.r);
  const std::size_t payload_bits = enc.transmit_psdu.size() * 8;
  const std::size_t full_symbols = payload_bits / dbps;
  ASSERT_GE(full_symbols, 1u);
  // Head-unforced constraints (twins inside the first five encoder steps)
  // only affect symbol 0.
  const std::size_t first = enc.num_unforced_head > 0 ? 1 : 0;
  const auto& plan = wifi::channel_plan(wifi::ChannelWidth::k20MHz);
  for (std::size_t s = first; s < full_symbols; ++s) {
    for (int logical : subcarriers) {
      const int pos = plan.data_position(logical);
      const auto& point =
          packet.data_points[s * wifi::kNumDataSubcarriers +
                             static_cast<std::size_t>(pos)];
      EXPECT_TRUE(wifi::is_lowest_point(point, p.m))
          << "symbol " << s << " subcarrier " << logical;
    }
  }
}

TEST_P(SledzigCombos, NonOverlappedSubcarriersUnconstrained) {
  // The encoder must not touch subcarriers outside the window: their points
  // should span the full constellation, not just low-power points.
  common::Rng rng(103);
  const auto& p = GetParam();
  SledzigConfig cfg{p.m, p.r, p.ch};
  const auto enc = sledzig_encode(rng.bytes(400), cfg);

  wifi::WifiTxConfig tx;
  tx.modulation = p.m;
  tx.rate = p.r;
  const auto packet = wifi_transmit(enc.transmit_psdu, tx);

  const auto forced = forced_data_subcarriers(p.ch);
  std::size_t outside_total = 0, outside_lowest = 0;
  const std::size_t num_symbols =
      packet.data_points.size() / wifi::kNumDataSubcarriers;
  const auto& plan = wifi::channel_plan(wifi::ChannelWidth::k20MHz);
  for (std::size_t s = 0; s < num_symbols; ++s) {
    for (int logical : plan.data_indices) {
      if (std::find(forced.begin(), forced.end(), logical) != forced.end()) {
        continue;
      }
      const int pos = plan.data_position(logical);
      const auto& point =
          packet.data_points[s * wifi::kNumDataSubcarriers +
                             static_cast<std::size_t>(pos)];
      ++outside_total;
      if (wifi::is_lowest_point(point, p.m)) ++outside_lowest;
    }
  }
  // Random payloads put ~4/M of points on the lowest set (M = 16/64/256).
  const double fraction = static_cast<double>(outside_lowest) /
                          static_cast<double>(outside_total);
  EXPECT_LT(fraction, 0.35);
}

TEST_P(SledzigCombos, ExtraBitCountMatchesPlanAndClosedForm) {
  common::Rng rng(104);
  const auto& p = GetParam();
  SledzigConfig cfg{p.m, p.r, p.ch};
  const auto enc = sledzig_encode(rng.bytes(200), cfg);
  // Over full symbols, extras per symbol equal the closed form.
  const std::size_t dbps = wifi::data_bits_per_symbol(p.m, p.r);
  const std::size_t payload_bits = enc.transmit_psdu.size() * 8;
  const std::size_t full_symbols = payload_bits / dbps;
  EXPECT_GE(enc.num_extra_bits, full_symbols * extra_bits_per_symbol(cfg));
}

TEST_P(SledzigCombos, ChannelDetection) {
  common::Rng rng(105);
  const auto& p = GetParam();
  SledzigConfig cfg{p.m, p.r, p.ch};
  const auto enc = sledzig_encode(rng.bytes(300), cfg);
  wifi::WifiTxConfig tx;
  tx.modulation = p.m;
  tx.rate = p.r;
  const auto packet = wifi_transmit(enc.transmit_psdu, tx);
  // Use only the full-payload symbols for detection.
  const std::size_t dbps = wifi::data_bits_per_symbol(p.m, p.r);
  const std::size_t full_symbols = (enc.transmit_psdu.size() * 8) / dbps;
  const auto detected = detect_channel_from_points(
      std::span<const common::Cplx>(packet.data_points)
          .first(full_symbols * wifi::kNumDataSubcarriers),
      p.m);
  ASSERT_TRUE(detected.has_value());
  EXPECT_EQ(*detected, p.ch);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SledzigCombos,
    ::testing::Values(
        ComboParam{Modulation::kQam16, CodingRate::kR12, OverlapChannel::kCh1},
        ComboParam{Modulation::kQam16, CodingRate::kR12, OverlapChannel::kCh2},
        ComboParam{Modulation::kQam16, CodingRate::kR12, OverlapChannel::kCh3},
        ComboParam{Modulation::kQam16, CodingRate::kR12, OverlapChannel::kCh4},
        ComboParam{Modulation::kQam16, CodingRate::kR34, OverlapChannel::kCh2},
        ComboParam{Modulation::kQam16, CodingRate::kR34, OverlapChannel::kCh4},
        ComboParam{Modulation::kQam64, CodingRate::kR23, OverlapChannel::kCh1},
        ComboParam{Modulation::kQam64, CodingRate::kR23, OverlapChannel::kCh4},
        ComboParam{Modulation::kQam64, CodingRate::kR34, OverlapChannel::kCh2},
        ComboParam{Modulation::kQam64, CodingRate::kR34, OverlapChannel::kCh4},
        ComboParam{Modulation::kQam64, CodingRate::kR56, OverlapChannel::kCh3},
        ComboParam{Modulation::kQam64, CodingRate::kR56, OverlapChannel::kCh4},
        ComboParam{Modulation::kQam256, CodingRate::kR34, OverlapChannel::kCh1},
        ComboParam{Modulation::kQam256, CodingRate::kR34, OverlapChannel::kCh4},
        ComboParam{Modulation::kQam256, CodingRate::kR56, OverlapChannel::kCh2},
        ComboParam{Modulation::kQam256, CodingRate::kR56, OverlapChannel::kCh4}),
    [](const auto& info) {
      return to_string(info.param.m).substr(4) + "_" +
             std::to_string(wifi::rate_fraction(info.param.r).num) +
             std::to_string(wifi::rate_fraction(info.param.r).den) + "_" +
             to_string(info.param.ch);
    });

TEST(SledzigEncoder, NoTwinConflictsInAnyPaperCombination) {
  // The paper argues (section IV-D) that deinterleaving scatters significant
  // bits far enough apart that twin insertions never collide.  Verify over
  // long streams for every combination.
  for (const auto& mode : wifi::paper_phy_modes()) {
    for (OverlapChannel ch : kAllOverlapChannels) {
      SledzigConfig cfg{mode.modulation, mode.rate, ch};
      const std::size_t dbps =
          wifi::data_bits_per_symbol(cfg.modulation, cfg.rate);
      const auto plan = build_constraint_plan(cfg, 0, dbps * 50);
      EXPECT_EQ(plan.num_collisions, 0u)
          << to_string(mode.modulation) << " " << to_string(mode.rate) << " "
          << to_string(ch);
      EXPECT_EQ(plan.num_unforced_tail, 0u)
          << to_string(mode.modulation) << " " << to_string(mode.rate) << " "
          << to_string(ch);
      // Head-unforced constraints can only come from twins within the first
      // five encoder steps of the very first symbol.
      EXPECT_LE(plan.num_unforced_head, 2u)
          << to_string(mode.modulation) << " " << to_string(mode.rate) << " "
          << to_string(ch);
    }
  }
}

TEST(SledzigEncoder, ServiceFieldModeRoundTrip) {
  common::Rng rng(106);
  SledzigConfig cfg;
  cfg.modulation = Modulation::kQam64;
  cfg.rate = CodingRate::kR23;
  cfg.channel = OverlapChannel::kCh4;
  cfg.include_service_field = true;
  const auto payload = rng.bytes(150);
  const auto enc = sledzig_encode(payload, cfg);
  const auto dec = sledzig_decode(enc.transmit_psdu, cfg);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, payload);
}

TEST(SledzigEncoder, EmptyPayload) {
  SledzigConfig cfg;
  const auto enc = sledzig_encode({}, cfg);
  const auto dec = sledzig_decode(enc.transmit_psdu, cfg);
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->empty());
}

TEST(SledzigEncoder, DecodeRejectsTruncatedPsdu) {
  common::Rng rng(107);
  SledzigConfig cfg;
  const auto enc = sledzig_encode(rng.bytes(100), cfg);
  common::Bytes truncated(enc.transmit_psdu.begin(),
                          enc.transmit_psdu.begin() + 20);
  const auto dec = sledzig_decode(truncated, cfg);
  EXPECT_FALSE(dec.has_value());
}

TEST(SledzigEncoder, DifferentSeedsProduceDifferentTransmitBits) {
  common::Rng rng(108);
  const auto payload = rng.bytes(60);
  SledzigConfig a, b;
  a.scrambler_seed = 0x5d;
  b.scrambler_seed = 0x23;
  EXPECT_NE(sledzig_encode(payload, a).transmit_psdu,
            sledzig_encode(payload, b).transmit_psdu);
}

TEST(SledzigEncoder, FitsOnePsduHoldsAtTheLengthCap) {
  // For every SledZig mode, the largest payload fits_one_psdu accepts
  // encodes into at most kMaxPsduOctets and decodes back, and the bound
  // wastes little room.  Dense plans take minutes to encode, so the cap is
  // reached with the payload size instead: the paper's window, and 16
  // forced subcarriers behind a SERVICE field.
  common::Rng rng(110);
  for (const Modulation m :
       {Modulation::kQam16, Modulation::kQam64, Modulation::kQam256}) {
    for (const CodingRate r : {CodingRate::kR12, CodingRate::kR23,
                               CodingRate::kR34, CodingRate::kR56}) {
      if (!wifi::has_rate_code(m, r)) continue;
      for (const std::size_t forced : {0, 16}) {
        SledzigConfig cfg{m, r, OverlapChannel::kCh2};
        cfg.forced_subcarriers = forced;
        cfg.include_service_field = forced != 0;
        SCOPED_TRACE(to_string(m) + " " + to_string(r) + " forced " +
                     std::to_string(forced));
        std::size_t n = 0;
        while (fits_one_psdu(n + 1, cfg)) ++n;
        const auto payload = rng.bytes(n);
        const auto enc = sledzig_encode(payload, cfg);
        EXPECT_LE(enc.transmit_psdu.size(), wifi::kMaxPsduOctets);
        EXPECT_GE(enc.transmit_psdu.size(), wifi::kMaxPsduOctets - 16);
        EXPECT_EQ(sledzig_decode(enc.transmit_psdu, cfg), payload);
      }
    }
  }
}

TEST(SledzigEncoder, NormalWifiDoesNotTriggerChannelDetection) {
  common::Rng rng(109);
  wifi::WifiTxConfig tx;
  tx.modulation = Modulation::kQam64;
  tx.rate = CodingRate::kR23;
  const auto packet = wifi_transmit(rng.bytes(300), tx);
  const auto detected =
      detect_channel_from_points(packet.data_points, tx.modulation);
  EXPECT_FALSE(detected.has_value());
}

}  // namespace
}  // namespace sledzig::core

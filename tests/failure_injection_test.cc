// Failure-injection tests: corrupted inputs, truncated buffers and hostile
// conditions must degrade gracefully (clean error returns, never crashes or
// silently wrong successes).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "channel/medium.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sledzig/encoder.h"
#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"
#include "wifi/qam.h"
#include "wifi/receiver.h"
#include "wifi/signal_field.h"
#include "wifi/transmitter.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace sledzig {
namespace {

TEST(FailureInjection, WifiReceiverAtHopelessSnr) {
  common::Rng rng(701);
  wifi::WifiTxConfig tx;
  tx.modulation = wifi::Modulation::kQam256;
  tx.rate = wifi::CodingRate::kR56;
  const auto psdu = rng.bytes(100);
  auto packet = wifi::wifi_transmit(psdu, tx);
  // 5 dB SNR against a 31 dB requirement: preamble may still correlate but
  // the payload must not silently "succeed".
  for (auto& s : packet.samples) {
    s += rng.complex_gaussian(common::db_to_linear(-5.0));
  }
  const auto rx = wifi::wifi_receive(packet.samples, wifi::WifiRxConfig{});
  if (rx.signal_valid) {
    EXPECT_NE(rx.psdu, psdu);  // CRC-less PHY: garbage out is acceptable,
                               // silent success is not expected here.
  }
}

TEST(FailureInjection, WifiReceiverOnTruncatedPacket) {
  common::Rng rng(702);
  wifi::WifiTxConfig tx;
  const auto packet = wifi::wifi_transmit(rng.bytes(200), tx);
  for (std::size_t keep :
       {std::size_t{10}, std::size_t{320}, std::size_t{420},
        packet.samples.size() / 2}) {
    const auto rx = wifi::wifi_receive(
        std::span<const common::Cplx>(packet.samples).first(keep),
        wifi::WifiRxConfig{});
    EXPECT_TRUE(rx.psdu.empty()) << keep;
  }
}

TEST(FailureInjection, WifiReceiverWrongWidthDoesNotCrash) {
  common::Rng rng(703);
  wifi::WifiTxConfig tx;
  tx.width = wifi::ChannelWidth::k40MHz;
  const auto packet = wifi::wifi_transmit(rng.bytes(100), tx);
  wifi::WifiRxConfig rx20;  // mismatch on purpose
  const auto rx = wifi::wifi_receive(packet.samples, rx20);
  EXPECT_TRUE(rx.psdu.empty());
}

TEST(FailureInjection, SledzigDecodeCorruptedLengthHeader) {
  common::Rng rng(704);
  core::SledzigConfig cfg;
  const auto enc = core::sledzig_encode(rng.bytes(50), cfg);
  // Flipping transmit bits may corrupt the embedded length; the decoder
  // must either return the wrong payload or nullopt — never crash.
  for (int trial = 0; trial < 50; ++trial) {
    auto corrupted = enc.transmit_psdu;
    corrupted[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(corrupted.size()) - 1))] ^=
        static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    const auto dec = core::sledzig_decode(corrupted, cfg);
    (void)dec;
  }
  SUCCEED();
}

TEST(FailureInjection, SledzigDecodeEmptyAndTiny) {
  core::SledzigConfig cfg;
  EXPECT_FALSE(core::sledzig_decode({}, cfg).has_value());
  EXPECT_FALSE(core::sledzig_decode({0xff}, cfg).has_value());
}

TEST(FailureInjection, SledzigDecodeWrongChannelConfig) {
  // Decoding with the wrong channel strips the wrong positions; the result
  // must not equal the payload (and usually fails the length check).
  common::Rng rng(705);
  core::SledzigConfig enc_cfg;
  enc_cfg.channel = core::OverlapChannel::kCh1;
  const auto payload = rng.bytes(100);
  const auto enc = core::sledzig_encode(payload, enc_cfg);
  core::SledzigConfig dec_cfg = enc_cfg;
  dec_cfg.channel = core::OverlapChannel::kCh3;
  const auto dec = core::sledzig_decode(enc.transmit_psdu, dec_cfg);
  if (dec.has_value()) {
    EXPECT_NE(*dec, payload);
  }
}

TEST(FailureInjection, SledzigDecodeWrongSeed) {
  common::Rng rng(706);
  core::SledzigConfig cfg;
  const auto payload = rng.bytes(80);
  const auto enc = core::sledzig_encode(payload, cfg);
  core::SledzigConfig wrong = cfg;
  wrong.scrambler_seed = 0x11;
  const auto dec = core::sledzig_decode(enc.transmit_psdu, wrong);
  if (dec.has_value()) {
    EXPECT_NE(*dec, payload);
  }
}

TEST(FailureInjection, ZigbeeReceiverMidFrameCut) {
  common::Rng rng(707);
  const auto tx = zigbee::zigbee_transmit(rng.bytes(60));
  const auto rx = zigbee::zigbee_receive(
      std::span<const common::Cplx>(tx.samples)
          .first(tx.samples.size() / 2));
  EXPECT_FALSE(rx.crc_ok);
}

TEST(FailureInjection, ZigbeeReceiverCorruptedSfd) {
  common::Rng rng(708);
  auto tx = zigbee::zigbee_transmit(rng.bytes(30));
  // Blank out the SFD symbol region (octet 4 => samples 4*640..5*640).
  for (std::size_t i = 4 * 640; i < 5 * 640 && i < tx.samples.size(); ++i) {
    tx.samples[i] = common::Cplx(0.0, 0.0);
  }
  const auto rx = zigbee::zigbee_receive(tx.samples);
  EXPECT_FALSE(rx.crc_ok);
}

TEST(FailureInjection, ZigbeeJammedBeyondRecovery) {
  // Note: the channel-select filter buys back ~9 dB against wideband noise,
  // so -10 dB SNR is actually recoverable; -22 dB is not.
  common::Rng rng(709);
  const auto payload = rng.bytes(30);
  const auto tx = zigbee::zigbee_transmit(payload);
  common::CplxVec jammed(tx.samples);
  for (auto& s : jammed) {
    s += rng.complex_gaussian(common::db_to_linear(22.0));  // -22 dB SNR
  }
  const auto rx = zigbee::zigbee_receive(jammed);
  EXPECT_FALSE(rx.crc_ok && rx.payload == payload);
}

TEST(FailureInjection, ChannelFilterBuysProcessingGain) {
  // Companion positive case: -10 dB wideband SNR decodes *because of* the
  // channel filter, and fails without it.
  common::Rng rng(712);
  const auto payload = rng.bytes(30);
  const auto tx = zigbee::zigbee_transmit(payload);
  common::CplxVec jammed(tx.samples);
  for (auto& s : jammed) {
    s += rng.complex_gaussian(common::db_to_linear(10.0));
  }
  const auto with_filter = zigbee::zigbee_receive(jammed);
  EXPECT_TRUE(with_filter.crc_ok);
  EXPECT_EQ(with_filter.payload, payload);
  zigbee::ZigbeeRxConfig no_filter;
  no_filter.channel_filter_cutoff_hz = 0.0;
  const auto without = zigbee::zigbee_receive(jammed, no_filter);
  EXPECT_FALSE(without.crc_ok && without.payload == payload);
}

TEST(FailureInjection, MacSimDegenerateParams) {
  // Tiny saturated WiFi bursts against a 1-octet ZigBee source with no
  // inter-frame gap: the engine must run to the horizon with its frame
  // accounting intact.
  auto cfg = sim::two_node_paper_scenario(core::SledzigConfig{}, true, 1.0,
                                          4.0, 1.0, 1.0, 710);
  cfg.wifi[0].mac.airtime_us = 100.0;
  cfg.zigbee[0].mac.payload_octets = 1;
  cfg.zigbee[0].traffic = {sim::TrafficKind::kSaturated, 0.0, 1.0};
  const auto z = sim::run_scenario(cfg).zigbee[0];
  EXPECT_GE(z.throughput_kbps, 0.0);
  EXPECT_GT(z.sent, 0u);
  EXPECT_EQ(z.generated, z.delivered + z.queue_dropped + z.cca_dropped +
                             z.retry_exhausted + z.lost_to_crash +
                             z.in_flight_at_end);
}

TEST(FailureInjection, EncoderRejectsOversizedPayload) {
  core::SledzigConfig cfg;
  EXPECT_THROW(
      core::sledzig_encode(common::Bytes(core::kMaxSledzigPayload + 1, 0), cfg),
      std::invalid_argument);
}

TEST(FailureInjection, MediumRejectsNullEmission) {
  common::Rng rng(711);
  std::vector<channel::Emission> bad = {{nullptr, -50.0, 0.0, 0}};
  EXPECT_THROW(channel::mix_at_receiver(bad, 1000, rng),
               std::invalid_argument);
}

// --- Hostile SIGNAL fields ------------------------------------------------

TEST(FailureInjection, FuzzedSignalWordsParseInvalidWithoutBlowups) {
  // Every 24-bit word must either parse to a mode in the RATE table with a
  // 12-bit LENGTH, or cleanly return nullopt -- never throw or mis-size.
  common::Rng rng(720);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const auto bits = rng.bits(24);
    const auto field = wifi::decode_signal_bits(bits);
    if (field) {
      ++accepted;
      EXPECT_LE(field->psdu_octets, 4095u);
    }
  }
  // Parity + RATE-table screening rejects the bulk of random words.
  EXPECT_LT(accepted, 2500u);
}

TEST(FailureInjection, SignalWordBadParityRejected) {
  wifi::SignalField f;
  f.modulation = wifi::Modulation::kQam64;
  f.rate = wifi::CodingRate::kR23;
  f.psdu_octets = 600;
  auto bits = wifi::encode_signal_bits(f);
  ASSERT_TRUE(wifi::decode_signal_bits(bits).has_value());
  bits[17] ^= 1;  // parity bit
  EXPECT_FALSE(wifi::decode_signal_bits(bits).has_value());
  bits[17] ^= 1;
  bits[3] ^= 1;  // RATE bit: parity now stale
  EXPECT_FALSE(wifi::decode_signal_bits(bits).has_value());
}

TEST(FailureInjection, SignalWordUnknownRateRejected) {
  // RATE codes 0x0 and 0xB..0xF have no table entry; build words with
  // correct parity so only the RATE screening can reject them.
  for (std::uint8_t code : {0x0, 0xB, 0xC, 0xD, 0xE, 0xF}) {
    common::Bits bits;
    common::append_uint(bits, code, 4);
    bits.push_back(0);  // reserved
    common::append_uint(bits, 1500, 12);
    bits.push_back(common::parity(bits));
    for (int i = 0; i < 6; ++i) bits.push_back(0);
    EXPECT_FALSE(wifi::decode_signal_bits(bits).has_value()) << int(code);
  }
}

TEST(FailureInjection, MaximalSignalLengthDoesNotBlowUpReceiver) {
  // A parity-correct SIGNAL claiming the maximal 4095-octet LENGTH over a
  // buffer that carries no data symbols: the receiver must classify it as
  // truncated, not allocate for it.
  wifi::SignalField f;
  f.modulation = wifi::Modulation::kBpsk;  // largest symbol count per octet
  f.rate = wifi::CodingRate::kR12;
  f.psdu_octets = 4095;
  const auto& preamble = wifi::full_preamble(wifi::ChannelWidth::k20MHz);
  common::CplxVec samples(preamble.begin(), preamble.end());
  const auto sig = wifi::modulate_signal_symbol(f);
  samples.insert(samples.end(), sig.begin(), sig.end());

  wifi::WifiRxConfig cfg;
  cfg.correct_cfo = false;  // clean waveform; keep sync trivial
  const auto rx = wifi::wifi_receive(samples, cfg);
  EXPECT_TRUE(rx.detected);
  EXPECT_TRUE(rx.signal_valid);
  EXPECT_EQ(rx.signal.psdu_octets, 4095u);
  EXPECT_EQ(rx.error, common::RxError::kTruncatedPayload);
  EXPECT_TRUE(rx.psdu.empty());

  // With a receiver-side cap below the claimed LENGTH the structured reason
  // is the cap itself.
  cfg.max_psdu_octets = 1024;
  const auto capped = wifi::wifi_receive(samples, cfg);
  EXPECT_EQ(capped.error, common::RxError::kSignalLengthCap);
  EXPECT_TRUE(capped.psdu.empty());
}

TEST(FailureInjection, BadParitySignalSymbolReportsSignalParity) {
  // Modulate a SIGNAL word whose parity bit is deliberately wrong (same
  // chain as modulate_signal_symbol, bits corrupted before encoding): a
  // clean channel then delivers exactly the bad word to the receiver.
  const auto& plan = wifi::channel_plan(wifi::ChannelWidth::k20MHz);
  wifi::SignalField f;
  f.modulation = wifi::Modulation::kQam16;
  f.rate = wifi::CodingRate::kR12;
  f.psdu_octets = 100;
  auto bits = wifi::encode_signal_bits(f);
  bits[17] ^= 1;  // break even parity
  bits.resize(wifi::coded_bits_per_symbol(wifi::Modulation::kBpsk, plan) / 2, 0);
  const auto coded = wifi::convolutional_encode(bits);
  const auto interleaved = wifi::interleave(coded, wifi::Modulation::kBpsk, plan);
  const auto points = wifi::qam_map(interleaved, wifi::Modulation::kBpsk);
  const auto symbol = wifi::modulate_ofdm_symbol(points, /*symbol_index=*/0, plan);

  const auto& preamble = wifi::full_preamble(wifi::ChannelWidth::k20MHz);
  common::CplxVec samples(preamble.begin(), preamble.end());
  samples.insert(samples.end(), symbol.begin(), symbol.end());

  wifi::WifiRxConfig cfg;
  cfg.correct_cfo = false;
  const auto rx = wifi::wifi_receive(samples, cfg);
  EXPECT_TRUE(rx.detected);
  EXPECT_FALSE(rx.signal_valid);
  EXPECT_EQ(rx.error, common::RxError::kSignalParity);
}

// --- Structured RxError reasons -------------------------------------------

TEST(FailureInjection, WifiTruncationReportsStructuredReason) {
  common::Rng rng(721);
  wifi::WifiTxConfig tx;
  const auto packet = wifi::wifi_transmit(rng.bytes(200), tx);
  const auto rx = wifi::wifi_receive(
      std::span<const common::Cplx>(packet.samples)
          .first(packet.samples.size() / 2),
      wifi::WifiRxConfig{});
  EXPECT_TRUE(rx.psdu.empty());
  EXPECT_NE(rx.error, common::RxError::kNone);
  if (rx.signal_valid) {
    EXPECT_EQ(rx.error, common::RxError::kTruncatedPayload);
  }
}

TEST(FailureInjection, NanSamplesRefusedUpFront) {
  common::Rng rng(722);
  wifi::WifiTxConfig tx;
  auto packet = wifi::wifi_transmit(rng.bytes(50), tx);
  packet.samples[123] = common::Cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);
  const auto rx = wifi::wifi_receive(packet.samples, wifi::WifiRxConfig{});
  EXPECT_EQ(rx.error, common::RxError::kNanSamples);
  EXPECT_FALSE(rx.detected);

  auto ztx = zigbee::zigbee_transmit(rng.bytes(20));
  ztx.samples[77] = common::Cplx(0.0, std::numeric_limits<double>::infinity());
  const auto zrx = zigbee::zigbee_receive(ztx.samples);
  EXPECT_EQ(zrx.error, common::RxError::kNanSamples);
  EXPECT_FALSE(zrx.crc_ok);
}

TEST(FailureInjection, ZigbeeErrorsNameTheFailingStage) {
  common::Rng rng(723);
  // Noise only: no preamble.
  common::CplxVec noise(4000);
  for (auto& s : noise) s = rng.complex_gaussian(1.0);
  EXPECT_EQ(zigbee::zigbee_receive(noise).error, common::RxError::kNoPreamble);

  // Mid-frame cut after the header: payload truncated.
  const auto tx = zigbee::zigbee_transmit(rng.bytes(60));
  const auto cut = zigbee::zigbee_receive(
      std::span<const common::Cplx>(tx.samples).first(tx.samples.size() / 2));
  EXPECT_FALSE(cut.crc_ok);
  EXPECT_NE(cut.error, common::RxError::kNone);

  // Successful decode carries kNone.
  const auto ok = zigbee::zigbee_receive(tx.samples);
  EXPECT_TRUE(ok.crc_ok);
  EXPECT_EQ(ok.error, common::RxError::kNone);
  EXPECT_TRUE(ok.ok());
}

// --- Power-measurement guards ---------------------------------------------

TEST(FailureInjection, PowerStatsSurviveEmptyAndNonFiniteInput) {
  const common::CplxVec empty;
  EXPECT_EQ(channel::total_power_dbm(empty),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(channel::rssi_2mhz_slice_dbm(empty),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(channel::rssi_2mhz_dbm(empty, 0.0),
            -std::numeric_limits<double>::infinity());

  common::CplxVec one{common::Cplx(1.0, 0.0)};
  EXPECT_EQ(channel::rssi_2mhz_dbm(one, 0.0),
            -std::numeric_limits<double>::infinity());

  common::Rng rng(724);
  common::CplxVec polluted(512);
  for (auto& s : polluted) s = rng.complex_gaussian(1.0);
  polluted[17] = common::Cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);
  polluted[400] = common::Cplx(std::numeric_limits<double>::infinity(), 1.0);
  EXPECT_TRUE(std::isfinite(channel::total_power_dbm(polluted)));
  EXPECT_TRUE(std::isfinite(channel::rssi_2mhz_slice_dbm(polluted)));
  EXPECT_TRUE(std::isfinite(channel::rssi_2mhz_dbm(polluted, 0.0)));

  common::CplxVec all_nan(
      64, common::Cplx(std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(channel::total_power_dbm(all_nan),
            -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace sledzig

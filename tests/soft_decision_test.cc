// Tests for the soft-decision (LLR) receive path.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "wifi/convolutional.h"
#include "wifi/qam.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"

namespace sledzig::wifi {
namespace {

TEST(SoftDemap, SignsMatchHardDecisionsOnCleanPoints) {
  common::Rng rng(1001);
  for (auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                 Modulation::kQam64, Modulation::kQam256}) {
    const auto bits = rng.bits(bits_per_subcarrier(m) * 16);
    const auto points = qam_map(bits, m);
    const auto llrs = qam_demap_soft(points, m);
    ASSERT_EQ(llrs.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(llrs[i] > 0.0, bits[i] == 1)
          << to_string(m) << " bit " << i;
      EXPECT_GT(std::abs(llrs[i]), 1e-6);
    }
  }
}

TEST(SoftDemap, ConfidenceScalesWithDistance) {
  // A point near a decision boundary yields a smaller |LLR| than a point
  // deep inside a decision region.
  const double k = 1.0 / std::sqrt(10.0);
  const auto mid = qam_demap_soft(common::Cplx(0.05 * k, k), Modulation::kQam16);
  const auto deep = qam_demap_soft(common::Cplx(3 * k, k), Modulation::kQam16);
  // Bit 0 is the I-axis sign-ish bit: much more confident for the deep point.
  EXPECT_GT(std::abs(deep[0]), 5.0 * std::abs(mid[0]));
}

TEST(SoftViterbi, MatchesHardOnCleanStream) {
  common::Rng rng(1002);
  common::Bits in = rng.bits(300);
  for (std::size_t i = 0; i < kTailBits; ++i) in.push_back(0);
  const auto coded = convolutional_encode(in);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? 4.0 : -4.0;
  }
  EXPECT_EQ(viterbi_decode(llrs), in);
}

TEST(SoftViterbi, ExploitsConfidence) {
  // Flip a low-confidence bit and keep a conflicting high-confidence one:
  // the decoder should trust the confident bits.
  common::Rng rng(1003);
  common::Bits in = rng.bits(120);
  for (std::size_t i = 0; i < kTailBits; ++i) in.push_back(0);
  const auto coded = convolutional_encode(in);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? 4.0 : -4.0;
  }
  // Inject weak wrong values at scattered positions.
  for (std::size_t pos = 11; pos < llrs.size(); pos += 37) {
    llrs[pos] = coded[pos] ? -0.4 : 0.4;  // wrong sign, low confidence
  }
  EXPECT_EQ(viterbi_decode(llrs), in);
}

TEST(SoftViterbi, ZeroLlrIsErasure) {
  common::Rng rng(1004);
  common::Bits in = rng.bits(200);
  for (std::size_t i = 0; i < kTailBits; ++i) in.push_back(0);
  const auto coded = convolutional_encode(in);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? 3.0 : -3.0;
  }
  // Erase every 4th value (like rate-3/4 puncturing).
  for (std::size_t i = 3; i < llrs.size(); i += 4) llrs[i] = 0.0;
  EXPECT_EQ(viterbi_decode(llrs), in);
}

TEST(SoftDecision, BeatsHardAtMarginalSnr) {
  // At 1 dB below the paper threshold the soft receiver should deliver
  // more packets than the hard receiver.
  common::Rng rng(1005);
  int soft_ok = 0, hard_ok = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const auto psdu = rng.bytes(200);
    WifiTxConfig tx;
    tx.modulation = Modulation::kQam64;
    tx.rate = CodingRate::kR23;
    auto packet = wifi_transmit(psdu, tx);
    const double noise = common::db_to_linear(-17.0);
    for (auto& s : packet.samples) s += rng.complex_gaussian(noise);
    WifiRxConfig soft_cfg, hard_cfg;
    hard_cfg.soft_decision = false;
    if (wifi_receive(packet.samples, soft_cfg).psdu == psdu) ++soft_ok;
    if (wifi_receive(packet.samples, hard_cfg).psdu == psdu) ++hard_ok;
  }
  EXPECT_GT(soft_ok, hard_ok);
  EXPECT_GE(soft_ok, trials - 2);
}

TEST(SoftDecision, FortyMhzPathAlsoSoft) {
  common::Rng rng(1006);
  const auto psdu = rng.bytes(150);
  WifiTxConfig tx;
  tx.modulation = Modulation::kQam64;
  tx.rate = CodingRate::kR34;
  tx.width = ChannelWidth::k40MHz;
  auto packet = wifi_transmit(psdu, tx);
  const double noise = common::db_to_linear(-22.0);
  for (auto& s : packet.samples) s += rng.complex_gaussian(noise);
  WifiRxConfig rx;
  rx.width = ChannelWidth::k40MHz;
  EXPECT_EQ(wifi_receive(packet.samples, rx).psdu, psdu);
}

}  // namespace
}  // namespace sledzig::wifi

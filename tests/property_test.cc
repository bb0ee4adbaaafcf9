// Property-based tests: randomized sweeps over the algebraic invariants the
// system relies on.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sledzig/encoder.h"
#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/puncture.h"
#include "wifi/qam.h"
#include "wifi/scrambler.h"
#include "zigbee/chips.h"
#include "zigbee/frame.h"

namespace sledzig {
namespace {

using common::Bits;
using common::Bytes;

// Every nonzero 7-bit scrambler seed generates a period-127 keystream and a
// self-inverse scrambler.
class AllScramblerSeeds : public ::testing::TestWithParam<int> {};

TEST_P(AllScramblerSeeds, SelfInverseAndPeriodic) {
  const auto seed = static_cast<std::uint8_t>(GetParam());
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto data = rng.bits(300);
  EXPECT_EQ(wifi::descramble(wifi::scramble(data, seed), seed), data);
  const auto seq = wifi::scrambler_sequence(seed, 254);
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllScramblerSeeds,
                         ::testing::Range(1, 128, 9));

TEST(Property, ConvolutionalCodeIsLinear) {
  // enc(a ^ b) == enc(a) ^ enc(b) over GF(2) — the property the SledZig
  // GF(2) solver depends on.
  common::Rng rng(601);
  for (int trial = 0; trial < 25; ++trial) {
    const auto a = rng.bits(200);
    const auto b = rng.bits(200);
    Bits ab(200);
    for (std::size_t i = 0; i < 200; ++i) ab[i] = (a[i] ^ b[i]) & 1u;
    const auto ea = wifi::convolutional_encode(a);
    const auto eb = wifi::convolutional_encode(b);
    const auto eab = wifi::convolutional_encode(ab);
    for (std::size_t i = 0; i < eab.size(); ++i) {
      EXPECT_EQ(eab[i], (ea[i] ^ eb[i]) & 1u);
    }
  }
}

TEST(Property, ViterbiIsLeftInverseOfEncoder) {
  common::Rng rng(602);
  for (int trial = 0; trial < 20; ++trial) {
    const auto len = 32 + static_cast<std::size_t>(rng.uniform_int(0, 400));
    Bits in = rng.bits(len);
    for (std::size_t i = 0; i < wifi::kTailBits; ++i) in.push_back(0);
    const auto coded = wifi::convolutional_encode(in);
    EXPECT_EQ(wifi::viterbi_decode(wifi::hard_llrs(coded)), in)
        << "len " << len;
  }
}

TEST(Property, PunctureDepunctureComposeAcrossRates) {
  common::Rng rng(603);
  for (auto rate : {wifi::CodingRate::kR12, wifi::CodingRate::kR23,
                    wifi::CodingRate::kR34, wifi::CodingRate::kR56}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto mask = wifi::puncture_mask(rate);
      const std::size_t periods = 5 + static_cast<std::size_t>(rng.uniform_int(0, 40));
      const auto coded = rng.bits(periods * mask.size());
      const auto punctured = wifi::puncture(coded, rate);
      const auto llrs = wifi::depuncture(wifi::hard_llrs(punctured), rate);
      ASSERT_EQ(llrs.size(), coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        if (llrs[i] != 0.0) {
          EXPECT_EQ(llrs[i], coded[i] ? 1.0 : -1.0);
        }
      }
    }
  }
}

TEST(Property, QamGrayNeighboursDifferByOneBit) {
  // Adjacent constellation points along each axis differ in exactly one
  // bit — the Gray property that bounds demap bit errors.
  for (auto m : {wifi::Modulation::kQam16, wifi::Modulation::kQam64,
                 wifi::Modulation::kQam256}) {
    const std::size_t half = wifi::bits_per_subcarrier(m) / 2;
    const double k = wifi::qam_norm(m);
    const int levels = 1 << half;
    for (int a = 0; a < levels - 1; ++a) {
      const double va = (2 * a - (levels - 1)) * k;
      const double vb = (2 * (a + 1) - (levels - 1)) * k;
      const auto bits_a =
          wifi::qam_demap_point(common::Cplx(va, va), m);
      const auto bits_b =
          wifi::qam_demap_point(common::Cplx(vb, va), m);
      EXPECT_EQ(common::hamming_distance(bits_a, bits_b), 1u)
          << wifi::to_string(m) << " level " << a;
    }
  }
}

TEST(Property, SledzigFuzzRoundTrip) {
  // Random (mode, channel, seed, length) combinations must round-trip and
  // never report collisions or violations.
  common::Rng rng(604);
  const auto& modes = wifi::paper_phy_modes();
  for (int trial = 0; trial < 30; ++trial) {
    const auto& mode = modes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(modes.size()) - 1))];
    core::SledzigConfig cfg;
    cfg.modulation = mode.modulation;
    cfg.rate = mode.rate;
    cfg.channel = static_cast<core::OverlapChannel>(rng.uniform_int(0, 3));
    cfg.scrambler_seed =
        static_cast<std::uint8_t>(rng.uniform_int(1, 127));
    const auto payload =
        rng.bytes(static_cast<std::size_t>(rng.uniform_int(0, 600)));
    const auto enc = core::sledzig_encode(payload, cfg);
    EXPECT_EQ(enc.num_collisions, 0u) << trial;
    EXPECT_EQ(enc.num_violations, 0u) << trial;
    const auto dec = core::sledzig_decode(enc.transmit_psdu, cfg);
    ASSERT_TRUE(dec.has_value()) << trial;
    EXPECT_EQ(*dec, payload) << trial;
  }
}

TEST(Property, SledzigExtraPositionsAreDataIndependent) {
  // The decoder recomputes the plan with no knowledge of the payload: two
  // different payloads of the same size must use identical positions.
  common::Rng rng(605);
  core::SledzigConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR34;
  cfg.channel = core::OverlapChannel::kCh3;
  const auto a = core::sledzig_encode(rng.bytes(120), cfg);
  const auto b = core::sledzig_encode(rng.bytes(120), cfg);
  EXPECT_EQ(a.transmit_psdu.size(), b.transmit_psdu.size());
  EXPECT_EQ(a.num_extra_bits, b.num_extra_bits);
}

TEST(Property, InterleaverBlocksAreIndependent) {
  common::Rng rng(606);
  const auto m = wifi::Modulation::kQam64;
  const std::size_t n_cbps = wifi::coded_bits_per_symbol(m);
  const auto block1 = rng.bits(n_cbps);
  const auto block2 = rng.bits(n_cbps);
  Bits both = block1;
  both.insert(both.end(), block2.begin(), block2.end());
  const auto interleaved = wifi::interleave(both, m);
  const auto only1 = wifi::interleave(block1, m);
  for (std::size_t i = 0; i < n_cbps; ++i) {
    EXPECT_EQ(interleaved[i], only1[i]);
  }
}

TEST(Property, ChipSequencesBalanced) {
  // Every 802.15.4 chip sequence is exactly half ones (DC-free after
  // O-QPSK mapping).
  for (const auto& seq : zigbee::chip_table()) {
    std::size_t ones = 0;
    for (auto c : seq) ones += c;
    EXPECT_EQ(ones, zigbee::kChipsPerSymbol / 2);
  }
}

TEST(Property, CrcDetectsAllSingleBitErrors) {
  common::Rng rng(607);
  const auto payload = rng.bytes(40);
  const auto good = zigbee::crc16_ccitt(payload);
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = payload;
      corrupted[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(zigbee::crc16_ccitt(corrupted), good);
    }
  }
}

TEST(Property, TransmitBitsLookRandom) {
  // SledZig output should not introduce long runs (the scrambler still
  // whitens it): check the longest run of identical bits stays modest.
  common::Rng rng(608);
  core::SledzigConfig cfg;
  cfg.modulation = wifi::Modulation::kQam16;
  cfg.rate = wifi::CodingRate::kR12;
  cfg.channel = core::OverlapChannel::kCh2;
  const auto enc = core::sledzig_encode(rng.bytes(500), cfg);
  const auto bits = common::bytes_to_bits(enc.transmit_psdu);
  std::size_t longest = 0, run = 0;
  common::Bit prev = 2;
  for (auto b : bits) {
    run = (b == prev) ? run + 1 : 1;
    prev = b;
    longest = std::max(longest, run);
  }
  EXPECT_LT(longest, 30u);
}

}  // namespace
}  // namespace sledzig

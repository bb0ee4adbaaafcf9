// Bit-exact unit tests for the individual 802.11 PHY blocks.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "common/units.h"
#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/phy_params.h"
#include "wifi/preamble.h"
#include "wifi/puncture.h"
#include "wifi/qam.h"
#include "wifi/scrambler.h"
#include "wifi/signal_field.h"
#include "wifi/subcarriers.h"

namespace sledzig::wifi {
namespace {

using common::Bits;

// ---------------------------------------------------------------- scrambler

TEST(Scrambler, StandardAllOnesSequencePrefix) {
  // 802.11-2016 17.3.5.5: with an all-ones initial state the scrambler emits
  // 0000 1110 1111 0010 ...
  const Bits expected = {0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0};
  const auto seq = scrambler_sequence(0x7f, expected.size());
  EXPECT_EQ(seq, expected);
}

TEST(Scrambler, SequenceHasPeriod127) {
  const auto seq = scrambler_sequence(0x2b, 127 * 3);
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]);
    EXPECT_EQ(seq[i], seq[i + 254]);
  }
}

TEST(Scrambler, SelfInverse) {
  common::Rng rng(1);
  const auto data = rng.bits(1000);
  const auto scrambled = scramble(data, 0x5d);
  EXPECT_NE(scrambled, data);
  EXPECT_EQ(descramble(scrambled, 0x5d), data);
}

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(scrambler_sequence(0, 10), std::invalid_argument);
}

TEST(Scrambler, DifferentSeedsDiffer) {
  const auto a = scrambler_sequence(0x01, 64);
  const auto b = scrambler_sequence(0x7f, 64);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------ convolutional

TEST(Convolutional, AllZeroInput) {
  const Bits in(20, 0);
  const auto out = convolutional_encode(in);
  EXPECT_EQ(out, Bits(40, 0));
}

TEST(Convolutional, ImpulseResponseMatchesGenerators) {
  Bits in = {1, 0, 0, 0, 0, 0, 0};
  const auto out = convolutional_encode(in);
  // g0 = 1011011, g1 = 1111001 read over [x_n .. x_{n-6}]: the impulse
  // response interleaves the generator taps.
  const Bits expected = {1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1};
  EXPECT_EQ(out, expected);
}

TEST(Convolutional, EncodeStepMatchesBulkEncode) {
  common::Rng rng(2);
  const auto in = rng.bits(500);
  const auto bulk = convolutional_encode(in);
  unsigned state = 0;
  for (std::size_t n = 0; n < in.size(); ++n) {
    const auto r = encode_step(state, in[n]);
    EXPECT_EQ(r.out_a, bulk[2 * n]);
    EXPECT_EQ(r.out_b, bulk[2 * n + 1]);
    state = r.next_state;
  }
}

TEST(Viterbi, DecodesCleanStream) {
  common::Rng rng(3);
  Bits in = rng.bits(300);
  for (std::size_t i = 0; i < kTailBits; ++i) in.push_back(0);
  const auto coded = convolutional_encode(in);
  EXPECT_EQ(viterbi_decode(hard_llrs(coded), /*terminated=*/true), in);
}

TEST(Viterbi, CorrectsScatteredErrors) {
  common::Rng rng(4);
  Bits in = rng.bits(400);
  for (std::size_t i = 0; i < kTailBits; ++i) in.push_back(0);
  auto coded = convolutional_encode(in);
  // Flip well-separated bits: within the free distance budget.
  for (std::size_t pos = 13; pos < coded.size(); pos += 101) {
    coded[pos] ^= 1;
  }
  EXPECT_EQ(viterbi_decode(hard_llrs(coded), /*terminated=*/true), in);
}

TEST(Viterbi, NonTerminatedDecode) {
  common::Rng rng(5);
  const auto in = rng.bits(256);
  const auto coded = convolutional_encode(in);
  EXPECT_EQ(viterbi_decode(hard_llrs(coded), /*terminated=*/false), in);
}

TEST(Viterbi, RejectsOddLength) {
  EXPECT_THROW(viterbi_decode(std::vector<double>{1.0, -1.0, 1.0}),
               std::invalid_argument);
}

// ----------------------------------------------------------------- puncture

TEST(Puncture, MaskShapes) {
  EXPECT_EQ(puncture_mask(CodingRate::kR12).size(), 2u);
  EXPECT_EQ(puncture_mask(CodingRate::kR23).size(), 4u);
  EXPECT_EQ(puncture_mask(CodingRate::kR34).size(), 6u);
  EXPECT_EQ(puncture_mask(CodingRate::kR56).size(), 10u);
}

TEST(Puncture, RateRatiosHold) {
  common::Rng rng(6);
  const auto coded = rng.bits(1200);
  EXPECT_EQ(puncture(coded, CodingRate::kR12).size(), 1200u);
  EXPECT_EQ(puncture(coded, CodingRate::kR23).size(), 900u);
  EXPECT_EQ(puncture(coded, CodingRate::kR34).size(), 800u);
  EXPECT_EQ(puncture(coded, CodingRate::kR56).size(), 720u);
}

class PunctureRoundTrip : public ::testing::TestWithParam<CodingRate> {};

TEST_P(PunctureRoundTrip, DepunctureRestoresKeptBits) {
  common::Rng rng(7);
  const auto coded = rng.bits(600);
  const auto punctured = puncture(coded, GetParam());
  const auto llrs = depuncture(hard_llrs(punctured), GetParam());
  ASSERT_EQ(llrs.size(), coded.size());
  const auto mask = puncture_mask(GetParam());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (mask[i % mask.size()]) {
      EXPECT_EQ(llrs[i], coded[i] ? 1.0 : -1.0);
    } else {
      EXPECT_EQ(llrs[i], 0.0);
    }
  }
}

TEST_P(PunctureRoundTrip, IndexMappingsAreInverse) {
  const auto rate = GetParam();
  const auto punctured = puncture(Bits(240, 0), rate);
  for (std::size_t p = 0; p < punctured.size(); ++p) {
    const std::size_t c = punctured_to_coded_index(rate, p);
    std::size_t back = 0;
    ASSERT_TRUE(coded_to_punctured_index(rate, c, back));
    EXPECT_EQ(back, p);
  }
}

TEST_P(PunctureRoundTrip, ViterbiDecodesPuncturedStream) {
  common::Rng rng(8);
  Bits in = rng.bits(360);
  for (std::size_t i = 0; i < kTailBits; ++i) in.push_back(0);
  const auto coded = convolutional_encode(in);
  const auto punctured = puncture(coded, GetParam());
  const auto llrs = depuncture(hard_llrs(punctured), GetParam());
  EXPECT_EQ(viterbi_decode(llrs, /*terminated=*/true), in);
}

INSTANTIATE_TEST_SUITE_P(AllRates, PunctureRoundTrip,
                         ::testing::Values(CodingRate::kR12, CodingRate::kR23,
                                           CodingRate::kR34, CodingRate::kR56));

// --------------------------------------------------------------- interleaver

class InterleaverModulations : public ::testing::TestWithParam<Modulation> {};

TEST_P(InterleaverModulations, PermutationIsBijective) {
  const auto perm = interleaver_permutation(GetParam());
  std::vector<bool> seen(perm.size(), false);
  for (auto j : perm) {
    ASSERT_LT(j, perm.size());
    EXPECT_FALSE(seen[j]);
    seen[j] = true;
  }
}

TEST_P(InterleaverModulations, InverseUndoesPermutation) {
  common::Rng rng(9);
  const auto m = GetParam();
  const auto in = rng.bits(coded_bits_per_symbol(m) * 3);
  EXPECT_EQ(deinterleave(hard_llrs(interleave(in, m)), m), hard_llrs(in));
}

TEST_P(InterleaverModulations, AdjacentBitsLandOnDistantSubcarriers) {
  // Core interleaver property: consecutive coded bits are spaced several
  // subcarriers apart, which is what scatters SledZig's significant bits.
  const auto m = GetParam();
  const auto inv = interleaver_inverse(m);  // coded bit k -> QAM bit index
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  for (std::size_t k = 0; k + 1 < inv.size(); ++k) {
    const auto sc_a = inv[k] / n_bpsc;
    const auto sc_b = inv[k + 1] / n_bpsc;
    EXPECT_NE(sc_a, sc_b);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, InterleaverModulations,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64,
                                           Modulation::kQam256));

TEST(Interleaver, RejectsPartialSymbol) {
  EXPECT_THROW(interleave(Bits(100, 0), Modulation::kQam16),
               std::invalid_argument);
}

// ---------------------------------------------------------------------- QAM

TEST(Qam, KnownQam16Points) {
  // Interlaced layout (i0 q0 i1 q1); per axis Gray: 00 -> -3, 01 -> -1,
  // 11 -> +1, 10 -> +3.
  const double k = 1.0 / std::sqrt(10.0);
  EXPECT_EQ(qam_map_point(Bits{0, 0, 0, 0}, Modulation::kQam16),
            common::Cplx(-3 * k, -3 * k));
  EXPECT_EQ(qam_map_point(Bits{1, 1, 1, 1}, Modulation::kQam16),
            common::Cplx(k, k));  // a lowest-power point
  EXPECT_EQ(qam_map_point(Bits{1, 0, 0, 0}, Modulation::kQam16),
            common::Cplx(3 * k, -3 * k));
  EXPECT_EQ(qam_map_point(Bits{0, 1, 0, 1}, Modulation::kQam16),
            common::Cplx(-3 * k, k));
}

TEST(Qam, KnownQam64Axis) {
  // Gray per axis: 000 -> -7, 010 -> -1, 110 -> +1, 100 -> +7; I bits at
  // even group offsets.
  const double k = 1.0 / std::sqrt(42.0);
  EXPECT_NEAR(
      qam_map_point(Bits{0, 0, 0, 0, 0, 0}, Modulation::kQam64).real(), -7 * k,
      1e-12);
  EXPECT_NEAR(
      qam_map_point(Bits{0, 0, 1, 0, 0, 0}, Modulation::kQam64).real(), -1 * k,
      1e-12);
  EXPECT_NEAR(
      qam_map_point(Bits{1, 0, 1, 0, 0, 0}, Modulation::kQam64).real(), 1 * k,
      1e-12);
  EXPECT_NEAR(
      qam_map_point(Bits{1, 0, 0, 0, 0, 0}, Modulation::kQam64).real(), 7 * k,
      1e-12);
}

class QamModulations : public ::testing::TestWithParam<Modulation> {};

TEST_P(QamModulations, DemapInvertsMapForEveryPoint) {
  const auto m = GetParam();
  const std::size_t n = bits_per_subcarrier(m);
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits bits;
    for (std::size_t i = 0; i < n; ++i) {
      bits.push_back(static_cast<common::Bit>((v >> i) & 1u));
    }
    const auto point = qam_map_point(bits, m);
    EXPECT_EQ(qam_demap_point(point, m), bits) << "value " << v;
  }
}

TEST_P(QamModulations, UnitAveragePower) {
  const auto m = GetParam();
  const std::size_t n = bits_per_subcarrier(m);
  double acc = 0.0;
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits bits;
    for (std::size_t i = 0; i < n; ++i) {
      bits.push_back(static_cast<common::Bit>((v >> i) & 1u));
    }
    acc += std::norm(qam_map_point(bits, m));
  }
  EXPECT_NEAR(acc / static_cast<double>(1ull << n), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, QamModulations,
                         ::testing::Values(Modulation::kBpsk, Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64,
                                           Modulation::kQam256));

class QamSignificantBits
    : public ::testing::TestWithParam<Modulation> {};

TEST_P(QamSignificantBits, SpecSelectsExactlyTheLowestPoints) {
  const auto m = GetParam();
  const auto specs = significant_bits(m);
  const std::size_t n = bits_per_subcarrier(m);
  EXPECT_EQ(specs.size(), n - 2);  // 2, 4, 6 for QAM-16/64/256
  for (std::uint64_t v = 0; v < (1ull << n); ++v) {
    Bits bits;
    for (std::size_t i = 0; i < n; ++i) {
      bits.push_back(static_cast<common::Bit>((v >> i) & 1u));
    }
    bool matches = true;
    for (const auto& s : specs) {
      if (bits[s.offset_in_group] != s.value) matches = false;
    }
    const auto point = qam_map_point(bits, m);
    EXPECT_EQ(is_lowest_point(point, m), matches)
        << "value " << v << " for " << to_string(m);
  }
}

TEST_P(QamSignificantBits, TheoreticalPowerGap) {
  // P_avg / P_low: 7.0 dB (QAM-16), 13.2 dB (QAM-64), 19.3 dB (QAM-256).
  const auto m = GetParam();
  const double gap_db = common::linear_to_db(average_point_power_raw(m) /
                                             lowest_point_power_raw());
  if (m == Modulation::kQam16) {
    EXPECT_NEAR(gap_db, 7.0, 0.05);
  }
  if (m == Modulation::kQam64) {
    EXPECT_NEAR(gap_db, 13.2, 0.05);
  }
  if (m == Modulation::kQam256) {
    EXPECT_NEAR(gap_db, 19.3, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(QamOnly, QamSignificantBits,
                         ::testing::Values(Modulation::kQam16,
                                           Modulation::kQam64,
                                           Modulation::kQam256));

// ----------------------------------------------------------- subcarrier map

TEST(Subcarriers, CountsAndDisjointness) {
  // 802.11 17.3.5.10: 48 data subcarriers on -26..26, skipping DC and the
  // pilots at -21, -7, 7, 21, whose base values are 1, 1, 1, -1.
  const std::vector<int> standard_data = {
      -26, -25, -24, -23, -22, -20, -19, -18, -17, -16, -15, -14,
      -13, -12, -11, -10, -9,  -8,  -6,  -5,  -4,  -3,  -2,  -1,
      1,   2,   3,   4,   5,   6,   8,   9,   10,  11,  12,  13,
      14,  15,  16,  17,  18,  19,  20,  22,  23,  24,  25,  26};
  const auto& plan = channel_plan(ChannelWidth::k20MHz);
  EXPECT_EQ(plan.data_indices, standard_data);
  EXPECT_EQ(plan.pilot_indices, (std::vector<int>{-21, -7, 7, 21}));
  EXPECT_EQ(plan.pilot_values, (std::vector<double>{1.0, 1.0, 1.0, -1.0}));
  for (int p : plan.pilot_indices) {
    EXPECT_EQ(plan.data_position(p), -1);
  }
  EXPECT_EQ(plan.data_position(0), -1);   // DC
  EXPECT_EQ(plan.data_position(27), -1);  // guard band
  EXPECT_EQ(plan.data_position(-26), 0);
  EXPECT_EQ(plan.data_position(26), 47);
}

TEST(Subcarriers, PaperTableIiGeometry) {
  // The positions used in Table II: CH2 overlaps logical -10..-3; its data
  // subcarriers occupy positions 15..21 of the 48-entry data order.
  const auto& plan = channel_plan(ChannelWidth::k20MHz);
  EXPECT_EQ(plan.data_position(-10), 15);
  EXPECT_EQ(plan.data_position(-9), 16);
  EXPECT_EQ(plan.data_position(-8), 17);
  EXPECT_EQ(plan.data_position(-7), -1);  // pilot
  EXPECT_EQ(plan.data_position(-6), 18);
  EXPECT_EQ(plan.data_position(-3), 21);
}

TEST(Subcarriers, PilotPolarityMatchesStandardPrefix) {
  // p_0.. = 1 1 1 1 -1 -1 -1 1 ... (17.3.5.10)
  const double expected[] = {1, 1, 1, 1, -1, -1, -1, 1};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(pilot_polarity(i), expected[i]) << i;
  }
  EXPECT_EQ(pilot_polarity(0), pilot_polarity(127));
}

// --------------------------------------------------------------------- OFDM

TEST(Ofdm, SymbolRoundTripFlatChannel) {
  common::Rng rng(11);
  common::CplxVec points(kNumDataSubcarriers);
  for (auto& p : points) p = rng.complex_gaussian(1.0);
  const auto symbol = modulate_ofdm_symbol(points, 3);
  const auto channel = flat_channel();
  const auto recovered = demodulate_ofdm_symbol(symbol, 3, channel);
  ASSERT_EQ(recovered.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_NEAR(std::abs(recovered[i] - points[i]), 0.0, 1e-9);
  }
}

TEST(Ofdm, UnitMeanPowerForUnitConstellation) {
  common::Rng rng(12);
  const auto bits = rng.bits(kNumDataSubcarriers * 4);
  const auto points = qam_map(bits, Modulation::kQam16);
  const auto symbol = modulate_ofdm_symbol(points, 1);
  // 52 occupied bins of ~unit power with the 64/sqrt(52) time scale give a
  // unit mean-power symbol (within constellation quantisation).
  EXPECT_NEAR(common::mean_power(symbol), 1.0, 0.35);
}

TEST(Ofdm, CyclicPrefixIsCopyOfTail) {
  common::Rng rng(13);
  common::CplxVec points(kNumDataSubcarriers);
  for (auto& p : points) p = rng.complex_gaussian(1.0);
  const auto symbol = modulate_ofdm_symbol(points, 0);
  ASSERT_EQ(symbol.size(), kSymbolLen);
  for (std::size_t i = 0; i < kCyclicPrefixLen; ++i) {
    EXPECT_EQ(symbol[i], symbol[kNumSubcarriers + i]);
  }
}

// ----------------------------------------------------------------- preamble

TEST(Preamble, StfIsPeriodic16) {
  const auto& stf = short_training_field();
  ASSERT_EQ(stf.size(), kStfLen);
  for (std::size_t i = 16; i < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i - 16]), 0.0, 1e-12);
  }
}

TEST(Preamble, LtfHasTwoIdenticalSymbols) {
  const auto& ltf = long_training_field();
  ASSERT_EQ(ltf.size(), kLtfLen);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(ltf[32 + i] - ltf[96 + i]), 0.0, 1e-12);
  }
}

TEST(Preamble, PowerComparableToDataSymbols) {
  // The standard's STS/LTS scaling keeps preamble power equal to payload
  // power (52 unit bins).
  EXPECT_NEAR(common::mean_power(long_training_symbol()), 1.0, 1e-6);
  EXPECT_NEAR(common::mean_power(short_training_field()), 1.0, 1e-6);
}

// ------------------------------------------------------------- SIGNAL field

TEST(SignalField, BitsRoundTrip) {
  SignalField f;
  f.modulation = Modulation::kQam64;
  f.rate = CodingRate::kR56;
  f.psdu_octets = 1234;
  const auto bits = encode_signal_bits(f);
  ASSERT_EQ(bits.size(), 24u);
  const auto decoded = decode_signal_bits(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->modulation, Modulation::kQam64);
  EXPECT_EQ(decoded->rate, CodingRate::kR56);
  EXPECT_EQ(decoded->psdu_octets, 1234u);
}

TEST(SignalField, ParityFailureDetected) {
  SignalField f;
  f.modulation = Modulation::kQam16;
  f.rate = CodingRate::kR12;
  f.psdu_octets = 100;
  auto bits = encode_signal_bits(f);
  bits[6] ^= 1;
  EXPECT_FALSE(decode_signal_bits(bits).has_value());
}

TEST(SignalField, SymbolRoundTrip) {
  SignalField f;
  f.modulation = Modulation::kQam256;
  f.rate = CodingRate::kR34;
  f.psdu_octets = 771;
  const auto symbol = modulate_signal_symbol(f);
  const auto channel = flat_channel();
  const auto decoded = demodulate_signal_symbol(symbol, channel);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->modulation, f.modulation);
  EXPECT_EQ(decoded->rate, f.rate);
  EXPECT_EQ(decoded->psdu_octets, f.psdu_octets);
}

TEST(SignalField, AllPaperModesHaveRateCodes) {
  for (const auto& mode : paper_phy_modes()) {
    const auto code = rate_code(mode.modulation, mode.rate);
    const auto back = mode_from_rate_code(code);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->modulation, mode.modulation);
    EXPECT_EQ(back->rate, mode.rate);
  }
}

TEST(SignalField, HasRateCodeAgreesWithRateCode) {
  // Config validation asks has_rate_code up front; the transmitter asks
  // rate_code.  They read one table, so they must agree on every pair.
  for (const auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                       Modulation::kQam64, Modulation::kQam256}) {
    for (const auto r : {CodingRate::kR12, CodingRate::kR23, CodingRate::kR34,
                         CodingRate::kR56}) {
      if (has_rate_code(m, r)) {
        EXPECT_NO_THROW(rate_code(m, r)) << to_string(m) << " " << to_string(r);
      } else {
        EXPECT_THROW(rate_code(m, r), std::invalid_argument)
            << to_string(m) << " " << to_string(r);
      }
    }
  }
  EXPECT_FALSE(has_rate_code(Modulation::kQam256, CodingRate::kR12));
  EXPECT_TRUE(has_rate_code(Modulation::kQam256, CodingRate::kR34));
}

// --------------------------------------------------------------- PHY params

TEST(PhyParams, BitsPerSymbolTableIii) {
  // "No. of bits per OFDM symbol" column of Table III.
  EXPECT_EQ(data_bits_per_symbol(Modulation::kQam16, CodingRate::kR12), 96u);
  EXPECT_EQ(data_bits_per_symbol(Modulation::kQam16, CodingRate::kR34), 144u);
  EXPECT_EQ(data_bits_per_symbol(Modulation::kQam64, CodingRate::kR23), 192u);
  EXPECT_EQ(data_bits_per_symbol(Modulation::kQam64, CodingRate::kR34), 216u);
  EXPECT_EQ(data_bits_per_symbol(Modulation::kQam64, CodingRate::kR56), 240u);
  EXPECT_EQ(data_bits_per_symbol(Modulation::kQam256, CodingRate::kR34), 288u);
  EXPECT_EQ(data_bits_per_symbol(Modulation::kQam256, CodingRate::kR56), 320u);
}

}  // namespace
}  // namespace sledzig::wifi

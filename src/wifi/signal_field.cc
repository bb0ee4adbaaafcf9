#include "wifi/signal_field.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/qam.h"

namespace sledzig::wifi {

namespace {

struct RateEntry {
  std::uint8_t code;
  Modulation m;
  CodingRate r;
};

constexpr std::array<RateEntry, 10> kRateTable = {{
    {0x1, Modulation::kBpsk, CodingRate::kR12},
    {0x2, Modulation::kQpsk, CodingRate::kR12},
    {0x3, Modulation::kQpsk, CodingRate::kR34},
    {0x4, Modulation::kQam16, CodingRate::kR12},
    {0x5, Modulation::kQam16, CodingRate::kR34},
    {0x6, Modulation::kQam64, CodingRate::kR23},
    {0x7, Modulation::kQam64, CodingRate::kR34},
    {0x8, Modulation::kQam64, CodingRate::kR56},
    {0x9, Modulation::kQam256, CodingRate::kR34},
    {0xA, Modulation::kQam256, CodingRate::kR56},
}};

}  // namespace

std::uint8_t rate_code(Modulation m, CodingRate r) {
  for (const auto& e : kRateTable) {
    if (e.m == m && e.r == r) return e.code;
  }
  throw std::invalid_argument("rate_code: unsupported modulation/rate combo");
}

bool has_rate_code(Modulation m, CodingRate r) {
  return std::any_of(kRateTable.begin(), kRateTable.end(),
                     [&](const RateEntry& e) { return e.m == m && e.r == r; });
}

std::optional<SignalField> mode_from_rate_code(std::uint8_t code) {
  for (const auto& e : kRateTable) {
    if (e.code == code) {
      SignalField f;
      f.modulation = e.m;
      f.rate = e.r;
      return f;
    }
  }
  return std::nullopt;
}

common::Bits encode_signal_bits(const SignalField& field) {
  if (field.psdu_octets > kMaxPsduOctets) {
    throw std::invalid_argument("encode_signal_bits: LENGTH overflow");
  }
  common::Bits bits;
  common::append_uint(bits, rate_code(field.modulation, field.rate), 4);
  bits.push_back(0);  // reserved
  common::append_uint(bits, field.psdu_octets, 12);
  bits.push_back(common::parity(bits));  // even parity over bits 0..16
  for (std::size_t i = 0; i < kTailBits; ++i) bits.push_back(0);
  return bits;
}

std::optional<SignalField> decode_signal_bits(const common::Bits& bits) {
  if (bits.size() != 24) return std::nullopt;
  common::Bits head(bits.begin(), bits.begin() + 17);
  if (common::parity(head) != bits[17]) return std::nullopt;
  auto field = mode_from_rate_code(
      static_cast<std::uint8_t>(common::bits_to_uint(bits, 4)));
  if (!field) return std::nullopt;
  field->psdu_octets = static_cast<std::size_t>(
      common::bits_to_uint(std::span<const common::Bit>(bits).subspan(5), 12));
  return field;
}

common::CplxVec modulate_signal_symbol(const SignalField& field,
                                       const ChannelPlan& plan) {
  auto bits = encode_signal_bits(field);
  // Zero-pad to half the plan's BPSK N_CBPS (48 coded bits fill the 20 MHz
  // symbol exactly; wider plans carry trailing zeros).
  bits.resize(coded_bits_per_symbol(Modulation::kBpsk, plan) / 2, 0);
  const auto coded = convolutional_encode(bits);
  const auto interleaved = interleave(coded, Modulation::kBpsk, plan);
  const auto points = qam_map(interleaved, Modulation::kBpsk);
  return modulate_ofdm_symbol(points, /*symbol_index=*/0, plan);
}

std::optional<SignalField> demodulate_signal_symbol(
    std::span<const common::Cplx> samples,
    std::span<const common::Cplx> channel, const ChannelPlan& plan) {
  const auto points =
      demodulate_ofdm_symbol(samples, /*symbol_index=*/0, channel, plan);
  const auto decoded = viterbi_decode(
      deinterleave(hard_llrs(qam_demap(points, Modulation::kBpsk)),
                   Modulation::kBpsk, plan),
      /*terminated=*/true);
  if (decoded.size() < 24) return std::nullopt;
  common::Bits head(decoded.begin(), decoded.begin() + 24);
  return decode_signal_bits(head);
}

}  // namespace sledzig::wifi

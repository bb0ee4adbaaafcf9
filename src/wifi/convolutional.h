// Rate-1/2, constraint-length-7 convolutional code of 802.11
// (generators g0 = 133o = 1011011b, g1 = 171o = 1111001b) plus a Viterbi
// decoder over per-bit LLRs, with LLR 0 for depunctured positions.
//
// Output ordering: input bit x_n produces y_{2n-1} (from g0) followed by
// y_{2n} (from g1), matching Eq. 1 of the paper.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace sledzig::wifi {

inline constexpr unsigned kConstraintLength = 7;
inline constexpr unsigned kNumStates = 1u << (kConstraintLength - 1);  // 64
// Generator taps over [x_n, x_{n-1}, ..., x_{n-6}]:
inline constexpr std::uint8_t kGen0 = 0b1011011;  // 133 octal
inline constexpr std::uint8_t kGen1 = 0b1111001;  // 171 octal

/// Generator of coded output `branch`: 0 = y_{2n-1} (g0), 1 = y_{2n} (g1).
constexpr unsigned generator(unsigned branch) {
  return branch == 0 ? kGen0 : kGen1;
}

/// True when output `branch` of step n taps x_{n-offset}, offset in [0, 6].
constexpr bool taps(unsigned branch, unsigned offset) {
  return ((generator(branch) >> (6 - offset)) & 1u) != 0;
}

/// Encoder state = the previous 6 input bits, x_{n-1} in the MSB-6 position:
/// state = x_{n-1}<<5 | x_{n-2}<<4 | ... | x_{n-6}.
struct EncodeStepResult {
  unsigned next_state;
  common::Bit out_a;  // y_{2n-1}, generator g0
  common::Bit out_b;  // y_{2n},   generator g1
};

/// Parity of the taps of generator `branch` in a 7-bit encoder register.
constexpr common::Bit tap_parity(unsigned reg, unsigned branch) {
  unsigned v = reg & generator(branch);
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return static_cast<common::Bit>(v & 1u);
}

/// One encoder transition.  Pure function; used by the encoder, the Viterbi
/// butterflies and the SledZig encoder's constraint re-check.
constexpr EncodeStepResult encode_step(unsigned state, common::Bit input) {
  // Register layout: bit6 = x_n (current input), bit5..bit0 = x_{n-1}..x_{n-6}.
  const unsigned reg = (static_cast<unsigned>(input & 1u) << 6) | (state & 0x3f);
  return EncodeStepResult{(reg >> 1) & 0x3f,  // drop x_{n-6}, x_n -> x_{n-1}
                          tap_parity(reg, 0), tap_parity(reg, 1)};
}

/// Encodes the whole input (no tail appended; append kTailBits zeros
/// upstream if you need the trellis terminated).  Output has 2x the length.
common::Bits convolutional_encode(const common::Bits& in);

/// Viterbi decoder over the same code.
///
/// `llrs` holds one log-likelihood ratio per 1/2-rate coded bit: positive
/// for a likely 1, 0 for an erased or punctured position.  Hard decisions
/// enter as LLRs of +-1 (hard_llrs in wifi/qam.h), which decodes exactly as
/// a Hamming-metric Viterbi would.  The length must be even.  If
/// `terminated` is true the decoder assumes the encoder was flushed to
/// state 0 (tail bits present in the input and returned in the output).
/// Input with every |LLR| <= 1e280 runs a sweep without the unreachable-
/// state sentinel clamp; any other input (larger, infinite or NaN LLRs)
/// runs the clamped sweep, which decodes bounded input identically.
common::Bits viterbi_decode(std::span<const double> llrs,
                            bool terminated = true);

}  // namespace sledzig::wifi

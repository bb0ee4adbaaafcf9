#include "wifi/scrambler.h"

#include <algorithm>
#include <stdexcept>

namespace sledzig::wifi {

common::Bits scrambler_sequence(std::uint8_t seed, std::size_t count) {
  if ((seed & 0x7f) == 0) {
    throw std::invalid_argument("scrambler: seed must be a nonzero 7-bit value");
  }
  // x^7 + x^4 + 1 is primitive, so every nonzero state recurs after exactly
  // 127 steps: one period of the LFSR, tiled, is the whole keystream.
  constexpr std::size_t kPeriod = 127;
  // state bits: state[0] = x1 ... state[6] = x7 in the standard's notation.
  std::uint8_t state = static_cast<std::uint8_t>(seed & 0x7f);
  common::Bits out(count);
  const std::size_t first = std::min(count, kPeriod);
  for (std::size_t i = 0; i < first; ++i) {
    // Feedback = x7 XOR x4.
    const std::uint8_t x7 = (state >> 6) & 1u;
    const std::uint8_t x4 = (state >> 3) & 1u;
    const std::uint8_t fb = x7 ^ x4;
    out[i] = fb;
    state = static_cast<std::uint8_t>(((state << 1) | fb) & 0x7f);
  }
  // [0, done) is a whole number of periods, so it continues itself.
  for (std::size_t done = first; done < count;) {
    const std::size_t n = std::min(done, count - done);
    std::copy_n(out.begin(), n, out.begin() + static_cast<long>(done));
    done += n;
  }
  return out;
}

common::Bits scramble(const common::Bits& in, std::uint8_t seed) {
  auto out = scrambler_sequence(seed, in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<common::Bit>((in[i] ^ out[i]) & 1u);
  }
  return out;
}

}  // namespace sledzig::wifi

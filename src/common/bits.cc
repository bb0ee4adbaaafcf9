#include "common/bits.h"

#include <stdexcept>

namespace sledzig::common {

Bits bytes_to_bits(std::span<const std::uint8_t> bytes) {
  Bits bits(bytes.size() * 8);
  Bit* out = bits.data();
  for (std::uint8_t byte : bytes) {
    for (unsigned i = 0; i < 8; ++i) {
      *out++ = static_cast<Bit>((byte >> i) & 1u);
    }
  }
  return bits;
}

Bytes bits_to_bytes(std::span<const Bit> bits) {
  if (bits.size() % 8 != 0) {
    throw std::invalid_argument("bits_to_bytes: size must be a multiple of 8");
  }
  Bytes bytes(bits.size() / 8);
  const Bit* in = bits.data();
  for (std::uint8_t& byte : bytes) {
    unsigned value = 0;
    for (unsigned i = 0; i < 8; ++i) value |= (in[i] & 1u) << i;
    byte = static_cast<std::uint8_t>(value);
    in += 8;
  }
  return bytes;
}

std::uint64_t bits_to_uint(std::span<const Bit> bits, std::size_t count) {
  if (count > 64 || count > bits.size()) {
    throw std::invalid_argument("bits_to_uint: bad count");
  }
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < count; ++i) {
    value |= static_cast<std::uint64_t>(bits[i] & 1u) << i;
  }
  return value;
}

void append_uint(Bits& bits, std::uint64_t value, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    bits.push_back(static_cast<Bit>((value >> i) & 1u));
  }
}

Bit parity(std::span<const Bit> bits) {
  Bit p = 0;
  for (Bit b : bits) p ^= (b & 1u);
  return p;
}

std::string to_string(std::span<const Bit> bits) {
  std::string s;
  s.reserve(bits.size());
  for (Bit b : bits) s.push_back(b ? '1' : '0');
  return s;
}

std::size_t hamming_distance(std::span<const Bit> a, std::span<const Bit> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("hamming_distance: size mismatch");
  }
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += static_cast<std::size_t>((a[i] ^ b[i]) & 1u);
  }
  return d;
}

bool is_binary(std::span<const Bit> bits) {
  for (Bit b : bits) {
    if (b > 1) return false;
  }
  return true;
}

}  // namespace sledzig::common

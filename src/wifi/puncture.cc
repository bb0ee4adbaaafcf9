#include "wifi/puncture.h"

#include <stdexcept>

namespace sledzig::wifi {

std::span<const bool> puncture_mask(CodingRate r) {
  static constexpr bool kR12[] = {true, true};
  static constexpr bool kR23[] = {true, true, true, false};
  static constexpr bool kR34[] = {true, true, true, false, false, true};
  static constexpr bool kR56[] = {true, true,  true,  false, false,
                                  true, true,  false, false, true};
  switch (r) {
    case CodingRate::kR12:
      return kR12;
    case CodingRate::kR23:
      return kR23;
    case CodingRate::kR34:
      return kR34;
    case CodingRate::kR56:
      return kR56;
  }
  throw std::invalid_argument("puncture_mask: bad rate");
}

common::Bits puncture(const common::Bits& coded, CodingRate r) {
  const auto mask = puncture_mask(r);
  common::Bits out;
  out.reserve(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (mask[i % mask.size()]) out.push_back(coded[i]);
  }
  return out;
}

std::vector<double> depuncture(std::span<const double> punctured,
                               CodingRate r) {
  const auto mask = puncture_mask(r);
  std::size_t kept_per_period = 0;
  for (bool keep : mask) kept_per_period += keep ? 1 : 0;

  std::vector<double> out;
  out.reserve(punctured.size() * mask.size() / kept_per_period + mask.size());
  std::size_t in_pos = 0;
  std::size_t last_kept_end = 0;  // one past the last real (non-erased) LLR
  while (in_pos < punctured.size()) {
    for (bool keep : mask) {
      if (keep && in_pos < punctured.size()) {
        out.push_back(punctured[in_pos++]);
        last_kept_end = out.size();
      } else {
        out.push_back(0.0);
      }
    }
  }
  // The encoder may have stopped mid-pattern; drop padding beyond the last
  // real LLR, rounded up to a whole trellis step.
  out.resize(last_kept_end + (last_kept_end % 2));
  return out;
}

std::size_t punctured_to_coded_index(CodingRate r, std::size_t punctured_pos) {
  const auto mask = puncture_mask(r);
  std::size_t kept_per_period = 0;
  for (bool keep : mask) kept_per_period += keep ? 1 : 0;

  const std::size_t period = punctured_pos / kept_per_period;
  std::size_t within = punctured_pos % kept_per_period;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      if (within == 0) return period * mask.size() + i;
      --within;
    }
  }
  throw std::logic_error("punctured_to_coded_index: unreachable");
}

bool coded_to_punctured_index(CodingRate r, std::size_t coded_pos,
                              std::size_t& punctured_pos) {
  const auto mask = puncture_mask(r);
  std::size_t kept_per_period = 0;
  for (bool keep : mask) kept_per_period += keep ? 1 : 0;

  const std::size_t period = coded_pos / mask.size();
  const std::size_t within = coded_pos % mask.size();
  if (!mask[within]) return false;
  std::size_t kept_before = 0;
  for (std::size_t i = 0; i < within; ++i) {
    kept_before += mask[i] ? 1 : 0;
  }
  punctured_pos = period * kept_per_period + kept_before;
  return true;
}

}  // namespace sledzig::wifi

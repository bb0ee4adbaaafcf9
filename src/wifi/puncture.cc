#include "wifi/puncture.h"

#include <algorithm>
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
  const std::size_t periods = coded.size() / mask.size();
  const std::size_t rest = coded.size() % mask.size();
  const auto kept_in = [&](std::size_t n) {
    return static_cast<std::size_t>(
        std::count(mask.begin(), mask.begin() + static_cast<long>(n), true));
  };
  common::Bits out(periods * kept_in(mask.size()) + kept_in(rest));
  const common::Bit* in = coded.data();
  common::Bit* o = out.data();
  // Whole periods, then the partial one.
  for (std::size_t p = periods; p > 0; --p, in += mask.size()) {
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) *o++ = in[i];
    }
  }
  for (std::size_t i = 0; i < rest; ++i) {
    if (mask[i]) *o++ = in[i];
  }
  return out;
}

std::vector<double> depuncture(std::span<const double> punctured,
                               CodingRate r) {
  if (punctured.empty()) return {};
  const auto mask = puncture_mask(r);
  std::size_t kept_per_period = 0;
  for (bool keep : mask) kept_per_period += keep ? 1 : 0;
  // The encoder may have stopped mid-pattern: the output ends at the last
  // real LLR, rounded up to a whole trellis step, and every erased
  // position reads 0.
  const std::size_t last_kept_end =
      punctured_to_coded_index(r, punctured.size() - 1) + 1;
  std::vector<double> out(last_kept_end + (last_kept_end % 2), 0.0);
  const double* in = punctured.data();
  const double* const in_end = in + punctured.size();
  double* o = out.data();
  // Whole periods, then the partial one.
  for (std::size_t p = punctured.size() / kept_per_period; p > 0;
       --p, o += mask.size()) {
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) o[i] = *in++;
    }
  }
  for (std::size_t i = 0; in != in_end; ++i) {
    if (mask[i]) o[i] = *in++;
  }
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

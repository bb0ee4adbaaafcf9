#include "wifi/subcarriers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "wifi/scrambler.h"

namespace sledzig::wifi {

double ChannelPlan::time_scale() const {
  const auto occupied = data_indices.size() + pilot_indices.size();
  return static_cast<double>(fft_size) / std::sqrt(static_cast<double>(occupied));
}

std::size_t ChannelPlan::to_fft_bin(int logical) const {
  const int half = static_cast<int>(fft_size) / 2;
  if (logical < -half || logical >= half) {
    throw std::invalid_argument("ChannelPlan::to_fft_bin: out of range");
  }
  return static_cast<std::size_t>((logical + static_cast<int>(fft_size)) %
                                  static_cast<int>(fft_size));
}

int ChannelPlan::data_position(int logical) const {
  const auto it =
      std::lower_bound(data_indices.begin(), data_indices.end(), logical);
  if (it == data_indices.end() || *it != logical) return -1;
  return static_cast<int>(it - data_indices.begin());
}

const ChannelPlan& channel_plan(ChannelWidth width) {
  static const ChannelPlan plan20 = [] {
    ChannelPlan p;
    p.width = ChannelWidth::k20MHz;
    p.fft_size = 64;
    p.cp_len = 16;
    p.sample_rate_hz = 20e6;
    p.interleaver_columns = 16;
    for (int l = -26; l <= 26; ++l) {
      if (l == 0 || l == -21 || l == -7 || l == 7 || l == 21) continue;
      p.data_indices.push_back(l);
    }
    p.pilot_indices = {-21, -7, 7, 21};
    p.pilot_values = {1.0, 1.0, 1.0, -1.0};
    return p;
  }();
  static const ChannelPlan plan40 = [] {
    ChannelPlan p;
    p.width = ChannelWidth::k40MHz;
    p.fft_size = 128;
    p.cp_len = 32;
    p.sample_rate_hz = 40e6;
    p.interleaver_columns = 18;
    // 802.11n HT40: occupied -58..58, DC nulls -1..1, pilots +-11/25/53.
    for (int l = -58; l <= 58; ++l) {
      if (l >= -1 && l <= 1) continue;
      if (l == -53 || l == -25 || l == -11 || l == 11 || l == 25 || l == 53) {
        continue;
      }
      p.data_indices.push_back(l);
    }
    p.pilot_indices = {-53, -25, -11, 11, 25, 53};
    p.pilot_values = {1.0, 1.0, 1.0, -1.0, -1.0, 1.0};
    return p;
  }();
  return width == ChannelWidth::k20MHz ? plan20 : plan40;
}

std::size_t coded_bits_per_symbol(Modulation m, const ChannelPlan& plan) {
  return plan.num_data() * bits_per_subcarrier(m);
}

std::size_t data_bits_per_symbol(Modulation m, CodingRate r,
                                 const ChannelPlan& plan) {
  const auto frac = rate_fraction(r);
  return coded_bits_per_symbol(m, plan) * frac.num / frac.den;
}

double pilot_polarity(std::size_t symbol_index) {
  static const common::Bits seq = scrambler_sequence(0x7f, 127);
  return seq[symbol_index % 127] ? -1.0 : 1.0;
}

}  // namespace sledzig::wifi

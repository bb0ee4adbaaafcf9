// 802.11 OFDM subcarrier geometry.
//
// 20 MHz: 48 data + 4 pilot + 12 null subcarriers over a 64-point FFT
// (Fig 2 of the paper); logical indices -32..31, index 0 is the DC null.
// 40 MHz: 108 data + 6 pilot subcarriers over a 128-point FFT
// (802.11n-style); logical indices -64..63.
//
// ChannelPlan describes either width; the 20 MHz plan is the one the
// paper reproduction uses throughout.
#pragma once

#include <complex>
#include <vector>

#include "common/fft.h"
#include "wifi/phy_params.h"

namespace sledzig::wifi {

/// Static description of one channel width's OFDM layout.
struct ChannelPlan {
  ChannelWidth width = ChannelWidth::k20MHz;
  std::size_t fft_size = 64;
  std::size_t cp_len = 16;
  double sample_rate_hz = 20e6;
  /// Interleaver column count (16 for 20 MHz, 18 for 40 MHz per 802.11n).
  std::size_t interleaver_columns = 16;
  std::vector<int> data_indices;      // ascending logical indices
  std::vector<int> pilot_indices;
  std::vector<double> pilot_values;   // base values before polarity

  std::size_t num_data() const { return data_indices.size(); }
  std::size_t symbol_len() const { return fft_size + cp_len; }
  double subcarrier_spacing_hz() const {
    return sample_rate_hz / static_cast<double>(fft_size);
  }
  /// Time-domain scale giving unit mean power for unit-power occupied bins.
  double time_scale() const;
  /// Maps a logical index to an FFT bin.
  std::size_t to_fft_bin(int logical) const;
  /// Position of `logical` in the data order, or -1.
  int data_position(int logical) const;
};

/// The shared immutable plan for a width.
const ChannelPlan& channel_plan(ChannelWidth width);

/// Coded bits per OFDM symbol for a plan (N_CBPS = num_data * N_BPSC).
std::size_t coded_bits_per_symbol(
    Modulation m, const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// Data bits per OFDM symbol for a plan (N_DBPS = N_CBPS * rate).
std::size_t data_bits_per_symbol(
    Modulation m, CodingRate r,
    const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// Pilot polarity p_n for OFDM symbol n (n = 0 is the SIGNAL symbol).  The
/// sequence is the 127-periodic scrambler output with an all-ones seed,
/// mapped 0 -> +1, 1 -> -1.
double pilot_polarity(std::size_t symbol_index);

}  // namespace sledzig::wifi

// 802.11 PLCP preamble: 10 short training symbols (8 us) followed by a long
// guard interval and 2 long training symbols (8 us) — 16 us in total.  The
// preamble is transmitted at full power regardless of SledZig (section IV-F
// of the paper analyses its impact).
//
// For the 40 MHz plan the legacy preamble is duplicated in both 20 MHz
// halves with the upper half rotated by +90 degrees (802.11n L-STF/L-LTF
// duplication); the durations in microseconds are unchanged.
#pragma once

#include "common/fft.h"
#include "wifi/phy_params.h"
#include "wifi/subcarriers.h"

namespace sledzig::wifi {

inline constexpr std::size_t kStfLen = 160;      // 10 x 16 samples at 20 MS/s
inline constexpr std::size_t kLtfLen = 160;      // 32 CP + 2 x 64
inline constexpr std::size_t kPreambleLen = kStfLen + kLtfLen;

/// The short training field (160 samples at 20 MHz, 320 at 40 MHz).
const common::CplxVec& short_training_field(
    ChannelWidth width = ChannelWidth::k20MHz);

/// The long training field.
const common::CplxVec& long_training_field(
    ChannelWidth width = ChannelWidth::k20MHz);

/// STF followed by LTF.
const common::CplxVec& full_preamble(ChannelWidth width = ChannelWidth::k20MHz);

/// Frequency-domain LTS reference values per FFT bin (0 where unoccupied).
const common::CplxVec& ltf_reference_bins(
    ChannelWidth width = ChannelWidth::k20MHz);

/// One long training symbol (time domain, no CP).
const common::CplxVec& long_training_symbol(
    ChannelWidth width = ChannelWidth::k20MHz);

/// Sample counts for a width (scale with the FFT size).
std::size_t stf_len(ChannelWidth width);
std::size_t ltf_len(ChannelWidth width);
std::size_t preamble_len(ChannelWidth width);

}  // namespace sledzig::wifi

// OFDM symbol (de)modulation: subcarrier mapping, pilots, 64-point IFFT and
// cyclic prefix.
//
// Scaling convention: frequency-domain occupied bins carry unit-average-power
// constellation points; time samples are scaled by kTimeScale = 64/sqrt(52)
// so a normal data symbol has unit mean power.  The scale is *fixed* (it
// models a fixed transmit gain): SledZig symbols, whose forced subcarriers
// carry low-power points, come out with slightly lower total power, exactly
// as on real hardware with an unchanged PA setting.
#pragma once

#include <array>
#include <span>

#include "common/fft.h"
#include "wifi/subcarriers.h"
#include "wifi/phy_params.h"

namespace sledzig::wifi {

inline const double kTimeScale = 64.0 / std::sqrt(52.0);

/// Builds one OFDM symbol (CP + FFT body) from the plan's data points.
/// `symbol_index` selects the pilot polarity (0 = SIGNAL symbol).
common::CplxVec modulate_ofdm_symbol(
    std::span<const common::Cplx> data_points, std::size_t symbol_index,
    const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// Recovers the data points from one received symbol.  `channel` holds a
/// per-FFT-bin single-tap channel estimate (plan.fft_size entries); pass an
/// all-ones estimate for a perfect channel.
common::CplxVec demodulate_ofdm_symbol(
    std::span<const common::Cplx> samples, std::size_t symbol_index,
    std::span<const common::Cplx> channel,
    const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// A flat (all-ones) channel estimate for the plan.
common::CplxVec flat_channel(
    const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

}  // namespace sledzig::wifi

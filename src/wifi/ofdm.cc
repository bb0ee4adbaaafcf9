#include "wifi/ofdm.h"

#include <stdexcept>

namespace sledzig::wifi {

common::CplxVec modulate_ofdm_symbol(std::span<const common::Cplx> data_points,
                                     std::size_t symbol_index,
                                     const ChannelPlan& plan) {
  if (data_points.size() != plan.num_data()) {
    throw std::invalid_argument("modulate_ofdm_symbol: wrong data count");
  }
  common::CplxVec bins(plan.fft_size, common::Cplx(0.0, 0.0));
  for (std::size_t i = 0; i < plan.data_indices.size(); ++i) {
    bins[plan.to_fft_bin(plan.data_indices[i])] = data_points[i];
  }
  const double polarity = pilot_polarity(symbol_index);
  for (std::size_t i = 0; i < plan.pilot_indices.size(); ++i) {
    bins[plan.to_fft_bin(plan.pilot_indices[i])] =
        common::Cplx(polarity * plan.pilot_values[i], 0.0);
  }

  // In-place IFFT on the bins buffer (no temporary waveform copy).
  common::fft_inplace(bins, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(plan.fft_size);
  for (auto& s : bins) s *= inv_n;
  const double scale = plan.time_scale();
  for (auto& s : bins) s *= scale;

  common::CplxVec symbol;
  symbol.reserve(plan.symbol_len());
  symbol.insert(symbol.end(), bins.end() - static_cast<long>(plan.cp_len),
                bins.end());
  symbol.insert(symbol.end(), bins.begin(), bins.end());
  return symbol;
}

common::CplxVec demodulate_ofdm_symbol(std::span<const common::Cplx> samples,
                                       std::size_t symbol_index,
                                       std::span<const common::Cplx> channel,
                                       const ChannelPlan& plan) {
  if (samples.size() < plan.symbol_len()) {
    throw std::invalid_argument("demodulate_ofdm_symbol: short symbol");
  }
  if (channel.size() != plan.fft_size) {
    throw std::invalid_argument("demodulate_ofdm_symbol: bad channel size");
  }
  common::CplxVec body;
  common::fft_into(samples.subspan(plan.cp_len, plan.fft_size), body,
                   /*inverse=*/false);
  const double scale = plan.time_scale();
  for (auto& b : body) b /= scale;

  // Residual common phase error: estimate from the pilots and remove.  With
  // a perfect channel this is a no-op; with a noisy channel it stabilises
  // the constellation.
  const double polarity = pilot_polarity(symbol_index);
  common::Cplx phase_acc(0.0, 0.0);
  for (std::size_t i = 0; i < plan.pilot_indices.size(); ++i) {
    const auto bin = plan.to_fft_bin(plan.pilot_indices[i]);
    const common::Cplx expected(polarity * plan.pilot_values[i], 0.0);
    const common::Cplx eq = body[bin] / channel[bin];
    phase_acc += eq * std::conj(expected);
  }
  common::Cplx rot(1.0, 0.0);
  if (std::abs(phase_acc) > 1e-12) rot = phase_acc / std::abs(phase_acc);

  common::CplxVec points(plan.num_data());
  for (std::size_t i = 0; i < plan.data_indices.size(); ++i) {
    const auto bin = plan.to_fft_bin(plan.data_indices[i]);
    points[i] = body[bin] / channel[bin] / rot;
  }
  return points;
}

common::CplxVec flat_channel(const ChannelPlan& plan) {
  return common::CplxVec(plan.fft_size, common::Cplx(1.0, 0.0));
}

}  // namespace sledzig::wifi

#include "wifi/preamble.h"

#include <array>
#include <cmath>

#include "wifi/ofdm.h"

namespace sledzig::wifi {

namespace {

// Long training sequence L_{-26..26} from the 802.11 standard.
constexpr std::array<int, 53> kLts = {
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1,
    1, -1, 1, -1, 1, 1, 1, 1,
    0,
    1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1,
    -1, 1, -1, 1, -1, 1, 1, 1, 1};

// Short training sequence: nonzero at multiples of 4; value (+-1 +-j) *
// sqrt(13/6).
struct StsEntry {
  int logical;
  double re;
  double im;
};
constexpr std::array<StsEntry, 12> kSts = {{
    {-24, 1, 1}, {-20, -1, -1}, {-16, 1, 1}, {-12, -1, -1},
    {-8, -1, -1}, {-4, 1, 1},   {4, -1, -1}, {8, -1, -1},
    {12, 1, 1},  {16, 1, 1},    {20, 1, 1},  {24, 1, 1},
}};

/// Places a 20 MHz logical-index -> value map into `bins` of `plan`,
/// duplicating into both halves for the 40 MHz plan (upper half x j).
void place(const ChannelPlan& plan, int logical20, common::Cplx value,
           common::CplxVec& bins) {
  if (plan.width == ChannelWidth::k20MHz) {
    bins[plan.to_fft_bin(logical20)] = value;
  } else {
    bins[plan.to_fft_bin(logical20 - 32)] = value;
    bins[plan.to_fft_bin(logical20 + 32)] = value * common::Cplx(0.0, 1.0);
  }
}

common::CplxVec time_domain_from_bins(const ChannelPlan& plan,
                                      const common::CplxVec& bins) {
  auto time = common::ifft(bins);
  const double scale = plan.time_scale();
  for (auto& s : time) s *= scale;
  return time;
}

common::CplxVec build_ltf_bins(const ChannelPlan& plan) {
  common::CplxVec bins(plan.fft_size, common::Cplx(0.0, 0.0));
  for (int l = -26; l <= 26; ++l) {
    const double v = static_cast<double>(kLts[static_cast<std::size_t>(l + 26)]);
    if (v != 0.0) place(plan, l, common::Cplx(v, 0.0), bins);
  }
  return bins;
}

common::CplxVec build_lts(const ChannelPlan& plan) {
  return time_domain_from_bins(plan, build_ltf_bins(plan));
}

common::CplxVec build_stf(const ChannelPlan& plan) {
  common::CplxVec bins(plan.fft_size, common::Cplx(0.0, 0.0));
  const double scale = std::sqrt(13.0 / 6.0);
  for (const auto& e : kSts) {
    place(plan, e.logical, common::Cplx(scale * e.re, scale * e.im), bins);
  }
  const auto period = time_domain_from_bins(plan, bins);
  // The IFFT of the STS bins is periodic with period fft/4; the STF covers
  // 8 us = 2.5 FFT bodies.
  common::CplxVec out;
  const std::size_t total = plan.fft_size * 5 / 2;
  out.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    out.push_back(period[i % plan.fft_size]);
  }
  return out;
}

common::CplxVec build_ltf(const ChannelPlan& plan) {
  const auto lts = build_lts(plan);
  common::CplxVec out;
  out.reserve(plan.fft_size * 5 / 2);
  // Half-body guard (second half of the LTS), then two LTS.
  out.insert(out.end(), lts.end() - static_cast<long>(plan.fft_size / 2),
             lts.end());
  out.insert(out.end(), lts.begin(), lts.end());
  out.insert(out.end(), lts.begin(), lts.end());
  return out;
}

struct PreambleSet {
  common::CplxVec stf, ltf, full, lts, ltf_bins;
};

PreambleSet build_preamble_set(ChannelWidth width) {
  const auto& plan = channel_plan(width);
  PreambleSet s;
  s.stf = build_stf(plan);
  s.ltf = build_ltf(plan);
  s.full = s.stf;
  s.full.insert(s.full.end(), s.ltf.begin(), s.ltf.end());
  s.lts = build_lts(plan);
  s.ltf_bins = build_ltf_bins(plan);
  return s;
}

const PreambleSet& preamble_set(ChannelWidth width) {
  static const PreambleSet sets[2] = {
      build_preamble_set(ChannelWidth::k20MHz),
      build_preamble_set(ChannelWidth::k40MHz),
  };
  return sets[width == ChannelWidth::k20MHz ? 0 : 1];
}

}  // namespace

const common::CplxVec& short_training_field(ChannelWidth width) {
  return preamble_set(width).stf;
}

const common::CplxVec& long_training_field(ChannelWidth width) {
  return preamble_set(width).ltf;
}

const common::CplxVec& full_preamble(ChannelWidth width) {
  return preamble_set(width).full;
}

const common::CplxVec& ltf_reference_bins(ChannelWidth width) {
  return preamble_set(width).ltf_bins;
}

const common::CplxVec& long_training_symbol(ChannelWidth width) {
  return preamble_set(width).lts;
}

std::size_t stf_len(ChannelWidth width) {
  return channel_plan(width).fft_size * 5 / 2;
}
std::size_t ltf_len(ChannelWidth width) {
  return channel_plan(width).fft_size * 5 / 2;
}
std::size_t preamble_len(ChannelWidth width) {
  return stf_len(width) + ltf_len(width);
}

}  // namespace sledzig::wifi

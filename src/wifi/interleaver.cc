#include "wifi/interleaver.h"

#include <array>
#include <initializer_list>
#include <stdexcept>

namespace sledzig::wifi {

std::vector<std::size_t> interleaver_permutation(Modulation m,
                                                 const ChannelPlan& plan) {
  const std::size_t n_cbps = coded_bits_per_symbol(m, plan);
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  const std::size_t cols = plan.interleaver_columns;
  const std::size_t s = std::max<std::size_t>(n_bpsc / 2, 1);
  if (n_cbps % cols != 0) {
    throw std::logic_error("interleaver: N_CBPS not divisible by columns");
  }
  std::vector<std::size_t> perm(n_cbps);
  for (std::size_t k = 0; k < n_cbps; ++k) {
    const std::size_t i = (n_cbps / cols) * (k % cols) + k / cols;
    const std::size_t j =
        s * (i / s) + (i + n_cbps - (cols * i / n_cbps)) % s;
    perm[k] = j;
  }
  return perm;
}

std::span<const std::size_t> interleaver_table(Modulation m,
                                               const ChannelPlan& plan) {
  static const auto tables = [] {
    std::array<std::array<std::vector<std::size_t>, 2>, 5> all;
    for (const Modulation mod :
         {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
          Modulation::kQam64, Modulation::kQam256}) {
      for (const ChannelWidth width :
           {ChannelWidth::k20MHz, ChannelWidth::k40MHz}) {
        all[static_cast<std::size_t>(mod)][static_cast<std::size_t>(width)] =
            interleaver_permutation(mod, channel_plan(width));
      }
    }
    return all;
  }();
  if (&plan != &channel_plan(plan.width)) {
    throw std::invalid_argument("interleaver_table: not a shared channel plan");
  }
  return tables.at(static_cast<std::size_t>(m))
      .at(static_cast<std::size_t>(plan.width));
}

std::vector<std::size_t> interleaver_inverse(Modulation m,
                                             const ChannelPlan& plan) {
  const auto perm = interleaver_table(m, plan);
  std::vector<std::size_t> inv(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) inv[perm[k]] = k;
  return inv;
}

namespace {

template <typename T>
std::vector<T> apply_blockwise(const std::vector<T>& in, Modulation m,
                               const ChannelPlan& plan, bool forward) {
  const std::size_t n_cbps = coded_bits_per_symbol(m, plan);
  if (in.size() % n_cbps != 0) {
    throw std::invalid_argument(
        "interleave: input not a multiple of N_CBPS");
  }
  const auto perm = interleaver_table(m, plan);
  std::vector<T> out(in.size());
  for (std::size_t block = 0; block < in.size(); block += n_cbps) {
    for (std::size_t k = 0; k < n_cbps; ++k) {
      if (forward) {
        out[block + k] = in[block + perm[k]];  // gather (see header)
      } else {
        out[block + perm[k]] = in[block + k];
      }
    }
  }
  return out;
}

}  // namespace

common::Bits interleave(const common::Bits& in, Modulation m,
                        const ChannelPlan& plan) {
  return apply_blockwise(in, m, plan, /*forward=*/true);
}

std::vector<double> deinterleave(const std::vector<double>& in, Modulation m,
                                 const ChannelPlan& plan) {
  return apply_blockwise(in, m, plan, /*forward=*/false);
}

}  // namespace sledzig::wifi

#include "wifi/qam.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sledzig::wifi {

namespace {

/// Decodes a binary-reflected Gray code given MSB-first bits.
unsigned gray_decode(std::span<const common::Bit> bits) {
  unsigned b = 0;
  unsigned prev = 0;
  for (common::Bit g : bits) {
    prev ^= (g & 1u);
    b = (b << 1) | prev;
  }
  return b;
}

/// Encodes value (0..2^n-1) as MSB-first Gray bits.
void gray_encode(unsigned value, std::size_t n, common::Bits& out) {
  const unsigned g = value ^ (value >> 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<common::Bit>((g >> (n - 1 - i)) & 1u));
  }
}

double axis_amplitude(std::span<const common::Bit> bits) {
  const auto n = bits.size();
  return 2.0 * static_cast<double>(gray_decode(bits)) -
         (static_cast<double>(1u << n) - 1.0);
}

/// Nearest valid axis level for n bits, returned as the level index 0..2^n-1.
unsigned nearest_level(double value, std::size_t n) {
  const double max_level = static_cast<double>((1u << n) - 1);
  double idx = (value + max_level) / 2.0;
  idx = std::round(idx);
  if (idx < 0) idx = 0;
  if (idx > max_level) idx = max_level;
  return static_cast<unsigned>(idx);
}

}  // namespace

double qam_norm(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64: return 1.0 / std::sqrt(42.0);
    case Modulation::kQam256: return 1.0 / std::sqrt(170.0);
  }
  throw std::invalid_argument("qam_norm: bad modulation");
}

common::Cplx qam_map_point(std::span<const common::Bit> bits, Modulation m) {
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  if (bits.size() != n_bpsc) {
    throw std::invalid_argument("qam_map_point: wrong group size");
  }
  const double k = qam_norm(m);
  if (m == Modulation::kBpsk) {
    return {k * (bits[0] ? 1.0 : -1.0), 0.0};
  }
  // Interlaced layout: I bits at even group offsets, Q bits at odd.  An
  // axis carries at most 4 bits (QAM-256).
  const std::size_t half = n_bpsc / 2;
  std::array<common::Bit, 4> i_bits{}, q_bits{};
  for (std::size_t t = 0; t < half; ++t) {
    i_bits[t] = bits[2 * t];
    q_bits[t] = bits[2 * t + 1];
  }
  const double i = axis_amplitude(std::span(i_bits).first(half));
  const double q = axis_amplitude(std::span(q_bits).first(half));
  return {k * i, k * q};
}

common::CplxVec qam_map(const common::Bits& bits, Modulation m) {
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  if (bits.size() % n_bpsc != 0) {
    throw std::invalid_argument("qam_map: size not a multiple of N_BPSC");
  }
  common::CplxVec out;
  out.reserve(bits.size() / n_bpsc);
  for (std::size_t i = 0; i < bits.size(); i += n_bpsc) {
    out.push_back(
        qam_map_point(std::span<const common::Bit>(bits).subspan(i, n_bpsc), m));
  }
  return out;
}

common::Bits qam_demap_point(common::Cplx point, Modulation m) {
  const double k = qam_norm(m);
  common::Bits out;
  if (m == Modulation::kBpsk) {
    out.push_back(point.real() >= 0.0 ? 1 : 0);
    return out;
  }
  const std::size_t half = bits_per_subcarrier(m) / 2;
  common::Bits i_bits, q_bits;
  gray_encode(nearest_level(point.real() / k, half), half, i_bits);
  gray_encode(nearest_level(point.imag() / k, half), half, q_bits);
  out.resize(2 * half);
  for (std::size_t t = 0; t < half; ++t) {
    out[2 * t] = i_bits[t];
    out[2 * t + 1] = q_bits[t];
  }
  return out;
}

common::Bits qam_demap(std::span<const common::Cplx> points, Modulation m) {
  common::Bits out;
  out.reserve(points.size() * bits_per_subcarrier(m));
  for (const auto& p : points) {
    const auto bits = qam_demap_point(p, m);
    out.insert(out.end(), bits.begin(), bits.end());
  }
  return out;
}

std::vector<double> hard_llrs(std::span<const common::Bit> bits) {
  std::vector<double> llrs(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) llrs[i] = bits[i] ? 1.0 : -1.0;
  return llrs;
}

namespace {

/// One constellation axis: coord[l] is the mapper's exact coordinate of
/// the level whose axis label is l, where axis bit t of the label sits at
/// group offset 2t (I) or 2t+1 (Q).  BPSK's Q axis is one level at 0 with
/// no bits.
struct Axis {
  std::size_t bits = 0;
  std::size_t levels = 0;
  std::array<double, 16> coord{};
};

struct AxisPair {
  Axis i, q;
};

const AxisPair& axes(Modulation m) {
  static const auto tables = [] {
    std::array<AxisPair, 5> all;
    for (const auto mod : {Modulation::kBpsk, Modulation::kQpsk,
                           Modulation::kQam16, Modulation::kQam64,
                           Modulation::kQam256}) {
      const std::size_t n_bpsc = bits_per_subcarrier(mod);
      auto& pair = all[static_cast<std::size_t>(mod)];
      pair.i.bits = (n_bpsc + 1) / 2;
      pair.q.bits = n_bpsc / 2;
      pair.i.levels = std::size_t{1} << pair.i.bits;
      pair.q.levels = std::size_t{1} << pair.q.bits;
      // Walk every group label; labels that share an axis label write the
      // same coordinate.
      for (unsigned v = 0; v < (1u << n_bpsc); ++v) {
        common::Bits group(n_bpsc);
        unsigned li = 0, lq = 0;
        for (std::size_t b = 0; b < n_bpsc; ++b) {
          group[b] = static_cast<common::Bit>((v >> b) & 1u);
          if (b % 2 == 0) {
            li |= group[b] << (b / 2);
          } else {
            lq |= group[b] << (b / 2);
          }
        }
        const common::Cplx point = qam_map_point(group, mod);
        pair.i.coord[li] = point.real();
        pair.q.coord[lq] = point.imag();
      }
    }
    return all;
  }();
  return tables[static_cast<std::size_t>(m)];
}

/// Squared distance from `y` to every level of `axis` into `d`; returns
/// the smallest (+inf when y is NaN, whose distances min() skips).
double axis_distances(double y, const Axis& axis, double* d) {
  double least = std::numeric_limits<double>::infinity();
  for (std::size_t l = 0; l < axis.levels; ++l) {
    const double diff = y - axis.coord[l];
    d[l] = diff * diff;
    least = std::min(least, d[l]);
  }
  return least;
}

/// Max-log LLRs of the bits of `axis` into out[offset + 2t].  Each
/// candidate distance is fl(d[l] + other_min): the nearest point with a
/// given bit pairs this axis' level with the other axis' nearest level.
void axis_llrs(const Axis& axis, const double* d, double other_min,
               std::size_t offset, double* out) {
  double sum[16];
  for (std::size_t l = 0; l < axis.levels; ++l) sum[l] = d[l] + other_min;
  for (std::size_t t = 0; t < axis.bits; ++t) {
    double min0 = 1e300, min1 = 1e300;
    for (std::size_t l = 0; l < axis.levels; ++l) {
      if ((l >> t) & 1u) {
        min1 = std::min(min1, sum[l]);
      } else {
        min0 = std::min(min0, sum[l]);
      }
    }
    out[offset + 2 * t] = min0 - min1;
  }
}

// Max-log: LLR_i = min_{s: bit_i=0} |y-s|^2 - min_{s: bit_i=1} |y-s|^2,
// capped at 1e300 per term.  |y-s|^2 is fl(dI + dQ) with dI, dQ the
// per-axis squares, and rounding is monotone, so the minimum over the
// other axis folds into its nearest level: min_Q fl(dI + dQ) equals
// fl(dI + min_Q dQ).  Each term is therefore the exhaustive search's value
// bit for bit, from 2 * 2^(N_BPSC/2) squares instead of 2^N_BPSC.
void demap_soft_into(common::Cplx point, const AxisPair& ax, double* out) {
  double di[16], dq[16];
  const double min_i = axis_distances(point.real(), ax.i, di);
  const double min_q = axis_distances(point.imag(), ax.q, dq);
  axis_llrs(ax.i, di, min_q, 0, out);
  axis_llrs(ax.q, dq, min_i, 1, out);
}

}  // namespace

std::vector<double> qam_demap_soft(common::Cplx point, Modulation m) {
  std::vector<double> llrs(bits_per_subcarrier(m));
  demap_soft_into(point, axes(m), llrs.data());
  return llrs;
}

std::vector<double> qam_demap_soft(std::span<const common::Cplx> points,
                                   Modulation m) {
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  const AxisPair& ax = axes(m);
  std::vector<double> out(points.size() * n_bpsc);
  for (std::size_t p = 0; p < points.size(); ++p) {
    demap_soft_into(points[p], ax, out.data() + p * n_bpsc);
  }
  return out;
}

std::vector<SignificantBitSpec> significant_bits(Modulation m) {
  const std::size_t n_bpsc = bits_per_subcarrier(m);
  if (n_bpsc < 4) {
    throw std::invalid_argument(
        "significant_bits: BPSK/QPSK have a single power level");
  }
  const std::size_t half = n_bpsc / 2;
  // Lowest axis levels (+-1) have Gray codes 01..1 0..0 reading MSB-first:
  // the first axis bit is arbitrary, the second must be 1, the rest must be
  // 0.  With the interlaced layout the axis-t bit sits at group offset
  // 2t (I) / 2t+1 (Q), so the significant offsets are {2, 3, 4, ...}.
  std::vector<SignificantBitSpec> specs;
  for (std::size_t axis = 0; axis < 2; ++axis) {
    specs.push_back({2 * 1 + axis, 1});
    for (std::size_t t = 2; t < half; ++t) specs.push_back({2 * t + axis, 0});
  }
  return specs;
}

double lowest_point_power_raw() { return 2.0; }

double average_point_power_raw(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 2.0;
    case Modulation::kQam16: return 10.0;
    case Modulation::kQam64: return 42.0;
    case Modulation::kQam256: return 170.0;
  }
  throw std::invalid_argument("average_point_power_raw: bad modulation");
}

bool is_lowest_point(common::Cplx point, Modulation m, double tol) {
  const double k = qam_norm(m);
  return std::abs(std::abs(point.real()) - k) < tol &&
         std::abs(std::abs(point.imag()) - k) < tol;
}

}  // namespace sledzig::wifi

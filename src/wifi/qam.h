// Gray-coded QAM constellation mapping.
//
// Per axis with n bits (n = N_BPSC/2), the amplitude is
//   2 * gray_decode(bits) - (2^n - 1),  in {-(2^n-1), ..., -1, +1, ..., 2^n-1}
// and the symbol is normalised by K_mod so the constellation has unit average
// power.
//
// Bit layout within an N_BPSC group: the I and Q axis bits are *interlaced*
// (i0 q0 i1 q1 ...), matching the convention of the paper's reference
// implementation: reproducing its Table II bit-position table exactly
// requires the significant bits to sit at group offsets {2, 3, ...}, which is
// the interlaced layout (the 802.11 standard text groups all I bits before
// all Q bits; the two conventions are equivalent relabelings of the
// constellation and cancel out between our transmitter and receiver).
//
// The four lowest-power points are (+-1, +-1j) before normalisation; they
// share fixed values in every bit position except the first bit of each axis
// (group offsets 0 and 1) - the "significant bits" of the paper's Table I.
#pragma once

#include <complex>
#include <vector>

#include "common/bits.h"
#include "common/fft.h"
#include "wifi/phy_params.h"

namespace sledzig::wifi {

/// Normalisation factor K_mod (1, 1/sqrt(2), 1/sqrt(10), 1/sqrt(42),
/// 1/sqrt(170)).
double qam_norm(Modulation m);

/// Maps N_BPSC bits to one constellation point (normalised).
common::Cplx qam_map_point(std::span<const common::Bit> bits, Modulation m);

/// Maps a bit stream (length multiple of N_BPSC) to points.
common::CplxVec qam_map(const common::Bits& bits, Modulation m);

/// Hard nearest-point demapping of one point.
common::Bits qam_demap_point(common::Cplx point, Modulation m);

/// Hard demapping of a point stream.
common::Bits qam_demap(std::span<const common::Cplx> points, Modulation m);

/// Hard decisions in the Viterbi decoder's LLR form: +1 for a 1 bit, -1
/// for a 0 bit.
std::vector<double> hard_llrs(std::span<const common::Bit> bits);

/// Max-log soft demapping: per-bit log-likelihood ratios, positive for a
/// likely 1.  The common noise scale cancels in the Viterbi metric, so the
/// LLRs are computed with unit noise variance.
std::vector<double> qam_demap_soft(common::Cplx point, Modulation m);
std::vector<double> qam_demap_soft(std::span<const common::Cplx> points,
                                   Modulation m);

/// One significant bit inside an N_BPSC-bit group: forcing bit
/// `offset_in_group` to `value` (for all listed entries) selects a
/// lowest-power point regardless of the remaining bits.
struct SignificantBitSpec {
  std::size_t offset_in_group;  // 0-based offset within the N_BPSC group
  common::Bit value;            // required value
};

/// The significant bits for QAM-16/64/256 (2, 4 and 6 entries).  Throws for
/// BPSK/QPSK, whose constellations have a single power level.
std::vector<SignificantBitSpec> significant_bits(Modulation m);

/// Un-normalised power of the lowest points: always 2 (= |1|^2 + |1|^2).
double lowest_point_power_raw();

/// Un-normalised average constellation power (10, 42, 170 for QAM-16/64/256;
/// 1 and 2 for BPSK/QPSK).
double average_point_power_raw(Modulation m);

/// True when `point` is one of the four lowest-power points (normalised
/// coordinates, small numeric tolerance).
bool is_lowest_point(common::Cplx point, Modulation m, double tol = 1e-6);

}  // namespace sledzig::wifi

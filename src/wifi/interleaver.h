// Per-OFDM-symbol block interleaver (two permutations).
//
// The permutation over a block of N_CBPS coded bits is
//     i = (N_CBPS/16) * (k mod 16) + floor(k/16)
//     j = s * floor(i/s) + (i + N_CBPS - floor(16*i/N_CBPS)) mod s
// with s = max(N_BPSC/2, 1).
//
// Direction convention: we apply the permutation as a *gather* — the
// post-interleaver bit at index j is read from pre-interleaver position
// perm(j).  This is the convention of the paper's reference implementation:
// it is what makes the significant-bit positions of the paper's Table II
// come out exactly (the 802.11 standard text words the same permutation as a
// scatter; either direction yields a standard-quality interleaver and the
// two ends of our chain agree, so the choice only matters for reproducing
// the paper's published bit positions).
//
// SledZig needs the mapping from QAM-input (post-interleaver) indices back
// to coded-stream (pre-interleaver) positions: that is perm(j) itself.
#pragma once

#include <span>
#include <vector>

#include "common/bits.h"
#include "wifi/phy_params.h"
#include "wifi/subcarriers.h"

namespace sledzig::wifi {

/// perm[j] = pre-interleaver position feeding post-interleaver index j.
/// The 20 MHz block uses 16 columns; wider plans use their own column count
/// (18 for 40 MHz).
std::vector<std::size_t> interleaver_permutation(
    Modulation m, const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// interleaver_permutation(m, plan), computed once per (modulation, width)
/// for the life of the program.  `plan` must be channel_plan(plan.width).
std::span<const std::size_t> interleaver_table(
    Modulation m, const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// inverse[k] = post-interleaver index where pre-interleaver bit k lands.
std::vector<std::size_t> interleaver_inverse(
    Modulation m, const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// Interleaves a whole coded stream symbol-block by symbol-block.  The input
/// length must be a multiple of N_CBPS.
common::Bits interleave(
    const common::Bits& in, Modulation m,
    const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

/// Inverse of interleave(), over the receiver's per-bit LLRs.
std::vector<double> deinterleave(
    const std::vector<double>& in, Modulation m,
    const ChannelPlan& plan = channel_plan(ChannelWidth::k20MHz));

}  // namespace sledzig::wifi

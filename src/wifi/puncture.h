// 802.11 puncturing: rates 2/3, 3/4 and 5/6 are derived from the 1/2-rate
// convolutional code by omitting coded bits in a periodic pattern.
//
// Patterns (A = g0 output, B = g1 output), per coding period:
//   2/3: keep A1 B1 A2      (drop B2)
//   3/4: keep A1 B1 A2 B3   (drop B2, A3)
//   5/6: keep A1 B1 A2 B3 A4 B5 (drop B2, A3, B4, A5)
#pragma once

#include <span>
#include <vector>

#include "common/bits.h"
#include "wifi/phy_params.h"

namespace sledzig::wifi {

/// Keep-mask over one puncturing period of the interleaved A/B stream
/// (A1 B1 A2 B2 ...).  Rate 1/2 yields {1, 1}.  The span views a constant
/// table that lives as long as the program.
std::span<const bool> puncture_mask(CodingRate r);

/// Drops the masked-out bits of a 1/2-rate coded stream.
common::Bits puncture(const common::Bits& coded, CodingRate r);

/// Re-inserts LLR 0 (no information) at the punctured positions so the
/// Viterbi decoder sees a full 1/2-rate stream.
std::vector<double> depuncture(std::span<const double> punctured,
                               CodingRate r);

/// Maps a position in the punctured (transmitted) stream back to its position
/// in the underlying 1/2-rate coded stream.  Both indices are 0-based.
std::size_t punctured_to_coded_index(CodingRate r, std::size_t punctured_pos);

/// Inverse of the above for positions that survive puncturing; returns false
/// if the coded position is punctured away.
bool coded_to_punctured_index(CodingRate r, std::size_t coded_pos,
                              std::size_t& punctured_pos);

}  // namespace sledzig::wifi

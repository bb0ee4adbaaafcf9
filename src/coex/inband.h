// In-band power offsets of a WiFi transmission inside one ZigBee channel,
// measured on the sample-domain PHY (not assumed): a packet is synthesised
// through the full transmit chain and its PSD integrated over the 2 MHz
// window.  These offsets bridge the bit-exact PHY into the analytic link
// budget the MAC simulation uses.
#pragma once

#include <cstddef>

#include "common/units.h"
#include "sledzig/significant_bits.h"

namespace sledzig::coex {

struct InbandOffsets {
  /// Payload in-band power relative to the total power of a normal payload
  /// (negative).
  common::Db payload_offset_db{};
  /// Preamble in-band power relative to the same reference (negative).
  /// Identical for normal and SledZig packets — the preamble is untouched.
  common::Db preamble_offset_db{};
};

/// Size of the random payload each measurement transmits.  SledZig must
/// leave it room to fit one PSDU (ScenarioConfig::validate() checks).
inline constexpr std::size_t kInbandPayloadOctets = 600;

/// Measures (and caches) the offsets for one configuration.  `sledzig`
/// selects a SledZig-encoded payload vs a random normal payload;
/// `forced_subcarriers` follows SledzigConfig semantics (0 = paper default).
InbandOffsets measure_inband_offsets(const core::SledzigConfig& cfg,
                                     bool sledzig);

}  // namespace sledzig::coex

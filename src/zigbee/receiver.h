// ZigBee receiver: preamble correlation sync, phase correction, chip
// demodulation, despreading, framing and FCS check.
#pragma once

#include <optional>

#include "common/bits.h"
#include "common/fft.h"
#include "common/rx_error.h"

namespace sledzig::zigbee {

struct ZigbeeRxConfig {
  /// Channel-select filter cutoff (the CC2420 filters to its 2 MHz channel
  /// before demodulation; without this, wideband interferers leak into the
  /// chip correlator).  Set to 0 to disable.
  double channel_filter_cutoff_hz = 1.2e6;
};

struct ZigbeeRxResult {
  bool detected = false;
  bool crc_ok = false;
  common::Bytes payload;
  std::size_t frame_start = 0;   // sample index of the first preamble chip
  std::size_t chip_errors = 0;   // hard chips vs re-spread decoded symbols
  /// Why decoding stopped; kNone iff crc_ok (the FCS is the success gate).
  common::RxError error = common::RxError::kNoPreamble;

  bool ok() const { return error == common::RxError::kNone; }
};

ZigbeeRxResult zigbee_receive(std::span<const common::Cplx> samples,
                              const ZigbeeRxConfig& cfg = {});

}  // namespace sledzig::zigbee

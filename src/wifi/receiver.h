// Standard 802.11 OFDM receiver: preamble detection (LTF cross-correlation),
// LTF channel estimation, SIGNAL decoding, then per-symbol demap /
// deinterleave / depuncture / Viterbi / descramble.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bits.h"
#include "common/fft.h"
#include "common/rx_error.h"
#include "wifi/phy_params.h"
#include "wifi/signal_field.h"
#include "wifi/transmitter.h"

namespace sledzig::wifi {

struct WifiRxConfig {
  /// The scrambler seed is carried by the SERVICE field in the full standard;
  /// in the paper's accounting (no SERVICE field) both ends share it.
  std::uint8_t scrambler_seed = 0x5d;
  bool include_service_field = false;
  /// Normalised correlation threshold for preamble detection.
  double detection_threshold = 0.55;
  /// Channel bandwidth (must match the transmitter).
  ChannelWidth width = ChannelWidth::k20MHz;
  /// Soft-decision (LLR) demapping: ~2 dB better than hard decisions at
  /// the paper's operating points.  When false, the hard demapper's bits
  /// reach the same Viterbi decoder as LLRs of +-1.
  bool soft_decision = true;
  /// Carrier-frequency-offset estimation and correction (STF coarse + LTF
  /// fine, the classic Schmidl-Cox style).  Real USRP/card oscillators are
  /// tens of kHz off at 2.4 GHz; disable only for idealised tests.
  bool correct_cfo = true;
  /// Upper bound accepted from the SIGNAL LENGTH field.  The 12-bit field
  /// caps at kMaxPsduOctets; a lower cap rejects hostile headers before
  /// they drive long Viterbi runs over what is actually noise.
  std::size_t max_psdu_octets = kMaxPsduOctets;
};

/// Timing + CFO synchronisation result.
struct SyncInfo {
  std::size_t packet_start = 0;
  double cfo_hz = 0.0;
};

/// CFO-tolerant synchronisation: STF autocorrelation (lag fft/4) finds the
/// packet and the coarse CFO, the derotated LTF cross-correlation refines
/// the timing, and the two LTS bodies give the fine CFO.  Both scans are
/// direct sums: each sample's lag product and norm are computed once, and
/// blocks of windows (STF) or offsets (LTF) are summed together, each in
/// its own index order, so every metric is the one a scalar loop computes.
std::optional<SyncInfo> synchronize_packet(std::span<const common::Cplx> samples,
                                           double threshold,
                                           ChannelWidth width);

struct WifiRxResult {
  bool detected = false;
  bool signal_valid = false;
  SignalField signal;
  /// Decoded PSDU octets (empty when not decodable).
  common::Bytes psdu;
  /// Uncoded scrambled-domain stream as decoded (payload + tail + pad) —
  /// the stage SledZig's extra-bit removal operates on.
  common::Bits scrambled_stream;
  /// Sample index where the packet (STF) starts.
  std::size_t packet_start = 0;
  /// Why decoding stopped; kNone iff a PSDU was produced.  The PHY has no
  /// CRC, so kNone means "pipeline completed", not "bits are correct".
  common::RxError error = common::RxError::kNoPreamble;

  bool ok() const { return error == common::RxError::kNone; }
};

/// Detects and decodes the first packet in `samples`.
WifiRxResult wifi_receive(std::span<const common::Cplx> samples,
                          const WifiRxConfig& cfg);

}  // namespace sledzig::wifi

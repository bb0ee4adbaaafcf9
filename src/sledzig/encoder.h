// SledZig encoder (Algorithm 1): turns an application payload into WiFi
// transmit bytes such that, when those bytes pass through the *unmodified*
// 802.11 transmit chain, every forced subcarrier of every (full) data symbol
// carries a lowest-power QAM point.
//
// Framing: the transmit payload embeds [len_lo, len_hi, payload..., filler]
// in the scrambled domain with the deterministic extra bits of the
// constraint plan interleaved.  The decoder reverses this with nothing but
// the shared SledzigConfig (channel / modulation / rate / seed) — exactly
// the information the paper's receiver recovers from the PLCP header plus
// QAM-point inspection.
#pragma once

#include <optional>
#include <span>

#include "common/bits.h"
#include "common/fft.h"
#include "sledzig/significant_bits.h"

namespace sledzig::core {

struct SledzigEncodeResult {
  /// Bytes to hand to the standard WiFi transmitter as the PSDU.
  common::Bytes transmit_psdu;
  /// Scrambled-domain uncoded stream for the whole payload region (service
  /// prefix included), before tail/pad are appended by the WiFi TX.
  common::Bits scrambled_payload;
  std::size_t num_extra_bits = 0;
  std::size_t num_twins = 0;
  /// Constraints in the tail/pad region of the final OFDM symbol, which the
  /// standard WiFi TX appends after the payload — SledZig cannot force
  /// these, so the last symbol's window power is slightly higher (at most
  /// one symbol's worth; the paper's per-packet accounting ignores this).
  std::size_t num_unforced_tail = 0;
  /// Constraints unforcible at the stream head (SERVICE-field region, or a
  /// twin within the first 5 encoder steps).
  std::size_t num_unforced_head = 0;
  /// Extra-position collisions.  The paper argues deinterleaving makes these
  /// impossible; zero in every supported configuration (tested).
  std::size_t num_collisions = 0;
  /// Constraints whose verification failed after solving (should be zero;
  /// counted defensively).
  std::size_t num_violations = 0;

  bool operator==(const SledzigEncodeResult&) const = default;
};

/// Maximum payload the 2-byte length framing supports.
inline constexpr std::size_t kMaxSledzigPayload = 0xffff;

SledzigEncodeResult sledzig_encode(const common::Bytes& payload,
                                   const SledzigConfig& cfg);

/// Recovers the original payload from the transmit PSDU (as decoded by the
/// standard WiFi receiver).  nullopt when the embedded length is
/// inconsistent with the PSDU size.
std::optional<common::Bytes> sledzig_decode(const common::Bytes& transmit_psdu,
                                            const SledzigConfig& cfg);

/// Extra bits inserted per OFDM symbol for this configuration (Table III).
std::size_t extra_bits_per_symbol(const SledzigConfig& cfg);

/// Fractional WiFi throughput loss = extra bits / data bits per symbol
/// (Table IV).
double throughput_loss(const SledzigConfig& cfg);

/// True when sledzig_encode is sure to fit a payload of `payload_octets`
/// into one PSDU, which the 12-bit SIGNAL LENGTH caps at
/// wifi::kMaxPsduOctets.  Cheap, as no plan is built, and conservative:
/// it counts every significant bit of every symbol as an extra bit.  Like
/// throughput_loss, it needs 16-QAM or above.
bool fits_one_psdu(std::size_t payload_octets, const SledzigConfig& cfg);

/// Blind ZigBee-channel detection from the received QAM points (section
/// IV-G): returns the channel whose forced subcarriers all carry
/// lowest-power points, or nullopt.  `points` is symbol-major (48 per data
/// symbol); partial final symbols may be excluded by the caller.
std::optional<OverlapChannel> detect_channel_from_points(
    std::span<const common::Cplx> points, wifi::Modulation modulation,
    double min_fraction = 0.97);

}  // namespace sledzig::core

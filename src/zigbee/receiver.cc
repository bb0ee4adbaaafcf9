#include "zigbee/receiver.h"

#include "common/dsp.h"
#include "common/rx_tally.h"

#include <cmath>

#include "zigbee/chips.h"
#include "zigbee/frame.h"
#include "zigbee/oqpsk.h"
#include "zigbee/transmitter.h"

namespace sledzig::zigbee {

namespace {

/// Normalised correlation threshold for preamble detection.
constexpr double kDetectionThreshold = 0.35;
/// Sample stride of the coarse search (refined to +-stride afterwards).
constexpr std::size_t kSearchStride = 2;
/// Length of the channel-select FIR filter.
constexpr std::size_t kChannelFilterTaps = 63;

const common::CplxVec& preamble_reference() {
  static const common::CplxVec ref =
      modulate_octets(common::Bytes(kPreambleOctets, 0x00));
  return ref;
}

struct SyncResult {
  std::size_t offset;
  common::Cplx gain;
  double corr;
};

std::optional<SyncResult> synchronise(std::span<const common::Cplx> samples) {
  const auto& ref = preamble_reference();
  if (samples.size() < ref.size()) return std::nullopt;
  const double ref_energy = [&] {
    double e = 0.0;
    for (const auto& s : ref) e += std::norm(s);
    return e;
  }();

  double best_corr = 0.0;
  std::size_t best_pos = 0;
  const std::size_t last = samples.size() - ref.size();

  const auto corr_at = [&](std::size_t t) {
    common::Cplx acc(0.0, 0.0);
    double e = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      acc += samples[t + i] * std::conj(ref[i]);
      e += std::norm(samples[t + i]);
    }
    const double denom = std::sqrt(std::max(e, 1e-30) * ref_energy);
    return std::abs(acc) / denom;
  };

  for (std::size_t t = 0; t <= last; t += kSearchStride) {
    const double c = corr_at(t);
    if (c > best_corr) {
      best_corr = c;
      best_pos = t;
    }
  }
  // Refine around the coarse peak.
  for (std::size_t t = best_pos > kSearchStride ? best_pos - kSearchStride : 0;
       t <= std::min(best_pos + kSearchStride, last); ++t) {
    const double c = corr_at(t);
    if (c > best_corr) {
      best_corr = c;
      best_pos = t;
    }
  }
  if (best_corr < kDetectionThreshold) return std::nullopt;

  common::Cplx acc(0.0, 0.0);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    acc += samples[best_pos + i] * std::conj(ref[i]);
  }
  return SyncResult{best_pos, acc / ref_energy, best_corr};
}

const common::RxTally& rx_tally() {
  // lint: allow(static-state): cached metric handles, registered once
  static const common::RxTally tally("zigbee");
  return tally;
}

ZigbeeRxResult zigbee_receive_impl(std::span<const common::Cplx> raw_samples,
                                   const ZigbeeRxConfig& cfg) {
  ZigbeeRxResult result;
  // Non-finite samples would propagate through the FIR filter and the chip
  // correlators into meaningless comparisons; refuse them up front.
  for (const auto& s : raw_samples) {
    if (!std::isfinite(s.real()) || !std::isfinite(s.imag())) {
      result.error = common::RxError::kNanSamples;
      return result;
    }
  }
  // Channel-select filtering (see ZigbeeRxConfig).  The FIR group delay is
  // compensated when reporting frame_start.
  common::CplxVec filtered;
  std::span<const common::Cplx> samples = raw_samples;
  std::size_t group_delay = 0;
  if (cfg.channel_filter_cutoff_hz > 0.0) {
    const auto taps = common::fir_lowpass_taps(
        kChannelFilterTaps, cfg.channel_filter_cutoff_hz, kOqpskSampleRateHz);
    group_delay = (kChannelFilterTaps - 1) / 2;
    // Pad by the group delay so a frame ending at the buffer edge is not
    // truncated by the filter's shift.
    common::CplxVec padded(raw_samples.begin(), raw_samples.end());
    padded.resize(padded.size() + group_delay, common::Cplx(0.0, 0.0));
    filtered = common::fir_filter(padded, taps);
    samples = filtered;
  }
  const auto sync = synchronise(samples);
  if (!sync) return result;  // error stays kNoPreamble
  result.detected = true;
  result.frame_start =
      sync->offset >= group_delay ? sync->offset - group_delay : 0;

  // Phase/amplitude correction from the preamble estimate.  A vanishing
  // gain means the correlator locked onto nothing usable.
  const double mag = std::abs(sync->gain);
  if (mag < 1e-12) return result;
  const common::Cplx inv = std::conj(sync->gain) / (mag * mag);

  // Demodulate octet by octet: first the SFD + length (2 octets after the
  // preamble), then the PSDU.
  const auto demod_octets = [&](std::size_t octet_index,
                          std::size_t count) -> std::optional<common::Bytes> {
    // Each octet = 2 symbols = 64 chips = 640 samples.
    const std::size_t start =
        sync->offset + octet_index * 2 * kSamplesPerSymbol;
    const std::size_t need = count * 2 * kSamplesPerSymbol + kSamplesPerChip;
    if (start + need > samples.size()) return std::nullopt;
    common::CplxVec corrected(samples.begin() + start,
                              samples.begin() + start + need);
    for (auto& s : corrected) s *= inv;
    // Soft matched-filter despreading (a correlator bank over the 16 symbol
    // waveforms, as correlator radios do): ~4-6 dB more interference
    // tolerance than hard chips + Hamming despreading.
    const auto bits = oqpsk_despread_soft(corrected, count * 2);
    // Approximate chip-error metric: distance between the hard chip
    // decisions and the re-spread soft decisions.
    const auto hard =
        oqpsk_demodulate_chips(corrected, count * 2 * kChipsPerSymbol);
    const auto ideal = spread(bits);
    result.chip_errors += common::hamming_distance(hard, ideal);
    return common::bits_to_bytes(bits);
  };

  // The all-zeros preamble is self-similar, so under partial interference
  // the correlator can lock a few symbols late (or early).  Scan for the
  // SFD around the nominal position instead of trusting it blindly.
  std::size_t sfd_octet = 0;
  bool sfd_found = false;
  for (std::size_t i = 0; i <= kPreambleOctets + 2; ++i) {
    const auto octet = demod_octets(i, 1);
    if (!octet) break;
    if ((*octet)[0] == kSfd) {
      sfd_octet = i;
      sfd_found = true;
      break;
    }
  }
  if (!sfd_found) {
    result.error = common::RxError::kNoSfd;
    return result;
  }

  const auto len_octet = demod_octets(sfd_octet + 1, 1);
  if (!len_octet) {
    result.error = common::RxError::kTruncatedPayload;
    return result;
  }
  const std::size_t psdu_len = (*len_octet)[0] & 0x7f;
  if (psdu_len < kFcsOctets) {
    result.error = common::RxError::kBadLength;
    return result;
  }

  const auto psdu = demod_octets(sfd_octet + 2, psdu_len);
  if (!psdu) {
    result.error = common::RxError::kTruncatedPayload;
    return result;
  }

  common::Bytes ppdu(kPreambleOctets, 0x00);
  ppdu.push_back(kSfd);
  ppdu.push_back(static_cast<std::uint8_t>(psdu_len));
  ppdu.insert(ppdu.end(), psdu->begin(), psdu->end());
  const auto payload = parse_ppdu(ppdu);
  if (payload) {
    result.crc_ok = true;
    result.payload = *payload;
    result.error = common::RxError::kNone;
  } else {
    result.error = common::RxError::kCrcFailed;
  }
  return result;
}

}  // namespace

ZigbeeRxResult zigbee_receive(std::span<const common::Cplx> raw_samples,
                              const ZigbeeRxConfig& cfg) {
  ZigbeeRxResult result = zigbee_receive_impl(raw_samples, cfg);
  // One counter bump per decode, keyed by outcome stage
  // (rx.zigbee.<error>, rx.zigbee.none for clean decodes).
  rx_tally().count(result.error);
  return result;
}

}  // namespace sledzig::zigbee

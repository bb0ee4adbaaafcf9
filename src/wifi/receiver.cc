#include "wifi/receiver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/dsp.h"
#include "common/rx_tally.h"
#include "common/units.h"
#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"
#include "wifi/puncture.h"
#include "wifi/qam.h"
#include "wifi/scrambler.h"

namespace sledzig::wifi {

namespace {

// Two doubles per operation, one window or offset per lane.  Lane
// arithmetic is the scalar IEEE arithmetic, so each lane sums exactly what
// a scalar loop over its window would.
typedef double Lanes __attribute__((vector_size(16)));

Lanes load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Windows (STF scan) or offsets (LTF search) summed together per block,
/// in kPairs two-lane vectors.
constexpr std::size_t kBlock = 8;
constexpr std::size_t kPairs = kBlock / 2;

/// Largest sample component the blocked LTF search takes.  The preamble's
/// components are at most 1.43 (20 MHz) and 1.25 (40 MHz), so no product
/// or difference of products overflows, and the written-out complex
/// product cannot produce the NaN pair on which the library multiply
/// recomputes.
constexpr double kMaxLtfComponent = 1e300;

/// Returns the start index of the packet preamble, or nullopt when no
/// preamble exceeds the detection threshold.
///
/// Each offset t correlates the reference as sum_i samples[t+i] *
/// conj(ref[i]), accumulated in index order.  When every sample component
/// is finite and at most kMaxLtfComponent, blocks of kBlock adjacent
/// offsets are summed together with the complex product written out as
/// (ar*br - ai*bi, ar*bi + ai*br), which is what the library multiply
/// computes unless both parts are NaN; any other input takes the scalar
/// loop with the library multiply.
std::optional<std::size_t> detect_preamble(std::span<const common::Cplx> samples,
                                           double threshold,
                                           ChannelWidth width) {
  const auto& ref = full_preamble(width);
  if (samples.size() < ref.size()) return std::nullopt;
  const double ref_energy = common::energy(ref);
  const std::size_t last = samples.size() - ref.size();

  common::CplxVec dots(last + 1);
  const bool bounded =
      std::all_of(samples.begin(), samples.end(), [](common::Cplx s) {
        return std::abs(s.real()) <= kMaxLtfComponent &&
               std::abs(s.imag()) <= kMaxLtfComponent;
      });
  if (bounded) {
    // Components split into two zero-padded rows, so offsets t..t+1 are
    // one load per row and a block past `last` reads only padding.
    const std::size_t blocks = last / kBlock + 1;
    std::vector<double> re(blocks * kBlock + ref.size(), 0.0);
    std::vector<double> im(re.size(), 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      re[i] = samples[i].real();
      im[i] = samples[i].imag();
    }
    for (std::size_t t0 = 0; t0 < blocks * kBlock; t0 += kBlock) {
      Lanes acc_re[kPairs] = {}, acc_im[kPairs] = {};
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const common::Cplx c = std::conj(ref[i]);
        const Lanes br = {c.real(), c.real()};
        const Lanes bi = {c.imag(), c.imag()};
        for (std::size_t p = 0; p < kPairs; ++p) {
          const Lanes ar = load(&re[t0 + 2 * p + i]);
          const Lanes ai = load(&im[t0 + 2 * p + i]);
          acc_re[p] += ar * br - ai * bi;
          acc_im[p] += ar * bi + ai * br;
        }
      }
      for (std::size_t k = 0; k < kBlock && t0 + k <= last; ++k) {
        dots[t0 + k] = {acc_re[k / 2][k % 2], acc_im[k / 2][k % 2]};
      }
    }
  } else {
    for (std::size_t t = 0; t <= last; ++t) {
      common::Cplx acc(0.0, 0.0);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        acc += samples[t + i] * std::conj(ref[i]);
      }
      dots[t] = acc;
    }
  }

  double best_corr = 0.0;
  std::size_t best_pos = 0;
  // Sliding window energy for normalisation.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) win_energy += std::norm(samples[i]);

  for (std::size_t t = 0; t <= last; ++t) {
    const double denom = std::sqrt(std::max(win_energy, 1e-30) * ref_energy);
    const double corr = std::abs(dots[t]) / denom;
    if (corr > best_corr) {
      best_corr = corr;
      best_pos = t;
    }
    if (t < last) {
      win_energy += std::norm(samples[t + ref.size()]) - std::norm(samples[t]);
    }
  }
  if (best_corr < threshold) return std::nullopt;
  return best_pos;
}

/// Per-window sums of the STF coarse scan.  Window k starts at sample 4k
/// and sums, over its `window` samples j in index order, the lag product
/// s[j+lag]*conj(s[j]) into `acc` and the norm |s[j]|^2 into `energy`.
struct StfWindows {
  std::vector<double> acc_re, acc_im, energy;
};

/// Sums windows 0..count-1.  Each sample's lag product and norm are
/// computed once, into residue-major rows (sample j = 4n + r at row r,
/// column n), so window k's sample 4m + r sits at row r, column k + m, and
/// the windows of one block read adjacent columns.  Every window keeps
/// the operands and order of a scalar loop over its own samples.
StfWindows stf_windows(std::span<const common::Cplx> samples, std::size_t lag,
                       std::size_t window, std::size_t count) {
  const std::size_t blocks = (count + kBlock - 1) / kBlock;
  const std::size_t cols = blocks * kBlock + window / 4;
  const std::size_t used = 4 * (count - 1) + window;
  std::vector<double> re(4 * cols, 0.0), im(4 * cols, 0.0),
      norms(4 * cols, 0.0);
  for (std::size_t j = 0; j < used; ++j) {
    const common::Cplx p = samples[j + lag] * std::conj(samples[j]);
    const std::size_t at = (j % 4) * cols + j / 4;
    re[at] = p.real();
    im[at] = p.imag();
    norms[at] = std::norm(samples[j]);
  }

  StfWindows out;
  out.acc_re.resize(blocks * kBlock);
  out.acc_im.resize(blocks * kBlock);
  out.energy.resize(blocks * kBlock);
  for (std::size_t k0 = 0; k0 < blocks * kBlock; k0 += kBlock) {
    Lanes acc_re[kPairs] = {}, acc_im[kPairs] = {}, energy[kPairs] = {};
    for (std::size_t m = 0; m < window / 4; ++m) {
      for (std::size_t r = 0; r < 4; ++r) {
        const std::size_t at = r * cols + k0 + m;
        for (std::size_t p = 0; p < kPairs; ++p) {
          acc_re[p] += load(&re[at + 2 * p]);
          acc_im[p] += load(&im[at + 2 * p]);
          energy[p] += load(&norms[at + 2 * p]);
        }
      }
    }
    std::memcpy(&out.acc_re[k0], acc_re, sizeof acc_re);
    std::memcpy(&out.acc_im[k0], acc_im, sizeof acc_im);
    std::memcpy(&out.energy[k0], energy, sizeof energy);
  }
  return out;
}

/// Phase-increment estimate from a delayed autocorrelation at `lag` over
/// [begin, begin+span): returns radians per sample.
double lag_phase(std::span<const common::Cplx> samples, std::size_t begin,
                 std::size_t lag, std::size_t span) {
  common::Cplx acc(0.0, 0.0);
  for (std::size_t i = 0; i < span; ++i) {
    acc += samples[begin + i + lag] * std::conj(samples[begin + i]);
  }
  return std::arg(acc) / static_cast<double>(lag);
}

common::CplxVec derotate(std::span<const common::Cplx> samples,
                         double cfo_hz, double fs) {
  return common::frequency_shift(samples, -cfo_hz, fs);
}

}  // namespace

std::optional<SyncInfo> synchronize_packet(std::span<const common::Cplx> samples,
                                           double threshold,
                                           ChannelWidth width) {
  const auto& plan = channel_plan(width);
  const std::size_t lag = plan.fft_size / 4;  // STS period
  const std::size_t window = stf_len(width) - 2 * lag;
  if (samples.size() < preamble_len(width) + plan.symbol_len()) {
    return std::nullopt;
  }

  // 1. Coarse scan: STF autocorrelation plateau (CFO-immune), at every
  //    fourth offset.  The lag is a multiple of 4 at both widths, so the
  //    shifted window's energy is the energy of window k + lag/4.
  double best_metric = 0.0;
  std::size_t coarse = 0;
  const std::size_t last = samples.size() - preamble_len(width);
  const std::size_t scans = last / 4 + 1;
  const StfWindows w = stf_windows(samples, lag, window, scans + lag / 4);
  for (std::size_t k = 0; k < scans; ++k) {
    // Normalise by both windows (bounds the metric to [0, 1] and avoids the
    // spike at the noise-to-signal boundary).
    const double denom = std::sqrt(w.energy[k] * w.energy[k + lag / 4]);
    if (denom <= 1e-30) continue;
    const double metric =
        std::abs(common::Cplx(w.acc_re[k], w.acc_im[k])) / denom;
    if (metric > best_metric) {
      best_metric = metric;
      coarse = 4 * k;
    }
  }
  if (best_metric < 0.5) return std::nullopt;

  // 2. Coarse CFO from the STF at the coarse position.
  const double fs = plan.sample_rate_hz;
  const double coarse_cfo =
      lag_phase(samples, coarse, lag, window) * fs / (2.0 * std::numbers::pi);

  // 3. Fine timing: cross-correlate the derotated neighbourhood with the
  //    clean preamble.
  const std::size_t search_begin =
      coarse > plan.fft_size ? coarse - plan.fft_size : 0;
  const std::size_t search_len =
      std::min(samples.size() - search_begin,
               preamble_len(width) + 3 * plan.fft_size);
  const auto region = derotate(samples.subspan(search_begin, search_len),
                               coarse_cfo, fs);
  const auto fine = detect_preamble(region, threshold, width);
  if (!fine) return std::nullopt;
  const std::size_t start = search_begin + *fine;

  // 4. Fine CFO from the two LTS bodies (lag = fft size).
  const std::size_t lts1 = start + stf_len(width) + plan.fft_size / 2;
  if (lts1 + 2 * plan.fft_size > samples.size()) return std::nullopt;
  const auto around_ltf =
      derotate(samples.subspan(lts1, 2 * plan.fft_size), coarse_cfo, fs);
  const double fine_cfo =
      lag_phase(around_ltf, 0, plan.fft_size, plan.fft_size) * fs /
      (2.0 * std::numbers::pi);

  return SyncInfo{start, coarse_cfo + fine_cfo};
}

namespace {

/// Per-FFT-bin channel estimate from the two long training symbols located
/// at `ltf_start` (start of the LTF).
common::CplxVec estimate_channel(std::span<const common::Cplx> samples,
                                 std::size_t ltf_start, ChannelWidth width) {
  const auto& plan = channel_plan(width);
  const std::size_t n = plan.fft_size;
  // The two LTS bodies start half a body (guard) into the LTF.
  const std::size_t lts1 = ltf_start + n / 2;
  const std::size_t lts2 = lts1 + n;
  common::CplxVec y1, y2;
  common::fft_into(samples.subspan(lts1, n), y1, /*inverse=*/false);
  common::fft_into(samples.subspan(lts2, n), y2, /*inverse=*/false);

  const auto& ref = ltf_reference_bins(width);
  common::CplxVec channel(n, common::Cplx(1.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    if (std::abs(ref[k]) > 0.5) {
      channel[k] = (y1[k] + y2[k]) / (2.0 * plan.time_scale() * ref[k]);
    }
  }
  return channel;
}

/// Decodes the `num_symbols` data OFDM symbols that `data_samples` starts
/// with: each symbol is demapped to LLRs (soft, or its hard decisions as
/// +-1), then the field is deinterleaved, depunctured and Viterbi-decoded.
common::Bits decode_data_field(std::span<const common::Cplx> data_samples,
                               Modulation m, CodingRate r,
                               std::size_t num_symbols,
                               std::span<const common::Cplx> channel,
                               const ChannelPlan& plan, bool soft_decision) {
  std::vector<double> llrs;
  llrs.reserve(num_symbols * coded_bits_per_symbol(m, plan));
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const auto points = demodulate_ofdm_symbol(
        data_samples.subspan(s * plan.symbol_len(), plan.symbol_len()), s + 1,
        channel, plan);
    const auto symbol_llrs = soft_decision ? qam_demap_soft(points, m)
                                           : hard_llrs(qam_demap(points, m));
    llrs.insert(llrs.end(), symbol_llrs.begin(), symbol_llrs.end());
  }
  // Pad is data-like, so the trellis is not guaranteed to terminate at zero.
  return viterbi_decode(depuncture(deinterleave(llrs, m, plan), r),
                        /*terminated=*/false);
}

WifiRxResult wifi_receive_impl(std::span<const common::Cplx> raw_samples,
                               const WifiRxConfig& cfg) {
  const auto& plan = channel_plan(cfg.width);
  WifiRxResult result;

  // Impaired front-ends (clipping models, fault injection) can produce
  // NaN/Inf; refuse up front rather than let them poison the correlators
  // and Viterbi metrics into undefined comparisons.
  for (const auto& s : raw_samples) {
    if (!std::isfinite(s.real()) || !std::isfinite(s.imag())) {
      result.error = common::RxError::kNanSamples;
      return result;
    }
  }

  std::optional<std::size_t> start;
  common::CplxVec corrected;
  std::span<const common::Cplx> samples = raw_samples;
  result.error = common::RxError::kNoPreamble;
  if (cfg.correct_cfo) {
    const auto sync =
        synchronize_packet(raw_samples, cfg.detection_threshold, cfg.width);
    if (!sync) return result;
    corrected = derotate(raw_samples, sync->cfo_hz, plan.sample_rate_hz);
    samples = corrected;
    start = sync->packet_start;
  } else {
    start = detect_preamble(samples, cfg.detection_threshold, cfg.width);
    if (!start) return result;
  }
  result.detected = true;
  result.packet_start = *start;

  const std::size_t ltf_start = *start + stf_len(cfg.width);
  const std::size_t signal_start = *start + preamble_len(cfg.width);
  if (signal_start + plan.symbol_len() > samples.size()) {
    result.error = common::RxError::kTruncatedPayload;
    return result;
  }
  const auto channel = estimate_channel(samples, ltf_start, cfg.width);

  const auto field = demodulate_signal_symbol(
      samples.subspan(signal_start, plan.symbol_len()), channel, plan);
  if (!field) {
    result.error = common::RxError::kSignalParity;
    return result;
  }
  result.signal = *field;
  result.signal_valid = true;

  // A hostile LENGTH that passed parity must still not drive an oversized
  // decode: bound it before sizing any buffer or symbol count from it.
  if (field->psdu_octets > cfg.max_psdu_octets) {
    result.error = common::RxError::kSignalLengthCap;
    return result;
  }

  WifiTxConfig txcfg;
  txcfg.modulation = field->modulation;
  txcfg.rate = field->rate;
  txcfg.include_service_field = cfg.include_service_field;
  txcfg.width = cfg.width;
  const std::size_t n_sym = num_data_symbols(field->psdu_octets * 8, txcfg);
  const std::size_t data_start = signal_start + plan.symbol_len();
  if (data_start + n_sym * plan.symbol_len() > samples.size()) {
    result.error = common::RxError::kTruncatedPayload;
    return result;
  }

  const auto scrambled = decode_data_field(
      samples.subspan(data_start, n_sym * plan.symbol_len()),
      field->modulation, field->rate, n_sym, channel, plan, cfg.soft_decision);
  result.scrambled_stream = scrambled;

  auto raw = descramble(scrambled, cfg.scrambler_seed);
  const std::size_t offset = payload_bit_offset(txcfg);
  const std::size_t payload_bits = field->psdu_octets * 8;
  if (offset + payload_bits > raw.size()) {
    result.error = common::RxError::kViterbiOverrun;
    return result;
  }
  common::Bits psdu_bits(raw.begin() + static_cast<long>(offset),
                         raw.begin() + static_cast<long>(offset + payload_bits));
  result.psdu = common::bits_to_bytes(psdu_bits);
  result.error = common::RxError::kNone;
  return result;
}

const common::RxTally& rx_tally() {
  // lint: allow(static-state): cached metric handles, registered once
  static const common::RxTally tally("wifi");
  return tally;
}

}  // namespace

WifiRxResult wifi_receive(std::span<const common::Cplx> raw_samples,
                          const WifiRxConfig& cfg) {
  WifiRxResult result = wifi_receive_impl(raw_samples, cfg);
  // One counter bump per decode, keyed by outcome stage (rx.wifi.<error>,
  // rx.wifi.none for clean decodes).
  rx_tally().count(result.error);
  return result;
}

}  // namespace sledzig::wifi

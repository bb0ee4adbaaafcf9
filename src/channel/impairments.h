// Composable RF impairment & fault-injection pipeline.
//
// The paper's testbed numbers (Figs 11-17) were measured over real USRP and
// CC2420 front-ends: oscillators that drift, channels with delay spread,
// PAs that clip and ADCs that quantise.  This module makes those hostile
// conditions first-class, *reproducible* inputs to the simulation:
// `apply_impairments` transforms any baseband waveform through a
// configurable sequence of physically-ordered stages, with every random draw
// derived from a single user seed.  The determinism contract is:
//
//     identical (ImpairmentConfig, seed)  =>  bit-identical output waveform
//
// so any failure found by a randomized sweep reproduces from its (config,
// seed) pair alone.  Each stage draws from its own sub-seeded RNG, so
// enabling/disabling one stage never perturbs another stage's randomness.
//
// Stage order follows the physical signal path:
//   TX IQ imbalance -> PA clipping -> multipath channel -> bursty in-band
//   interference -> CFO drift + phase noise (RX LO) -> sample-clock offset
//   (RX ADC timebase) -> ADC quantisation -> capture faults (truncation /
//   sample drops).
#pragma once

#include <cstdint>

#include "common/fft.h"
#include "common/rng.h"

namespace sledzig::channel {

struct ImpairmentConfig {
  // --- TX IQ imbalance (quadrature modulator gain/phase mismatch). ---
  bool iq_imbalance = false;
  double iq_gain_mismatch_db = 0.0;  // I arm vs Q arm amplitude mismatch
  double iq_phase_error_deg = 0.0;   // quadrature skew

  // --- PA clipping: envelope limited at clip_level_rms * RMS(x). ---
  // Smaller is more severe; OFDM's ~10 dB PAPR makes this the dominant
  // high-order-QAM impairment on real front-ends.
  bool clipping = false;
  double clip_level_rms = 2.0;

  // --- Frequency-selective multipath: tapped delay line, exponential power
  // delay profile, Rayleigh block fading (taps drawn once per packet). ---
  bool multipath = false;
  std::size_t multipath_taps = 4;            // TDL length, sample-spaced
  double delay_spread_samples = 1.5;         // exponential PDP decay constant

  // --- Bursty in-band interferer: gated complex noise bursts at
  // `interferer_power_db` relative to the waveform's mean power. ---
  bool interference = false;
  double interferer_power_db = -10.0;
  double interferer_freq_offset_hz = 0.0;    // centre relative to baseband
  double interferer_bandwidth_hz = 2e6;      // 0 = full band (white)
  double burst_duty = 0.3;                   // fraction of time bursts are on
  double mean_burst_samples = 400.0;         // geometric burst/gap lengths

  // --- RX oscillator: static CFO + linear drift + Wiener phase noise. ---
  bool cfo = false;
  double cfo_hz = 0.0;
  double cfo_drift_hz_per_s = 0.0;
  double phase_noise_std_rad = 0.0;          // random-walk step per sample

  // --- Sample-clock offset: TX/RX ADC timebases differ by `ppm` parts per
  // million; implemented as fractional-delay linear resampling. ---
  bool clock_offset = false;
  double clock_offset_ppm = 0.0;

  // --- ADC quantisation to `quant_bits` per rail, full scale at
  // quant_full_scale_rms * RMS(x). ---
  bool quantization = false;
  unsigned quant_bits = 8;
  double quant_full_scale_rms = 4.0;

  // --- Capture faults: packet truncation and i.i.d. sample drops (USRP
  // overflow-style), both of which shorten and de-align the stream. ---
  bool faults = false;
  double truncate_fraction = 1.0;            // keep the first fraction (0, 1]
  double sample_drop_prob = 0.0;             // per-sample drop probability

  /// Sample rate the time-denominated parameters (CFO drift, interferer
  /// bandwidth) are interpreted at.
  double sample_rate_hz = 20e6;

  /// True when no stage is enabled (apply() is the identity).
  bool is_identity() const {
    return !iq_imbalance && !clipping && !multipath && !interference &&
           !cfo && !clock_offset && !quantization && !faults;
  }

  /// First-order SNR penalty (dB) used by the discrete-event MAC experiments,
  /// where no sample domain exists: the distortion powers of the enabled
  /// stages (clipping residual, interferer duty-weighted power, phase-noise
  /// variance) are summed as extra in-band noise.  A documented
  /// approximation -- the sample-domain chain is the reference model.
  double snr_penalty_db() const;
};

/// Applies the configured stages in physical order.  All randomness is
/// derived from `seed`; see the determinism contract above.  The output
/// length can differ from the input length (clock offset, faults).
common::CplxVec apply_impairments(std::span<const common::Cplx> samples,
                                  const ImpairmentConfig& cfg,
                                  std::uint64_t seed);

}  // namespace sledzig::channel

#include "coex/inband.h"

#include <functional>
#include <map>
#include <mutex>
#include <tuple>

#include "channel/medium.h"
#include "common/dsp.h"
#include "common/rng.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sledzig/encoder.h"
#include "wifi/phy_params.h"
#include "wifi/preamble.h"
#include "wifi/transmitter.h"

namespace sledzig::coex {

namespace {

/// Observes the per-subcarrier payload power inside the protected +/-1 MHz
/// window into a scheme-keyed histogram.  A 64-point Welch PSD puts one bin
/// per OFDM subcarrier (20 MHz / 64 = 312.5 kHz), so the histogram shape is
/// the paper's Fig. 4 power-suppression picture: with SledZig on, the bins
/// under the ZigBee channel collapse toward the noise bound.  Observational
/// only; runs once per memoised config, never on a result path.
void observe_subcarrier_power(std::span<const common::Cplx> payload_samples,
                              common::Hz center_offset_hz, bool sledzig) {
  constexpr double kDbmBounds[] = {-80, -75, -70, -65, -60, -55, -50, -45,
                                   -40, -35, -30, -25, -20, -15, -10, -5, 0};
  auto hist = obs::Registry::global().histogram(
      sledzig ? "coex.inband.subcarrier_dbm.sledzig"
              : "coex.inband.subcarrier_dbm.normal",
      kDbmBounds);
  const auto psd =
      common::welch_psd(payload_samples, wifi::kSampleRateHz, 64);
  for (std::size_t b = 0; b < psd.bins.size(); ++b) {
    const double fb = psd.bin_frequency(b);
    if (fb < center_offset_hz.value() - 1e6 ||
        fb > center_offset_hz.value() + 1e6) {
      continue;
    }
    // Zero-power bins map to the -inf sentinel, which lands in the lowest
    // bucket rather than poisoning the histogram with NaN.
    hist.observe(common::mw_to_dbm(psd.bins[b]));
  }
}

InbandOffsets measure_uncached(const core::SledzigConfig& cfg, bool sledzig) {
  common::Rng rng(0xc0ffee);
  const auto payload = rng.bytes(kInbandPayloadOctets);

  wifi::WifiTxConfig tx;
  tx.modulation = cfg.modulation;
  tx.rate = cfg.rate;
  tx.scrambler_seed = cfg.scrambler_seed;
  tx.include_service_field = cfg.include_service_field;

  common::Bytes psdu = payload;
  if (sledzig) {
    psdu = core::sledzig_encode(payload, cfg).transmit_psdu;
  }
  const auto packet = wifi::wifi_transmit(psdu, tx);

  // Separate the payload samples (after preamble + SIGNAL) from the
  // preamble.
  const std::size_t payload_start = wifi::kPreambleLen + wifi::kSymbolLen;
  const std::span<const common::Cplx> samples(packet.samples);
  const auto payload_samples = samples.subspan(payload_start);

  const double f = core::channel_center_offset_hz(cfg.channel);
  observe_subcarrier_power(payload_samples, common::Hz{f}, sledzig);
  // Reference: total power of a *normal* payload at the same transmit
  // scale.  Measured once per modulation/rate from a random payload.
  const auto normal = wifi::wifi_transmit(rng.bytes(kInbandPayloadOctets), tx);
  const double reference_dbm = channel::total_power_dbm(
      std::span<const common::Cplx>(normal.samples).subspan(payload_start));

  InbandOffsets offsets;
  offsets.payload_offset_db =
      common::Db{channel::rssi_2mhz_dbm(payload_samples, f) - reference_dbm};
  offsets.preamble_offset_db = common::Db{
      channel::rssi_2mhz_dbm(samples.first(wifi::kPreambleLen), f) -
      reference_dbm};
  return offsets;
}

}  // namespace

InbandOffsets measure_inband_offsets(const core::SledzigConfig& cfg,
                                     bool sledzig) {
  // Keyed on the whole plan, since measure_uncached reads most of it; the
  // transparent comparator finds the caller's plan in place, copying nothing.
  using Key = std::tuple<core::SledzigConfig, bool>;
  // lint: allow(static-state): memo for a pure function; guarded by mutex
  static std::mutex mutex;
  // lint: allow(static-state): memo for a pure function; guarded by mutex
  static std::map<Key, InbandOffsets, std::less<>> cache;
  {
    std::scoped_lock lock(mutex);
    const auto it = cache.find(std::tie(cfg, sledzig));
    if (it != cache.end()) return it->second;
  }
  // Miss: run the full transmit/measure pipeline with no lock held, so
  // parallel sweeps hitting distinct configs do not serialize behind one
  // another.  measure_uncached is a pure function of (cfg, sledzig); if two
  // threads race on the same key they compute identical values and
  // emplace keeps the first — determinism is unaffected, only a little
  // duplicate work on a cold cache.
  const InbandOffsets computed = measure_uncached(cfg, sledzig);
  std::scoped_lock lock(mutex);
  return cache.emplace(Key{cfg, sledzig}, computed).first->second;
}

}  // namespace sledzig::coex

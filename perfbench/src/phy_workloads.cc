// Sample-domain workloads: `phy_link` (the WiFi frame path of the paper's
// sender and receiver) and `zigbee_coex` (an 802.15.4 frame received while
// a SledZig-encoded WiFi frame overlaps it).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "channel/impairments.h"
#include "channel/medium.h"
#include "channel/pathloss.h"
#include "common/dsp.h"
#include "common/fft.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/rx_error.h"
#include "sledzig/channels.h"
#include "sledzig/encoder.h"
#include "wifi/preamble.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"
#include "zigbee/cc2420.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace perfbench {

namespace {

using namespace sledzig;

struct Mode {
  wifi::Modulation modulation;
  wifi::CodingRate rate;
};

// The paper's three evaluation modes, cycled frame by frame.
constexpr Mode kModes[] = {
    {wifi::Modulation::kQam16, wifi::CodingRate::kR12},
    {wifi::Modulation::kQam64, wifi::CodingRate::kR23},
    {wifi::Modulation::kQam256, wifi::CodingRate::kR34},
};

// Input-stream domains under the workload seed.
constexpr std::uint64_t kPhyLinkDomain = 1;
constexpr std::uint64_t kZigbeeCoexDomain = 2;

// Distinct frames generated per run, enough that a run never repeats a
// frame even at several times today's speed (longer runs cycle again).
constexpr std::size_t kWifiFrames = 16384;
constexpr std::size_t kCoexFrames = 2048;

core::SledzigConfig sledzig_config(std::size_t i) {
  core::SledzigConfig cfg;
  const Mode& mode = kModes[i % 3];
  cfg.modulation = mode.modulation;
  cfg.rate = mode.rate;
  cfg.channel = core::kAllOverlapChannels[(i / 3) % 4];
  return cfg;
}

wifi::WifiTxConfig tx_config(const core::SledzigConfig& cfg) {
  wifi::WifiTxConfig tx;
  tx.modulation = cfg.modulation;
  tx.rate = cfg.rate;
  tx.scrambler_seed = cfg.scrambler_seed;
  return tx;
}

/// Evenly spread draws: a golden-ratio sequence rotated by a seeded start,
/// so every prefix of the frame list covers its range evenly and the seed
/// only moves where the sequence starts (run-to-run cost stays steady).
class Spread {
 public:
  explicit Spread(common::Rng& rng) : u_(rng.uniform()) {}
  std::size_t next(std::size_t lo, std::size_t hi) {
    u_ += 0.6180339887498949;
    u_ -= static_cast<double>(static_cast<int>(u_));
    return lo + static_cast<std::size_t>(u_ * static_cast<double>(hi - lo + 1));
  }

 private:
  double u_;
};

/// Warms the process-wide FFT plans every stage uses (OFDM, Welch
/// segments, channel estimation), so no op pays their construction.
void warm_fft_plans() {
  for (std::size_t n = 2; n <= 4096; n *= 2) common::FftPlan::get(n);
}

// --- phy_link ------------------------------------------------------------

// Recurring payload sizes; one frame in four instead takes a size spread
// evenly over 60..1500 B, so a cache keyed on (config, length) sees a
// partial hit rate.
constexpr std::size_t kRecurringSizes[] = {100, 400, 1000};
constexpr std::size_t kLeadSamples = 160;
constexpr double kWifiRxDbm = -45.0;  // 36 dB SNR over the -81 dBm floor

struct WifiFrame {
  core::SledzigConfig cfg;
  bool sledzig_on = true;
  common::Bytes payload;
  std::uint64_t channel_seed = 0;
};

std::vector<WifiFrame> make_wifi_frames(std::uint64_t seed) {
  common::Rng rng(common::derive_seed(seed, kPhyLinkDomain));
  Spread sizes(rng);
  std::vector<WifiFrame> frames(kWifiFrames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto& f = frames[i];
    f.cfg = sledzig_config(i);
    f.sledzig_on = i % 7 != 6;  // a minority of frames bypass SledZig
    const std::size_t size =
        i % 4 == 3 ? sizes.next(60, 1500) : kRecurringSizes[(i / 12) % 3];
    f.payload = rng.bytes(size);
    f.channel_seed = common::derive_seed(seed, kPhyLinkDomain, i);
  }
  return frames;
}

/// Mild receiver impairment inside the envelope where
/// bench_impairment_resilience decodes every frame of all three modes:
/// a 20 kHz carrier offset and an 8-bit ADC.
channel::ImpairmentConfig mild_impairment() {
  channel::ImpairmentConfig imp;
  imp.cfo = true;
  imp.cfo_hz = 20e3;
  imp.quantization = true;
  imp.quant_bits = 8;
  return imp;
}

/// Per-op counts summed over a run's traced and untraced ops; reported as
/// means per op.
struct Counts {
  std::map<std::string, double> sums;
  double ops = 0;
};

/// Everything one phy_link op produced that the checks look at.
struct WifiOutcome {
  std::size_t violations = 0;
  common::RxError rx_error = common::RxError::kNone;
  std::optional<common::Bytes> decoded;
  double rssi = 0.0;
};

/// Empty when the op is correct, otherwise the failure cause.
std::string check_wifi(const WifiFrame& f, const WifiOutcome& o) {
  if (o.violations != 0) return "sledzig-violations";
  if (o.rx_error != common::RxError::kNone) {
    return common::to_string(o.rx_error);
  }
  if (!o.decoded || *o.decoded != f.payload) return "payload-mismatch";
  if (!std::isfinite(o.rssi)) return "rssi-invalid";
  return {};
}

class PhyLink {
 public:
  explicit PhyLink(std::uint64_t seed)
      : frames_(make_wifi_frames(seed)), imp_(mild_impairment()) {
    warm_fft_plans();
  }

  WifiOutcome op(std::size_t k, Tracer& tr, Counts* counts) const {
    const WifiFrame& f = frames_[k % frames_.size()];
    WifiOutcome out;
    common::Bytes psdu = f.payload;
    if (f.sledzig_on) {
      const auto enc =
          tr.span(k, "sledzig.encode", [&] { return core::sledzig_encode(f.payload, f.cfg); });
      out.violations = enc.num_violations;
      counts->sums["sledzig.extra_bits"] +=
          static_cast<double>(enc.num_extra_bits);
      counts->sums["sledzig.unforced"] += static_cast<double>(
          enc.num_unforced_head + enc.num_unforced_tail + enc.num_collisions);
      psdu = enc.transmit_psdu;
    }
    const auto packet = tr.span(k, "wifi.transmit", [&] {
      return wifi::wifi_transmit(psdu, tx_config(f.cfg));
    });
    counts->sums["wifi.samples"] += static_cast<double>(packet.samples.size());
    const auto rx_samples = tr.span(k, "channel.mix", [&] {
      common::Rng rng(f.channel_seed);
      const channel::Emission e{&packet.samples, kWifiRxDbm, 0.0, kLeadSamples,
                                &imp_, f.channel_seed};
      return channel::mix_at_receiver(std::vector<channel::Emission>{e},
                                      packet.samples.size() + 3 * kLeadSamples,
                                      rng);
    });
    const auto rx = tr.span(k, "wifi.receive", [&] {
      return wifi::wifi_receive(rx_samples, wifi::WifiRxConfig{});
    });
    out.rx_error = rx.error;
    if (rx.ok()) {
      if (f.sledzig_on) {
        out.decoded = tr.span(k, "sledzig.decode", [&] {
          return core::sledzig_decode(rx.psdu, f.cfg);
        });
      } else {
        out.decoded = rx.psdu;
      }
    }
    // RSSI over the protected 2 MHz window, payload symbols only (Figs 11
    // and 12 measure there).
    const double center = core::channel_center_offset_hz(f.cfg.channel);
    const std::size_t payload_start =
        kLeadSamples + wifi::kPreambleLen + wifi::kSymbolLen;
    out.rssi = tr.span(k, "common.band_power", [&] {
      const std::span<const common::Cplx> s(rx_samples);
      return common::band_power(s.subspan(std::min(payload_start, s.size())),
                                wifi::kSampleRateHz, center - 1e6,
                                center + 1e6);
    });
    counts->ops += 1;
    return out;
  }

  const WifiFrame& frame(std::size_t k) const {
    return frames_[k % frames_.size()];
  }

 private:
  std::vector<WifiFrame> frames_;
  channel::ImpairmentConfig imp_;
};

// --- zigbee_coex -----------------------------------------------------------

// The paper's testbed geometry: a 0.5 m ZigBee link (Fig 13), USRP gain 15,
// CC2420 gain 31, and the WiFi transmitter 6 m from the ZigBee receiver,
// beyond the Fig 14 SledZig cut-off of all three modes.  Closer in (4 m),
// about one frame in a thousand fails its CRC on the seed code.
constexpr double kDzM = 0.5;
constexpr double kDwzM = 6.0;
constexpr double kWifiGain = 15.0;
constexpr unsigned kZigbeeGain = 31;
constexpr std::size_t kZigbeeLead = 320;
constexpr std::size_t kMinZigbeeBytes = 20;
constexpr std::size_t kMaxZigbeeBytes = 100;

struct CoexFrame {
  core::SledzigConfig cfg;  // the interfering WiFi frame's SledZig plan
  common::Bytes wifi_payload;
  common::Bytes zigbee_payload;
  std::size_t wifi_start = 0;  // WiFi start, samples after the ZigBee start
  std::uint64_t channel_seed = 0;
};

std::vector<CoexFrame> make_coex_frames(std::uint64_t seed) {
  common::Rng rng(common::derive_seed(seed, kZigbeeCoexDomain));
  Spread zigbee_sizes(rng), wifi_sizes(rng), offsets(rng);
  std::vector<CoexFrame> frames(kCoexFrames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto& f = frames[i];
    f.cfg = sledzig_config(i);
    f.zigbee_payload =
        rng.bytes(zigbee_sizes.next(kMinZigbeeBytes, kMaxZigbeeBytes));
    f.wifi_payload = rng.bytes(wifi_sizes.next(600, 1500));
    // The WiFi frame starts once the ZigBee SHR is through (the paper's
    // WiFi payload lands on the ZigBee payload), at a seeded offset.
    f.wifi_start = offsets.next(4000, 16000);
    f.channel_seed = common::derive_seed(seed, kZigbeeCoexDomain, i);
  }
  return frames;
}

struct ZigbeeOutcome {
  std::size_t violations = 0;
  common::RxError rx_error = common::RxError::kNone;
  common::Bytes payload;
};

std::string check_zigbee(const CoexFrame& f, const ZigbeeOutcome& o) {
  if (o.violations != 0) return "sledzig-violations";
  if (o.rx_error != common::RxError::kNone) {
    return common::to_string(o.rx_error);
  }
  if (o.payload != f.zigbee_payload) return "payload-mismatch";
  return {};
}

/// The receiver decodes a fixed-length capture window that holds the
/// longest ZigBee frame, as a radio's receive buffer would.  zigbee_receive
/// costs in proportion to its input, so a fixed window keeps every op's
/// cost the same whatever the frame size (20 B to 100 B frames differ 6x),
/// and a run's median does not depend on which frames the seed drew.
std::size_t capture_window() {
  const auto longest = zigbee::zigbee_transmit(common::Bytes(kMaxZigbeeBytes));
  return 2 * kZigbeeLead + longest.samples.size();
}

class ZigbeeCoex {
 public:
  explicit ZigbeeCoex(std::uint64_t seed)
      : frames_(make_coex_frames(seed)),
        window_(capture_window()),
        zigbee_dbm_(channel::zigbee_link()
                        .received_power_dbm(zigbee::tx_power_dbm(kZigbeeGain),
                                            kDzM)
                        .value()),
        wifi_dbm_(channel::wifi_link()
                      .received_power_dbm(channel::wifi_tx_power_dbm(kWifiGain),
                                          kDwzM)
                      .value()) {
    warm_fft_plans();
  }

  ZigbeeOutcome op(std::size_t k, Tracer& tr, Counts* counts) const {
    const CoexFrame& f = frames_[k % frames_.size()];
    ZigbeeOutcome out;
    const auto enc = tr.span(k, "sledzig.encode", [&] {
      return core::sledzig_encode(f.wifi_payload, f.cfg);
    });
    out.violations = enc.num_violations;
    const auto wifi_packet = tr.span(k, "wifi.transmit", [&] {
      return wifi::wifi_transmit(enc.transmit_psdu, tx_config(f.cfg));
    });
    const auto zb = tr.span(k, "zigbee.transmit", [&] {
      return zigbee::zigbee_transmit(f.zigbee_payload);
    });
    const std::size_t wifi_at = kZigbeeLead + f.wifi_start;
    const std::size_t total =
        std::max(window_, wifi_at + wifi_packet.samples.size() + kZigbeeLead);
    counts->sums["zigbee.samples"] += static_cast<double>(total);
    const auto rx_samples = tr.span(k, "channel.mix", [&] {
      common::Rng rng(f.channel_seed);
      // The receiver is tuned to the ZigBee channel, so the WiFi centre
      // sits at minus the protected window's offset.
      const std::vector<channel::Emission> emissions = {
          {&zb.samples, zigbee_dbm_, 0.0, kZigbeeLead},
          {&wifi_packet.samples, wifi_dbm_,
           -core::channel_center_offset_hz(f.cfg.channel), wifi_at},
      };
      return channel::mix_at_receiver(emissions, total, rng);
    });
    const auto rx = tr.span(k, "zigbee.receive",
                            [&] { return zigbee::zigbee_receive(rx_samples); });
    counts->sums["zigbee.chip_errors"] += static_cast<double>(rx.chip_errors);
    counts->ops += 1;
    out.rx_error = rx.error;
    out.payload = rx.payload;
    return out;
  }

  const CoexFrame& frame(std::size_t k) const {
    return frames_[k % frames_.size()];
  }

 private:
  std::vector<CoexFrame> frames_;
  std::size_t window_;
  double zigbee_dbm_;
  double wifi_dbm_;
};

/// Deliberate corruption for the self-check: flips one payload bit.
void corrupt(WifiOutcome& o) {
  if (!o.decoded) o.decoded = common::Bytes{};
  if (o.decoded->empty()) o.decoded->push_back(0);
  (*o.decoded)[0] ^= 0x01;
}
void corrupt(ZigbeeOutcome& o) {
  if (o.payload.empty()) o.payload.push_back(0);
  o.payload[0] ^= 0x01;
}

/// Receiver failure causes reported per workload (every other check
/// failure lands in "<prefix>other"; SledZig violations have their own
/// counter).
const std::vector<std::string> kWifiCauses = {
    "nan-samples",       "no-preamble",     "signal-parity",
    "signal-length-cap", "truncated-payload", "viterbi-overrun",
    "payload-mismatch",  "other"};
const std::vector<std::string> kZigbeeCauses = {
    "nan-samples", "no-preamble",       "no-sfd",           "bad-length",
    "crc-failed",  "truncated-payload", "payload-mismatch", "other"};

/// Shared loop for the two sample-domain workloads: an untraced closed
/// loop on this thread for the end-to-end metrics, then (traced runs) a
/// traced closed loop for the per-layer ones.
template <typename Workload, typename Check>
Report run_sample_domain(const Options& opts, Check check,
                         const std::string& fail_prefix,
                         const std::vector<std::string>& causes,
                         std::size_t rss_ops) {
  Report report;
  const auto t0 = Clock::now();
  const Workload w(opts.seed);
  report.setup_s = seconds_between(t0, Clock::now());
  if (opts.setup_only) return report;

  // Self-check: one real op must pass, and corrupted copies of its output
  // (a flipped payload bit, a SledZig violation) must be counted as failed.
  {
    Tracer off(false);
    Counts scratch;
    const auto outcome = w.op(0, off, &scratch);
    auto corrupted = outcome;
    corrupt(corrupted);
    auto violated = outcome;
    violated.violations = 1;
    report.checks_ok = check(w.frame(0), outcome).empty() &&
                       !check(w.frame(0), corrupted).empty() &&
                       !check(w.frame(0), violated).empty();
    report.notes.emplace_back("self_check", report.checks_ok ? "pass" : "FAIL");
  }

  Counts counts;
  std::map<std::string, double> fails;
  auto run_op = [&](Tracer& tr, std::size_t k) {
    const auto outcome = w.op(k, tr, &counts);
    ++report.attempted;
    const std::string cause = check(w.frame(k), outcome);
    if (cause.empty()) return;
    ++report.failed;
    fails[cause] += 1;
    std::fprintf(stderr, "perfbench: %s op %zu failed: %s\n",
                 opts.workload.c_str(), k, cause.c_str());
  };

  Tracer off(false);
  report.op_ms = closed_loop(opts.trace ? opts.seconds / 2 : opts.seconds, 0,
                             [&](std::size_t k) {
                               run_op(off, k);
                               if (k + 1 == rss_ops) {
                                 report.peak_rss_mb = vm_hwm_mb();
                               }
                             });
  report.ops = report.op_ms.size();
  for (double ms : report.op_ms) report.busy_s += ms * 1e-3;
  if (!opts.trace) return report;

  Tracer tr(true);
  const auto traced_ms =
      closed_loop(opts.seconds / 2, report.ops, [&](std::size_t k) {
        const auto s = Clock::now();
        run_op(tr, k);
        tr.add(k, "op", s, Clock::now());
      });
  add_layer_times(tr, &report);
  add_trace_overhead(traced_ms, &report);
  for (const auto& [name, sum] : counts.sums) {
    report.layers[name] = {sum / counts.ops, "count/op"};
  }
  report.layers["sledzig.violations"] = {fails["sledzig-violations"], "count"};
  fails.erase("sledzig-violations");
  for (const auto& cause : causes) report.layers[fail_prefix + cause] = {0.0, "count"};
  for (const auto& [cause, n] : fails) {
    const bool known =
        std::find(causes.begin(), causes.end(), cause) != causes.end();
    report.layers[fail_prefix + (known ? cause : "other")].value += n;
  }
  if (!tr.write_jsonl(opts.work_dir + "/spans_" + opts.workload + ".jsonl")) {
    report.notes.emplace_back("span_dump", "failed");
  }
  return report;
}

}  // namespace

Report run_phy_link(const Options& opts) {
  return run_sample_domain<PhyLink>(opts, check_wifi, "wifi.rx_fail.",
                                   kWifiCauses, /*rss_ops=*/500);
}

Report run_zigbee_coex(const Options& opts) {
  return run_sample_domain<ZigbeeCoex>(opts, check_zigbee, "zigbee.rx_fail.",
                                      kZigbeeCauses, /*rss_ops=*/20);
}

}  // namespace perfbench

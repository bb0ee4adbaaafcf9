// One field list per scenario config struct (DESIGN.md §17.2).
//
// Each `fields(v, s)` names every field of one struct once: its JSON key,
// the member, and the values it may take.  The JSON writer and reader
// (campaign/scenario_json.cc) and ScenarioConfig::validate() walk these
// lists with visitors called as
//
//   v(key, member, range)   a number, or a vector of numbers
//   v(key, member, names)   an enum, or a vector of them, with its names
//   v(key, member)          a bool, a nested struct or a vector of structs
//
// so no number goes without a range.  Every default satisfies its range; a
// rule that ties fields together is written out in validate().
#pragma once

#include <cmath>
#include <limits>
#include <span>

#include "sim/scenario.h"

namespace sledzig::sim {

/// Where a number must lie: [lo, hi], or (lo, hi] when `open_low`.  NaN
/// and infinities never pass.  `message` is what validate() reports.
struct Range {
  double lo;
  double hi;
  bool open_low;
  const char* message;

  bool contains(double x) const {
    return std::isfinite(x) && (open_low ? x > lo : x >= lo) && x <= hi;
  }
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Range kFinite{-kInf, kInf, false, "must be finite"};
inline constexpr Range kPower{-kInf, kInf, false,
                              "must be finite (NaN power)"};
inline constexpr Range kNonNegative{0.0, kInf, false,
                                    "must be finite and >= 0"};
inline constexpr Range kPositive{0.0, kInf, true, "must be finite and > 0"};
inline constexpr Range kUnit{0.0, 1.0, false, "must be in [0, 1]"};
inline constexpr Range kOpenUnit{0.0, 1.0, true, "must be in (0, 1]"};
inline constexpr Range kAtLeastOne{1.0, kInf, false, "must be >= 1"};
/// A rate offset in ppm: the factor 1 + ppm * 1e-6 must stay positive, or
/// timers would fire in the past and resampling would never advance.
inline constexpr Range kPpm{-1e6, kInf, true, "must be finite and > -1e6"};
/// Counters and seeds for which every value of their unsigned type is valid.
inline constexpr Range kAnyCount{0.0, kInf, false, "any value"};

/// A field's value as a double (unit types unwrap).
inline double number(double x) { return x; }
inline double number(common::Db x) { return x.value(); }
inline double number(common::Dbm x) { return x.value(); }

/// One enum value and its JSON name.
struct NamePair {
  const char* name;
  int value;
};
using Names = std::span<const NamePair>;

/// The JSON name of `value`, or nullptr when it has none.
template <class Enum>
const char* name_of(Names names, Enum value) {
  for (const auto& p : names) {
    if (p.value == static_cast<int>(value)) return p.name;
  }
  return nullptr;
}

inline constexpr NamePair kTrafficKinds[] = {
    {"saturated", static_cast<int>(TrafficKind::kSaturated)},
    {"cbr", static_cast<int>(TrafficKind::kCbr)},
    {"poisson", static_cast<int>(TrafficKind::kPoisson)},
    {"duty_cycle", static_cast<int>(TrafficKind::kDutyCycle)},
};

inline constexpr NamePair kFaultKinds[] = {
    {"crash", static_cast<int>(FaultKind::kCrash)},
    {"reboot", static_cast<int>(FaultKind::kReboot)},
    {"mute_on", static_cast<int>(FaultKind::kMuteOn)},
    {"mute_off", static_cast<int>(FaultKind::kMuteOff)},
    {"deaf_on", static_cast<int>(FaultKind::kDeafOn)},
    {"deaf_off", static_cast<int>(FaultKind::kDeafOff)},
    {"jam_on", static_cast<int>(FaultKind::kJamOn)},
    {"surge_on", static_cast<int>(FaultKind::kSurgeOn)},
    {"surge_off", static_cast<int>(FaultKind::kSurgeOff)},
};

inline constexpr NamePair kModulations[] = {
    {"bpsk", static_cast<int>(wifi::Modulation::kBpsk)},
    {"qpsk", static_cast<int>(wifi::Modulation::kQpsk)},
    {"qam16", static_cast<int>(wifi::Modulation::kQam16)},
    {"qam64", static_cast<int>(wifi::Modulation::kQam64)},
    {"qam256", static_cast<int>(wifi::Modulation::kQam256)},
};

inline constexpr NamePair kRates[] = {
    {"1/2", static_cast<int>(wifi::CodingRate::kR12)},
    {"2/3", static_cast<int>(wifi::CodingRate::kR23)},
    {"3/4", static_cast<int>(wifi::CodingRate::kR34)},
    {"5/6", static_cast<int>(wifi::CodingRate::kR56)},
};

inline constexpr NamePair kOverlapChannels[] = {
    {"ch1", static_cast<int>(core::OverlapChannel::kCh1)},
    {"ch2", static_cast<int>(core::OverlapChannel::kCh2)},
    {"ch3", static_cast<int>(core::OverlapChannel::kCh3)},
    {"ch4", static_cast<int>(core::OverlapChannel::kCh4)},
};

inline constexpr NamePair kWidths[] = {
    {"20mhz", static_cast<int>(wifi::ChannelWidth::k20MHz)},
    {"40mhz", static_cast<int>(wifi::ChannelWidth::k40MHz)},
};

void fields(auto& v, Position& p) {
  v("x_m", p.x_m, kFinite);
  v("y_m", p.y_m, kFinite);
}

void fields(auto& v, TrafficConfig& t) {
  v("kind", t.kind, kTrafficKinds);
  v("interval_us", t.interval_us, kNonNegative);
  v("duty_ratio", t.duty_ratio, kUnit);
}

void fields(auto& v, mac::WifiMacParams& m) {
  v("cw", m.cw, kAtLeastOne);
  v("difs_us", m.difs_us, kNonNegative);
  v("slot_us", m.slot_us, kNonNegative);
  v("preamble_us", m.preamble_us, kNonNegative);
  v("airtime_us", m.airtime_us, kPositive);
}

void fields(auto& v, mac::ZigbeeMacParams& m) {
  // The backoff draws from [0, 2^BE); 802.15.4 bounds macMaxBE by 8.
  // min_be > max_be stays legal: the machine clamps it to max_be.
  v("min_be", m.min_be, kAnyCount);
  v("max_be", m.max_be, Range{0.0, 8.0, false, "must be <= 8 (macMaxBE)"});
  v("max_backoffs", m.max_backoffs, kAnyCount);
  v("max_frame_retries", m.max_frame_retries, kAnyCount);
  v("backoff_period_us", m.backoff_period_us, kNonNegative);
  v("cca_us", m.cca_us, kNonNegative);
  v("turnaround_us", m.turnaround_us, kNonNegative);
  v("ack_wait_us", m.ack_wait_us, kNonNegative);
  v("payload_octets", m.payload_octets, kAtLeastOne);
}

void fields(auto& v, WifiNodeConfig& n) {
  v("tx", n.tx);
  v("rx", n.rx);
  v("usrp_gain", n.usrp_gain, kPower);
  v("channel", n.channel,
    Range{0.0, 13.0, false, "must be 0 (legacy) or 1..13"});
  v("mac", n.mac);
  v("traffic", n.traffic);
}

void fields(auto& v, ZigbeeNodeConfig& n) {
  v("tx", n.tx);
  v("rx", n.rx);
  v("gain", n.gain, Range{0.0, 31.0, false, "must be <= 31 (PA_LEVEL)"});
  v("sensitivity_dbm", n.sensitivity_dbm, kFinite);
  // validate() also rejects 1..10, which no interval can express.
  v("channel", n.channel,
    Range{0.0, 26.0, false, "must be 0 (legacy) or 11..26"});
  v("mac", n.mac);
  v("traffic", n.traffic);
}

void fields(auto& v, core::SledzigConfig& s) {
  v("modulation", s.modulation, kModulations);
  v("rate", s.rate, kRates);
  v("channel", s.channel, kOverlapChannels);
  v("extra_channels", s.extra_channels, kOverlapChannels);
  v("forced_subcarriers", s.forced_subcarriers,
    Range{0.0, 48.0, false, "must be <= 48 (data subcarriers)"});
  // The scrambler's state is 7 bits and must not start at zero.
  v("scrambler_seed", s.scrambler_seed,
    Range{1.0, 127.0, false, "must be in [1, 127]"});
  v("include_service_field", s.include_service_field);
  v("width", s.width, kWidths);
  v("window_offsets_hz", s.window_offsets_hz, kFinite);
  v("window_bandwidth_hz", s.window_bandwidth_hz, kPositive);
}

void fields(auto& v, channel::ImpairmentConfig& c) {
  v("iq_imbalance", c.iq_imbalance);
  v("iq_gain_mismatch_db", c.iq_gain_mismatch_db, kFinite);
  v("iq_phase_error_deg", c.iq_phase_error_deg, kFinite);
  v("clipping", c.clipping);
  v("clip_level_rms", c.clip_level_rms, kPositive);
  v("multipath", c.multipath);
  v("multipath_taps", c.multipath_taps, kAtLeastOne);
  v("delay_spread_samples", c.delay_spread_samples, kPositive);
  v("interference", c.interference);
  v("interferer_power_db", c.interferer_power_db, kFinite);
  v("interferer_freq_offset_hz", c.interferer_freq_offset_hz, kFinite);
  v("interferer_bandwidth_hz", c.interferer_bandwidth_hz, kNonNegative);
  v("burst_duty", c.burst_duty, kUnit);
  v("mean_burst_samples", c.mean_burst_samples, kPositive);
  v("cfo", c.cfo);
  v("cfo_hz", c.cfo_hz, kFinite);
  v("cfo_drift_hz_per_s", c.cfo_drift_hz_per_s, kFinite);
  v("phase_noise_std_rad", c.phase_noise_std_rad, kNonNegative);
  v("clock_offset", c.clock_offset);
  v("clock_offset_ppm", c.clock_offset_ppm, kPpm);
  v("quantization", c.quantization);
  v("quant_bits", c.quant_bits, Range{1.0, 24.0, false, "must be in [1, 24]"});
  v("quant_full_scale_rms", c.quant_full_scale_rms, kPositive);
  v("faults", c.faults);
  v("truncate_fraction", c.truncate_fraction, kOpenUnit);
  v("sample_drop_prob", c.sample_drop_prob, kUnit);
  v("sample_rate_hz", c.sample_rate_hz, kPositive);
}

void fields(auto& v, mac::SymbolErrorModel& m) {
  // A width <= 0 inverts or degenerates the logistic curve.
  v("payload_midpoint_db", m.payload_midpoint_db, kFinite);
  v("payload_width_db", m.payload_width_db, kPositive);
  v("preamble_midpoint_db", m.preamble_midpoint_db, kFinite);
  v("preamble_width_db", m.preamble_width_db, kPositive);
  v("preamble_max_error", m.preamble_max_error, kUnit);
  v("sensitivity_width_db", m.sensitivity_width_db, kPositive);
}

void fields(auto& v, TimedFault& f) {
  v("kind", f.kind, kFaultKinds);
  v("node", f.node, kAnyCount);
  v("at_us", f.at_us, kNonNegative);
  v("duration_us", f.duration_us, kFinite);
  v("magnitude", f.magnitude, kNonNegative);
}

void fields(auto& v, JammerConfig& j) {
  v("pos", j.pos);
  v("usrp_gain", j.usrp_gain, kPower);
  v("mean_on_us", j.mean_on_us, kNonNegative);
  v("mean_off_us", j.mean_off_us, kNonNegative);
}

void fields(auto& v, RandomFaultConfig& r) {
  v("crash_rate_per_s", r.crash_rate_per_s, kNonNegative);
  v("mean_downtime_us", r.mean_downtime_us, kNonNegative);
  v("mute_rate_per_s", r.mute_rate_per_s, kNonNegative);
  v("mean_mute_us", r.mean_mute_us, kNonNegative);
  v("deaf_rate_per_s", r.deaf_rate_per_s, kNonNegative);
  v("mean_deaf_us", r.mean_deaf_us, kNonNegative);
  v("surge_rate_per_s", r.surge_rate_per_s, kNonNegative);
  v("mean_surge_us", r.mean_surge_us, kNonNegative);
  v("surge_magnitude", r.surge_magnitude, kNonNegative);
}

void fields(auto& v, ClockConfig& c) {
  v("skew_us", c.skew_us, kFinite);
  v("drift_ppm", c.drift_ppm, kPpm);
}

void fields(auto& v, FaultPlanConfig& f) {
  v("timed", f.timed);
  v("jammers", f.jammers);
  v("random", f.random);
  v("clocks", f.clocks);
}

void fields(auto& v, InvariantConfig& i) {
  v("enabled", i.enabled);
}

// A policy's thresholds need be >= 1 only while it is enabled; validate()
// checks that, and the lists hold what is true whatever the flags.

void fields(auto& v, control::SledzigPolicyConfig& p) {
  v("enabled", p.enabled);
  v("on_threshold", p.on_threshold, kAnyCount);
  v("off_threshold", p.off_threshold, kAnyCount);
  v("busy_airtime_fraction", p.busy_airtime_fraction, kNonNegative);
}

void fields(auto& v, control::HopPolicyConfig& p) {
  v("enabled", p.enabled);
  v("min_prr", p.min_prr, kUnit);
  v("patience", p.patience, kAnyCount);
  v("cooldown_epochs", p.cooldown_epochs, kAnyCount);
}

void fields(auto& v, control::DutyPolicyConfig& p) {
  v("enabled", p.enabled);
  v("min_zigbee_prr", p.min_zigbee_prr, kUnit);
  v("rate_scale", p.rate_scale, kUnit);
  v("patience", p.patience, kAnyCount);
  v("release", p.release, kAnyCount);
}

void fields(auto& v, control::ControlConfig& c) {
  v("enabled", c.enabled);
  v("epoch_us", c.epoch_us, kNonNegative);
  v("sledzig", c.sledzig);
  v("hop", c.hop);
  v("duty", c.duty);
}

// ScenarioConfig's own fields come in two lists because scenario_from_json
// reads them in two phases: a topology generator consumes the first, and
// the second is applied on top of whatever the generator built.

void generator_fields(auto& v, ScenarioConfig& c) {
  v("duration_s", c.duration_s, kPositive);
  v("seed", c.seed, kAnyCount);
  v("sledzig_enabled", c.sledzig_enabled);
  v("sledzig", c.sledzig);
}

void overlay_fields(auto& v, ScenarioConfig& c) {
  v("shadowing_sigma_db", c.shadowing_sigma_db, kNonNegative);
  v("wifi_capture_sinr_db", c.wifi_capture_sinr_db, kFinite);
  v("queue_capacity", c.queue_capacity, kAtLeastOne);
  v("record_trace", c.record_trace);
  v("wifi", c.wifi);
  v("zigbee", c.zigbee);
  v("impairment", c.impairment);
  v("error_model", c.error_model);
  v("faults", c.faults);
  v("invariants", c.invariants);
  v("control", c.control);
}

void fields(auto& v, ScenarioConfig& c) {
  generator_fields(v, c);
  overlay_fields(v, c);
}

/// Walks `s` with a visitor that only reads.  The lists take mutable
/// references for the JSON reader; the writer and range check never write.
template <class V, class S>
void read_fields(V& v, const S& s) {
  fields(v, const_cast<S&>(s));
}

}  // namespace sledzig::sim

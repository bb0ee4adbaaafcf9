#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "coex/inband.h"
#include "sim/link_cache.h"
#include "sim/scenario_fields.h"
#include "sledzig/encoder.h"
#include "wifi/signal_field.h"

namespace sledzig::sim {

double distance_m(const Position& a, const Position& b) {
  return std::max(0.1, std::hypot(a.x_m - b.x_m, a.y_m - b.y_m));
}

bool FaultPlanConfig::any() const {
  if (!timed.empty() || !jammers.empty()) return true;
  for (const auto& c : clocks) {
    if (c.skew_us != 0.0 || c.drift_ppm != 0.0) return true;
  }
  const auto& r = random;
  return r.crash_rate_per_s > 0.0 || r.mute_rate_per_s > 0.0 ||
         r.deaf_rate_per_s > 0.0 || r.surge_rate_per_s > 0.0;
}

std::string describe(const std::vector<ConfigError>& errors) {
  std::string out = "ScenarioConfig invalid:";
  for (const auto& e : errors) {
    out += "\n  " + e.field + ": " + e.message;
  }
  return out;
}

namespace {

/// The message for a value outside its declaration, or nullptr.
template <class T>
const char* problem(const T& x, const Range& range) {
  return range.contains(number(x)) ? nullptr : range.message;
}
template <class Enum>
const char* problem(Enum x, Names names) {
  return name_of(names, x) == nullptr ? "has no name" : nullptr;
}

/// The range visitor: reports every value outside its declaration, then
/// runs the struct's cross-field rules (below) on the way out of it.  A
/// dotted path is built only for a failure, from the (key, index) frames
/// the walk is inside.
class RangeCheck {
 public:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  std::vector<ConfigError> errors;
  std::size_t num_nodes = 0;
  std::size_t num_jammers = 0;
  bool sledzig_can_engage = false;

  /// True when every given member passed its range.  Rules read only such
  /// members, so no path gets two errors.
  template <class... Members>
  bool ok(const Members&... members) const {
    return (... && (std::find(failed_.begin(), failed_.end(),
                              static_cast<const void*>(&members)) ==
                    failed_.end()));
  }

  /// Reports `message` at `key` (and `index`) in the struct being walked.
  void fail(const char* key, std::string message,
            const void* member = nullptr, std::size_t index = kNoIndex) {
    failed_.push_back(member);
    frames_.push_back({key, index});
    std::string path;
    for (const Frame& f : frames_) {
      if (!path.empty() && *f.key != '\0') path += '.';
      path += f.key;
      if (f.index != kNoIndex) {
        path.append("[").append(std::to_string(f.index)).append("]");
      }
    }
    frames_.pop_back();
    errors.push_back({std::move(path), std::move(message)});
  }

  /// Reports `x` at `key` unless `range` holds it.  A rule that narrows a
  /// member's declared range calls this too, and its message then replaces
  /// the declaration's: the path keeps one error, and it states the rule.
  template <class T>
  void require(const char* key, const T& x, const Range& range) {
    if (range.contains(number(x))) return;
    const auto earlier = std::find(failed_.begin(), failed_.end(), &x);
    if (earlier == failed_.end()) {
      fail(key, range.message, &x);
    } else {
      errors[static_cast<std::size_t>(earlier - failed_.begin())].message =
          range.message;
    }
  }

  template <class T, class... Decl>
  void operator()(const char* key, const T& x, const Decl&... decl) {
    if (const char* message = problem(x, decl...)) fail(key, message, &x);
  }
  void operator()(const char* /*key*/, bool /*x*/) {}
  template <class S>
  void operator()(const char* key, const S& s) {
    enter(key, kNoIndex, s);
  }
  template <class T, class... Decl>
  void operator()(const char* key, const std::vector<T>& xs,
                  const Decl&... decl) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if constexpr (sizeof...(Decl) == 0) {
        enter(key, i, xs[i]);
      } else if (const char* message = problem(xs[i], decl...)) {
        fail(key, message, &xs, i);
      }
    }
  }

 private:
  struct Frame {
    const char* key;
    std::size_t index;
  };

  template <class S>
  void enter(const char* key, std::size_t index, const S& s) {
    frames_.push_back({key, index});
    read_fields(*this, s);
    rules(*this, s);
    frames_.pop_back();
  }

  std::vector<Frame> frames_;
  std::vector<const void*> failed_;  ///< errors[i] is about failed_[i]
};

// --- cross-field rules, one overload per struct that has any ---------------

void rules(RangeCheck& /*check*/, const auto& /*s*/) {}

void rules(RangeCheck& check, const TrafficConfig& t) {
  if (t.kind == TrafficKind::kCbr || t.kind == TrafficKind::kPoisson) {
    check.require("interval_us", t.interval_us, kPositive);
  }
  // duty_ratio == 0 means "a source that is on 0% of the time", i.e. a
  // run that silently produces nothing — reject it here instead.
  if (t.kind == TrafficKind::kDutyCycle) {
    check.require("duty_ratio", t.duty_ratio, kOpenUnit);
  }
}

void rules(RangeCheck& check, const ZigbeeNodeConfig& n) {
  if (n.channel != 0) {
    check.require("channel", n.channel,
                  Range{11.0, 26.0, false, "must be 0 (legacy) or 11..26"});
  }
}

void rules(RangeCheck& check, const core::SledzigConfig& s) {
  // The link tables synthesise a frame in this mode even with SledZig off,
  // so a pair without a RATE code point would throw deep inside the build.
  const bool mode_ok = check.ok(s.modulation, s.rate) &&
                       wifi::has_rate_code(s.modulation, s.rate);
  if (check.ok(s.modulation, s.rate) && !mode_ok) {
    check.fail("rate", std::string("no ") + wifi::to_string(s.modulation) +
                           " mode at rate " + wifi::to_string(s.rate));
  }
  const bool windows_ok =
      check.ok(s.width) &&
      (s.width == wifi::ChannelWidth::k20MHz || !s.window_offsets_hz.empty());
  if (check.ok(s.width) && !windows_ok) {
    check.fail("window_offsets_hz", "required for a 40 MHz width");
  }
  // The rest matters only where SledZig encodes: the link tables then
  // encode coex's reference payload into one PSDU under this plan, which
  // needs lower-power points to force (BPSK and QPSK have none).
  if (!check.sledzig_can_engage || !mode_ok || !windows_ok) return;
  if (wifi::bits_per_subcarrier(s.modulation) < 4) {
    check.fail("modulation", "SledZig needs qam16 or above");
  } else if (check.ok(s.channel, s.extra_channels, s.forced_subcarriers,
                      s.window_offsets_hz, s.window_bandwidth_hz) &&
             !core::fits_one_psdu(coex::kInbandPayloadOctets, s)) {
    check.fail("", "the forced subcarriers leave a frame too little room");
  }
}

void rules(RangeCheck& check, const TimedFault& f) {
  const bool is_jam = f.kind == FaultKind::kJamOn;
  if (f.node >= (is_jam ? check.num_jammers : check.num_nodes)) {
    check.fail("node", is_jam ? "jammer index out of range"
                              : "node index out of range");
  }
  if (f.kind == FaultKind::kSurgeOn) {
    check.require("magnitude", f.magnitude, kPositive);
  }
}

void rules(RangeCheck& check, const JammerConfig& j) {
  if (check.ok(j.mean_on_us, j.mean_off_us) &&
      (j.mean_on_us > 0.0) != (j.mean_off_us > 0.0)) {
    check.fail("mean_on_us/mean_off_us",
               "must be finite, >= 0, and enabled together");
  }
}

void rules(RangeCheck& check, const RandomFaultConfig& r) {
  const auto process = [&](const double& rate, const double& mean,
                           const char* mean_key) {
    if (check.ok(rate) && rate > 0.0) {
      check.require(mean_key, mean,
                    Range{0.0, kInf, true,
                          "must be finite and > 0 when the rate is > 0"});
    }
  };
  process(r.crash_rate_per_s, r.mean_downtime_us, "mean_downtime_us");
  process(r.mute_rate_per_s, r.mean_mute_us, "mean_mute_us");
  process(r.deaf_rate_per_s, r.mean_deaf_us, "mean_deaf_us");
  process(r.surge_rate_per_s, r.mean_surge_us, "mean_surge_us");
  if (check.ok(r.surge_rate_per_s) && r.surge_rate_per_s > 0.0) {
    check.require("surge_magnitude", r.surge_magnitude, kPositive);
  }
}

/// The control plane's limits apply only while their policy is on.
void rules(RangeCheck& check, const control::ControlConfig& c) {
  if (!c.enabled) return;
  check.require("epoch_us", c.epoch_us, kPositive);
  if (c.sledzig.enabled) {
    check.require("sledzig.on_threshold", c.sledzig.on_threshold, kAtLeastOne);
    check.require("sledzig.off_threshold", c.sledzig.off_threshold,
                  kAtLeastOne);
  }
  if (c.hop.enabled) check.require("hop.patience", c.hop.patience, kAtLeastOne);
  if (c.duty.enabled) {
    check.require("duty.rate_scale", c.duty.rate_scale, kOpenUnit);
    check.require("duty.patience", c.duty.patience, kAtLeastOne);
    check.require("duty.release", c.duty.release, kAtLeastOne);
  }
}

}  // namespace

std::vector<ConfigError> ScenarioConfig::validate() const {
  RangeCheck check;
  check.num_nodes = wifi.size() + zigbee.size();
  check.num_jammers = faults.jammers.size();
  check.sledzig_can_engage =
      sledzig_enabled || (control.enabled && control.sledzig.enabled);
  read_fields(check, *this);
  if (wifi.empty() && zigbee.empty()) {
    check.fail("wifi/zigbee", "topology is empty: nothing to simulate");
  }
  if (faults.clocks.size() > check.num_nodes) {
    check.fail("faults.clocks", "more clock entries than nodes");
  }
  return std::move(check.errors);
}

// NOLINTBEGIN(bugprone-easily-swappable-parameters)
ScenarioConfig two_node_paper_scenario(const core::SledzigConfig& sledzig,
                                       bool sledzig_on,
                                       double wifi_duty_ratio, double d_wz_m,
                                       double d_z_m, double duration_s,
                                       std::uint64_t seed) {
  // NOLINTEND(bugprone-easily-swappable-parameters)
  ScenarioConfig cfg;
  cfg.sledzig = sledzig;
  cfg.sledzig_enabled = sledzig_on;
  cfg.duration_s = duration_s;
  cfg.seed = seed;

  WifiNodeConfig ap;
  ap.tx = {0.0, 0.0};
  ap.rx = {0.0, 3.0};  // the served station; uncontested in this geometry
  if (wifi_duty_ratio >= 1.0) {
    ap.traffic = {TrafficKind::kSaturated, 0.0, 1.0};
  } else {
    ap.traffic = {TrafficKind::kDutyCycle, 0.0, wifi_duty_ratio};
  }
  cfg.wifi.push_back(ap);

  ZigbeeNodeConfig mote;
  mote.tx = {d_wz_m, 0.0};
  mote.rx = {d_wz_m, d_z_m};
  // The paper's mote: one 50-octet frame per ~6.3 ms (about 3 ms of
  // host-side processing plus mean CSMA and the frame airtime), the
  // 63 Kbps interference-free ceiling.
  mote.traffic = {TrafficKind::kCbr, 6346.0, 1.0};
  cfg.zigbee.push_back(mote);
  return cfg;
}

ScenarioConfig control_ab_scenario(bool controlled, double duration_s,
                                   std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.sledzig_enabled = true;
  cfg.duration_s = duration_s;
  cfg.seed = seed;

  // The congested cell: an 80% duty BSS with four ZigBee pairs 2..5 m from
  // its transmitter, one per 2 MHz overlap window.  Only the window
  // cfg.sledzig.channel selects is SledZig-protected, so three of the four
  // motes face the full-power flat-PSD slice — the coexistence gap the
  // controller exists to close.
  WifiNodeConfig heavy;
  heavy.tx = {0.0, 0.0};
  heavy.rx = {0.0, 3.0};
  heavy.channel = 1;
  heavy.traffic = {TrafficKind::kDutyCycle, 0.0, 0.8};
  cfg.wifi.push_back(heavy);

  // The quiet cell, far enough that its windows are attractive hop targets
  // but close enough that its spectrum is genuinely shared.
  WifiNodeConfig light;
  light.tx = {16.0, 0.0};
  light.rx = {16.0, 3.0};
  light.channel = 11;
  light.traffic = {TrafficKind::kDutyCycle, 0.0, 0.1};
  cfg.wifi.push_back(light);

  for (std::size_t k = 0; k < core::kAllOverlapChannels.size(); ++k) {
    ZigbeeNodeConfig mote;
    mote.tx = {2.0 + static_cast<double>(k), 1.0};
    mote.rx = {2.0 + static_cast<double>(k), 2.0};
    mote.channel = overlapping_zigbee_channel(heavy.channel,
                                              core::kAllOverlapChannels[k]);
    mote.traffic = {TrafficKind::kCbr, 25000.0, 1.0};
    cfg.zigbee.push_back(mote);
  }

  if (controlled) {
    cfg.control.enabled = true;
    cfg.control.epoch_us = 100000.0;
    cfg.control.sledzig.enabled = true;
    cfg.control.sledzig.on_threshold = 1;  // no first-epoch disengage blip
    cfg.control.sledzig.off_threshold = 3;
    cfg.control.hop.enabled = true;
    cfg.control.hop.min_prr = 0.9;
    cfg.control.hop.patience = 2;
    cfg.control.hop.cooldown_epochs = 5;
  }
  return cfg;
}

// NOLINTBEGIN(bugprone-easily-swappable-parameters)
ScenarioConfig campus_scenario(std::size_t ap_grid_x, std::size_t ap_grid_y,
                               std::size_t sensors_per_ap, double spacing_m,
                               double duration_s, std::uint64_t seed) {
  // NOLINTEND(bugprone-easily-swappable-parameters)
  ScenarioConfig cfg;
  cfg.sledzig_enabled = true;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  cfg.wifi.reserve(ap_grid_x * ap_grid_y);
  cfg.zigbee.reserve(ap_grid_x * ap_grid_y * sensors_per_ap);

  // The classic dense-deployment plan: the three non-overlapping 20 MHz
  // channels tiled so adjacent cells never share one.
  constexpr unsigned kChannelPlan[3] = {1, 6, 11};

  for (std::size_t iy = 0; iy < ap_grid_y; ++iy) {
    for (std::size_t ix = 0; ix < ap_grid_x; ++ix) {
      const double x = static_cast<double>(ix) * spacing_m;
      const double y = static_cast<double>(iy) * spacing_m;
      WifiNodeConfig ap;
      ap.tx = {x, y};
      ap.rx = {x + 2.0, y + 1.0};
      ap.channel = kChannelPlan[(ix + iy) % 3];
      ap.traffic = {TrafficKind::kDutyCycle, 0.0, 0.35};
      cfg.wifi.push_back(ap);

      // Sensors ring the AP, each parked in one of the four 2 MHz overlap
      // windows of its cell's WiFi channel — the SledZig coexistence
      // geometry, repeated per cell.
      for (std::size_t s = 0; s < sensors_per_ap; ++s) {
        const double dx = 2.0 + 3.0 * static_cast<double>(s % 3);
        const double dy = 3.0 + 3.0 * static_cast<double>(s / 3);
        ZigbeeNodeConfig mote;
        mote.tx = {x + dx, y + dy};
        mote.rx = {x + dx, y + dy + 1.0};
        mote.channel = overlapping_zigbee_channel(
            ap.channel, core::kAllOverlapChannels[s % 4]);
        mote.traffic = {TrafficKind::kCbr, 25000.0, 1.0};
        cfg.zigbee.push_back(mote);
      }
    }
  }
  return cfg;
}

}  // namespace sledzig::sim

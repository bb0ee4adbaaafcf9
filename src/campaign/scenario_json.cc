#include "campaign/scenario_json.h"

#include <cmath>
#include <cstdint>
#include <utility>

namespace sledzig::campaign {

namespace {

using sim::ConfigError;

// --- enum name tables ------------------------------------------------------

struct NamePair {
  const char* name;
  int value;
};

template <typename Enum, std::size_t N>
std::string enum_name(const NamePair (&table)[N], Enum v) {
  for (const auto& p : table) {
    if (p.value == static_cast<int>(v)) return p.name;
  }
  return "?";
}

template <typename Enum, std::size_t N>
bool enum_from_name(const NamePair (&table)[N], const std::string& name,
                    Enum* out) {
  for (const auto& p : table) {
    if (name == p.name) {
      *out = static_cast<Enum>(p.value);
      return true;
    }
  }
  return false;
}

template <std::size_t N>
std::string enum_choices(const NamePair (&table)[N]) {
  std::string out;
  for (const auto& p : table) {
    if (!out.empty()) out += "|";
    out += p.name;
  }
  return out;
}

constexpr NamePair kTrafficKinds[] = {
    {"saturated", static_cast<int>(sim::TrafficKind::kSaturated)},
    {"cbr", static_cast<int>(sim::TrafficKind::kCbr)},
    {"poisson", static_cast<int>(sim::TrafficKind::kPoisson)},
    {"duty_cycle", static_cast<int>(sim::TrafficKind::kDutyCycle)},
};

constexpr NamePair kFaultKinds[] = {
    {"crash", static_cast<int>(sim::FaultKind::kCrash)},
    {"reboot", static_cast<int>(sim::FaultKind::kReboot)},
    {"mute_on", static_cast<int>(sim::FaultKind::kMuteOn)},
    {"mute_off", static_cast<int>(sim::FaultKind::kMuteOff)},
    {"deaf_on", static_cast<int>(sim::FaultKind::kDeafOn)},
    {"deaf_off", static_cast<int>(sim::FaultKind::kDeafOff)},
    {"jam_on", static_cast<int>(sim::FaultKind::kJamOn)},
    {"surge_on", static_cast<int>(sim::FaultKind::kSurgeOn)},
    {"surge_off", static_cast<int>(sim::FaultKind::kSurgeOff)},
};

constexpr NamePair kModulations[] = {
    {"bpsk", static_cast<int>(wifi::Modulation::kBpsk)},
    {"qpsk", static_cast<int>(wifi::Modulation::kQpsk)},
    {"qam16", static_cast<int>(wifi::Modulation::kQam16)},
    {"qam64", static_cast<int>(wifi::Modulation::kQam64)},
    {"qam256", static_cast<int>(wifi::Modulation::kQam256)},
};

constexpr NamePair kRates[] = {
    {"1/2", static_cast<int>(wifi::CodingRate::kR12)},
    {"2/3", static_cast<int>(wifi::CodingRate::kR23)},
    {"3/4", static_cast<int>(wifi::CodingRate::kR34)},
    {"5/6", static_cast<int>(wifi::CodingRate::kR56)},
};

constexpr NamePair kOverlapChannels[] = {
    {"ch1", static_cast<int>(core::OverlapChannel::kCh1)},
    {"ch2", static_cast<int>(core::OverlapChannel::kCh2)},
    {"ch3", static_cast<int>(core::OverlapChannel::kCh3)},
    {"ch4", static_cast<int>(core::OverlapChannel::kCh4)},
};

constexpr NamePair kWidths[] = {
    {"20mhz", static_cast<int>(wifi::ChannelWidth::k20MHz)},
    {"40mhz", static_cast<int>(wifi::ChannelWidth::k40MHz)},
};

// --- typed object reader ---------------------------------------------------

/// Wraps one JSON object with a dotted path; every getter type-checks,
/// records an error on mismatch, and marks the key consumed so finish()
/// can flag unknown keys.  All getters are override-if-present: an absent
/// key leaves *out (the engine default) untouched.
class ObjReader {
 public:
  ObjReader(const JsonValue* v, std::string path,
            std::vector<ConfigError>* errors)
      : value_(v), path_(std::move(path)), errors_(errors) {
    if (value_ != nullptr && !value_->is_object()) {
      errors_->push_back({path_.empty() ? "scenario" : path_,
                          std::string("expected an object, got ") +
                              value_->type_name()});
      value_ = nullptr;
    }
    if (value_ != nullptr) consumed_.assign(value_->as_object().size(), false);
  }

  bool present() const { return value_ != nullptr; }

  /// The member for `key`, consuming it; nullptr when absent.
  const JsonValue* child(const char* key) {
    if (value_ == nullptr) return nullptr;
    const auto& members = value_->as_object();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == key) {
        consumed_[i] = true;
        return &members[i].second;
      }
    }
    return nullptr;
  }

  /// Dotted child path; the root reader carries an empty prefix so
  /// top-level fields report as "duration_s", matching the nested style.
  std::string sub(const char* key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  void error(const char* key, const std::string& message) {
    errors_->push_back({sub(key), message});
  }

  void get(const char* key, double* out) {
    const JsonValue* v = child(key);
    if (v == nullptr) return;
    if (!v->is_number()) {
      error(key, std::string("expected a number, got ") + v->type_name());
      return;
    }
    *out = v->as_number();
  }

  void get(const char* key, bool* out) {
    const JsonValue* v = child(key);
    if (v == nullptr) return;
    if (!v->is_bool()) {
      error(key, std::string("expected true/false, got ") + v->type_name());
      return;
    }
    *out = v->as_bool();
  }

  template <typename UInt>
  void get_uint(const char* key, UInt* out, double max_value) {
    const JsonValue* v = child(key);
    if (v == nullptr) return;
    if (!v->is_number() || v->as_number() < 0.0 ||
        v->as_number() != std::floor(v->as_number()) ||
        v->as_number() > max_value) {
      error(key, "expected a non-negative integer");
      return;
    }
    *out = static_cast<UInt>(v->as_number());
  }

  void get(const char* key, unsigned* out) { get_uint(key, out, 4294967295.0); }
  void get(const char* key, std::uint8_t* out) { get_uint(key, out, 255.0); }
  // Covers seeds too: values above ~2^53 would silently lose bits through
  // the double, so the ceiling keeps the round-trip honest.
  void get(const char* key, std::size_t* out) { get_uint(key, out, 9e15); }

  void get(const char* key, common::Db* out) {
    double v = out->value();
    get(key, &v);
    *out = common::Db{v};
  }
  void get(const char* key, common::Dbm* out) {
    double v = out->value();
    get(key, &v);
    *out = common::Dbm{v};
  }

  template <typename Enum, std::size_t N>
  void get_enum(const char* key, const NamePair (&table)[N], Enum* out) {
    const JsonValue* v = child(key);
    if (v == nullptr) return;
    if (!v->is_string() || !enum_from_name(table, v->as_string(), out)) {
      const std::string got =
          v->is_string() ? "'" + v->as_string() + "'" : v->type_name();
      error(key, "unknown value " + got + " (expected one of " +
                     enum_choices(table) + ")");
    }
  }

  /// Flags every unconsumed key.  Call exactly once, last.
  void finish() {
    if (value_ == nullptr) return;
    const auto& members = value_->as_object();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!consumed_[i]) {
        errors_->push_back({sub(members[i].first.c_str()), "unknown key"});
      }
    }
  }

 private:
  const JsonValue* value_;
  std::string path_;
  std::vector<ConfigError>* errors_;
  std::vector<bool> consumed_;
};

std::string indexed(const std::string& base, std::size_t i) {
  return base + "[" + std::to_string(i) + "]";
}

// --- section writers -------------------------------------------------------

JsonValue position_to_json(const sim::Position& p) {
  JsonObject o;
  o.emplace_back("x_m", JsonValue(p.x_m));
  o.emplace_back("y_m", JsonValue(p.y_m));
  return JsonValue(std::move(o));
}

JsonValue traffic_to_json(const sim::TrafficConfig& t) {
  JsonObject o;
  o.emplace_back("kind", JsonValue(enum_name(kTrafficKinds, t.kind)));
  o.emplace_back("interval_us", JsonValue(t.interval_us));
  o.emplace_back("duty_ratio", JsonValue(t.duty_ratio));
  return JsonValue(std::move(o));
}

JsonValue wifi_mac_to_json(const mac::WifiMacParams& m) {
  JsonObject o;
  o.emplace_back("difs_us", JsonValue(m.difs_us));
  o.emplace_back("slot_us", JsonValue(m.slot_us));
  o.emplace_back("cw", JsonValue(static_cast<double>(m.cw)));
  o.emplace_back("preamble_us", JsonValue(m.preamble_us));
  o.emplace_back("airtime_us", JsonValue(m.airtime_us));
  return JsonValue(std::move(o));
}

JsonValue zigbee_mac_to_json(const mac::ZigbeeMacParams& m) {
  JsonObject o;
  o.emplace_back("backoff_period_us", JsonValue(m.backoff_period_us));
  o.emplace_back("cca_us", JsonValue(m.cca_us));
  o.emplace_back("turnaround_us", JsonValue(m.turnaround_us));
  o.emplace_back("min_be", JsonValue(static_cast<double>(m.min_be)));
  o.emplace_back("max_be", JsonValue(static_cast<double>(m.max_be)));
  o.emplace_back("max_backoffs", JsonValue(static_cast<double>(m.max_backoffs)));
  o.emplace_back("max_frame_retries",
                 JsonValue(static_cast<double>(m.max_frame_retries)));
  o.emplace_back("ack_wait_us", JsonValue(m.ack_wait_us));
  o.emplace_back("payload_octets",
                 JsonValue(static_cast<double>(m.payload_octets)));
  return JsonValue(std::move(o));
}

JsonValue sledzig_to_json(const core::SledzigConfig& s) {
  JsonObject o;
  o.emplace_back("modulation", JsonValue(enum_name(kModulations, s.modulation)));
  o.emplace_back("rate", JsonValue(enum_name(kRates, s.rate)));
  o.emplace_back("channel", JsonValue(enum_name(kOverlapChannels, s.channel)));
  JsonArray extra;
  for (const auto ch : s.extra_channels) {
    extra.emplace_back(enum_name(kOverlapChannels, ch));
  }
  o.emplace_back("extra_channels", JsonValue(std::move(extra)));
  o.emplace_back("forced_subcarriers",
                 JsonValue(static_cast<double>(s.forced_subcarriers)));
  o.emplace_back("scrambler_seed",
                 JsonValue(static_cast<double>(s.scrambler_seed)));
  o.emplace_back("include_service_field", JsonValue(s.include_service_field));
  o.emplace_back("width", JsonValue(enum_name(kWidths, s.width)));
  JsonArray offsets;
  for (const double hz : s.window_offsets_hz) offsets.emplace_back(hz);
  o.emplace_back("window_offsets_hz", JsonValue(std::move(offsets)));
  o.emplace_back("window_bandwidth_hz", JsonValue(s.window_bandwidth_hz));
  return JsonValue(std::move(o));
}

JsonValue impairment_to_json(const channel::ImpairmentConfig& c) {
  JsonObject o;
  o.emplace_back("iq_imbalance", JsonValue(c.iq_imbalance));
  o.emplace_back("iq_gain_mismatch_db", JsonValue(c.iq_gain_mismatch_db));
  o.emplace_back("iq_phase_error_deg", JsonValue(c.iq_phase_error_deg));
  o.emplace_back("clipping", JsonValue(c.clipping));
  o.emplace_back("clip_level_rms", JsonValue(c.clip_level_rms));
  o.emplace_back("multipath", JsonValue(c.multipath));
  o.emplace_back("multipath_taps",
                 JsonValue(static_cast<double>(c.multipath_taps)));
  o.emplace_back("delay_spread_samples", JsonValue(c.delay_spread_samples));
  o.emplace_back("interference", JsonValue(c.interference));
  o.emplace_back("interferer_power_db", JsonValue(c.interferer_power_db));
  o.emplace_back("interferer_freq_offset_hz",
                 JsonValue(c.interferer_freq_offset_hz));
  o.emplace_back("interferer_bandwidth_hz",
                 JsonValue(c.interferer_bandwidth_hz));
  o.emplace_back("burst_duty", JsonValue(c.burst_duty));
  o.emplace_back("mean_burst_samples", JsonValue(c.mean_burst_samples));
  o.emplace_back("cfo", JsonValue(c.cfo));
  o.emplace_back("cfo_hz", JsonValue(c.cfo_hz));
  o.emplace_back("cfo_drift_hz_per_s", JsonValue(c.cfo_drift_hz_per_s));
  o.emplace_back("phase_noise_std_rad", JsonValue(c.phase_noise_std_rad));
  o.emplace_back("clock_offset", JsonValue(c.clock_offset));
  o.emplace_back("clock_offset_ppm", JsonValue(c.clock_offset_ppm));
  o.emplace_back("quantization", JsonValue(c.quantization));
  o.emplace_back("quant_bits", JsonValue(static_cast<double>(c.quant_bits)));
  o.emplace_back("quant_full_scale_rms", JsonValue(c.quant_full_scale_rms));
  o.emplace_back("faults", JsonValue(c.faults));
  o.emplace_back("truncate_fraction", JsonValue(c.truncate_fraction));
  o.emplace_back("sample_drop_prob", JsonValue(c.sample_drop_prob));
  o.emplace_back("sample_rate_hz", JsonValue(c.sample_rate_hz));
  return JsonValue(std::move(o));
}

JsonValue error_model_to_json(const mac::SymbolErrorModel& m) {
  JsonObject o;
  o.emplace_back("payload_midpoint_db", JsonValue(m.payload_midpoint_db.value()));
  o.emplace_back("payload_width_db", JsonValue(m.payload_width_db.value()));
  o.emplace_back("preamble_midpoint_db",
                 JsonValue(m.preamble_midpoint_db.value()));
  o.emplace_back("preamble_width_db", JsonValue(m.preamble_width_db.value()));
  o.emplace_back("preamble_max_error", JsonValue(m.preamble_max_error));
  o.emplace_back("sensitivity_width_db",
                 JsonValue(m.sensitivity_width_db.value()));
  return JsonValue(std::move(o));
}

JsonValue faults_to_json(const sim::FaultPlanConfig& f) {
  JsonObject o;
  JsonArray timed;
  for (const auto& t : f.timed) {
    JsonObject e;
    e.emplace_back("kind", JsonValue(enum_name(kFaultKinds, t.kind)));
    e.emplace_back("node", JsonValue(static_cast<double>(t.node)));
    e.emplace_back("at_us", JsonValue(t.at_us));
    e.emplace_back("duration_us", JsonValue(t.duration_us));
    e.emplace_back("magnitude", JsonValue(t.magnitude));
    timed.emplace_back(std::move(e));
  }
  o.emplace_back("timed", JsonValue(std::move(timed)));
  JsonArray jammers;
  for (const auto& j : f.jammers) {
    JsonObject e;
    e.emplace_back("pos", position_to_json(j.pos));
    e.emplace_back("usrp_gain", JsonValue(j.usrp_gain));
    e.emplace_back("mean_on_us", JsonValue(j.mean_on_us));
    e.emplace_back("mean_off_us", JsonValue(j.mean_off_us));
    jammers.emplace_back(std::move(e));
  }
  o.emplace_back("jammers", JsonValue(std::move(jammers)));
  {
    const auto& r = f.random;
    JsonObject e;
    e.emplace_back("crash_rate_per_s", JsonValue(r.crash_rate_per_s));
    e.emplace_back("mean_downtime_us", JsonValue(r.mean_downtime_us));
    e.emplace_back("mute_rate_per_s", JsonValue(r.mute_rate_per_s));
    e.emplace_back("mean_mute_us", JsonValue(r.mean_mute_us));
    e.emplace_back("deaf_rate_per_s", JsonValue(r.deaf_rate_per_s));
    e.emplace_back("mean_deaf_us", JsonValue(r.mean_deaf_us));
    e.emplace_back("surge_rate_per_s", JsonValue(r.surge_rate_per_s));
    e.emplace_back("mean_surge_us", JsonValue(r.mean_surge_us));
    e.emplace_back("surge_magnitude", JsonValue(r.surge_magnitude));
    o.emplace_back("random", JsonValue(std::move(e)));
  }
  JsonArray clocks;
  for (const auto& c : f.clocks) {
    JsonObject e;
    e.emplace_back("skew_us", JsonValue(c.skew_us));
    e.emplace_back("drift_ppm", JsonValue(c.drift_ppm));
    clocks.emplace_back(std::move(e));
  }
  o.emplace_back("clocks", JsonValue(std::move(clocks)));
  return JsonValue(std::move(o));
}

// --- section readers -------------------------------------------------------

void position_from_json(const JsonValue* v, const std::string& path,
                        sim::Position* out,
                        std::vector<ConfigError>* errors) {
  if (v == nullptr) return;
  ObjReader r(v, path, errors);
  r.get("x_m", &out->x_m);
  r.get("y_m", &out->y_m);
  r.finish();
}

void traffic_from_json(const JsonValue* v, const std::string& path,
                       sim::TrafficConfig* out,
                       std::vector<ConfigError>* errors) {
  if (v == nullptr) return;
  ObjReader r(v, path, errors);
  r.get_enum("kind", kTrafficKinds, &out->kind);
  r.get("interval_us", &out->interval_us);
  r.get("duty_ratio", &out->duty_ratio);
  r.finish();
}

void wifi_node_from_json(const JsonValue& v, const std::string& path,
                         sim::WifiNodeConfig* out,
                         std::vector<ConfigError>* errors) {
  ObjReader r(&v, path, errors);
  position_from_json(r.child("tx"), r.sub("tx"), &out->tx, errors);
  position_from_json(r.child("rx"), r.sub("rx"), &out->rx, errors);
  r.get("usrp_gain", &out->usrp_gain);
  r.get("channel", &out->channel);
  traffic_from_json(r.child("traffic"), r.sub("traffic"), &out->traffic,
                    errors);
  {
    const JsonValue* m = r.child("mac");
    if (m != nullptr) {
      ObjReader mr(m, r.sub("mac"), errors);
      mr.get("difs_us", &out->mac.difs_us);
      mr.get("slot_us", &out->mac.slot_us);
      mr.get("cw", &out->mac.cw);
      mr.get("preamble_us", &out->mac.preamble_us);
      mr.get("airtime_us", &out->mac.airtime_us);
      mr.finish();
    }
  }
  r.finish();
}

void zigbee_node_from_json(const JsonValue& v, const std::string& path,
                           sim::ZigbeeNodeConfig* out,
                           std::vector<ConfigError>* errors) {
  ObjReader r(&v, path, errors);
  position_from_json(r.child("tx"), r.sub("tx"), &out->tx, errors);
  position_from_json(r.child("rx"), r.sub("rx"), &out->rx, errors);
  r.get("gain", &out->gain);
  r.get("sensitivity_dbm", &out->sensitivity_dbm);
  r.get("channel", &out->channel);
  traffic_from_json(r.child("traffic"), r.sub("traffic"), &out->traffic,
                    errors);
  {
    const JsonValue* m = r.child("mac");
    if (m != nullptr) {
      ObjReader mr(m, r.sub("mac"), errors);
      mr.get("backoff_period_us", &out->mac.backoff_period_us);
      mr.get("cca_us", &out->mac.cca_us);
      mr.get("turnaround_us", &out->mac.turnaround_us);
      mr.get("min_be", &out->mac.min_be);
      mr.get("max_be", &out->mac.max_be);
      mr.get("max_backoffs", &out->mac.max_backoffs);
      mr.get("max_frame_retries", &out->mac.max_frame_retries);
      mr.get("ack_wait_us", &out->mac.ack_wait_us);
      mr.get("payload_octets", &out->mac.payload_octets);
      mr.finish();
    }
  }
  r.finish();
}

void sledzig_from_json(const JsonValue* v, const std::string& path,
                       core::SledzigConfig* out,
                       std::vector<ConfigError>* errors) {
  if (v == nullptr) return;
  ObjReader r(v, path, errors);
  r.get_enum("modulation", kModulations, &out->modulation);
  r.get_enum("rate", kRates, &out->rate);
  r.get_enum("channel", kOverlapChannels, &out->channel);
  {
    const JsonValue* extra = r.child("extra_channels");
    if (extra != nullptr) {
      if (!extra->is_array()) {
        errors->push_back({r.sub("extra_channels"), "expected an array"});
      } else {
        out->extra_channels.clear();
        const auto& items = extra->as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          core::OverlapChannel ch{};
          if (!items[i].is_string() ||
              !enum_from_name(kOverlapChannels, items[i].as_string(), &ch)) {
            errors->push_back({indexed(r.sub("extra_channels"), i),
                               "unknown overlap channel (expected one of " +
                                   enum_choices(kOverlapChannels) + ")"});
            continue;
          }
          out->extra_channels.push_back(ch);
        }
      }
    }
  }
  r.get("forced_subcarriers", &out->forced_subcarriers);
  r.get("scrambler_seed", &out->scrambler_seed);
  r.get("include_service_field", &out->include_service_field);
  r.get_enum("width", kWidths, &out->width);
  {
    const JsonValue* offs = r.child("window_offsets_hz");
    if (offs != nullptr) {
      if (!offs->is_array()) {
        errors->push_back({r.sub("window_offsets_hz"), "expected an array"});
      } else {
        out->window_offsets_hz.clear();
        const auto& items = offs->as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (!items[i].is_number()) {
            errors->push_back({indexed(r.sub("window_offsets_hz"), i),
                               "expected a number"});
            continue;
          }
          out->window_offsets_hz.push_back(items[i].as_number());
        }
      }
    }
  }
  r.get("window_bandwidth_hz", &out->window_bandwidth_hz);
  r.finish();
}

void impairment_from_json(const JsonValue* v, const std::string& path,
                          channel::ImpairmentConfig* out,
                          std::vector<ConfigError>* errors) {
  if (v == nullptr) return;
  ObjReader r(v, path, errors);
  r.get("iq_imbalance", &out->iq_imbalance);
  r.get("iq_gain_mismatch_db", &out->iq_gain_mismatch_db);
  r.get("iq_phase_error_deg", &out->iq_phase_error_deg);
  r.get("clipping", &out->clipping);
  r.get("clip_level_rms", &out->clip_level_rms);
  r.get("multipath", &out->multipath);
  r.get("multipath_taps", &out->multipath_taps);
  r.get("delay_spread_samples", &out->delay_spread_samples);
  r.get("interference", &out->interference);
  r.get("interferer_power_db", &out->interferer_power_db);
  r.get("interferer_freq_offset_hz", &out->interferer_freq_offset_hz);
  r.get("interferer_bandwidth_hz", &out->interferer_bandwidth_hz);
  r.get("burst_duty", &out->burst_duty);
  r.get("mean_burst_samples", &out->mean_burst_samples);
  r.get("cfo", &out->cfo);
  r.get("cfo_hz", &out->cfo_hz);
  r.get("cfo_drift_hz_per_s", &out->cfo_drift_hz_per_s);
  r.get("phase_noise_std_rad", &out->phase_noise_std_rad);
  r.get("clock_offset", &out->clock_offset);
  r.get("clock_offset_ppm", &out->clock_offset_ppm);
  r.get("quantization", &out->quantization);
  r.get("quant_bits", &out->quant_bits);
  r.get("quant_full_scale_rms", &out->quant_full_scale_rms);
  r.get("faults", &out->faults);
  r.get("truncate_fraction", &out->truncate_fraction);
  r.get("sample_drop_prob", &out->sample_drop_prob);
  r.get("sample_rate_hz", &out->sample_rate_hz);
  r.finish();
}

void error_model_from_json(const JsonValue* v, const std::string& path,
                           mac::SymbolErrorModel* out,
                           std::vector<ConfigError>* errors) {
  if (v == nullptr) return;
  ObjReader r(v, path, errors);
  r.get("payload_midpoint_db", &out->payload_midpoint_db);
  r.get("payload_width_db", &out->payload_width_db);
  r.get("preamble_midpoint_db", &out->preamble_midpoint_db);
  r.get("preamble_width_db", &out->preamble_width_db);
  r.get("preamble_max_error", &out->preamble_max_error);
  r.get("sensitivity_width_db", &out->sensitivity_width_db);
  r.finish();
}

void faults_from_json(const JsonValue* v, const std::string& path,
                      sim::FaultPlanConfig* out,
                      std::vector<ConfigError>* errors) {
  if (v == nullptr) return;
  ObjReader r(v, path, errors);
  {
    const JsonValue* timed = r.child("timed");
    if (timed != nullptr) {
      if (!timed->is_array()) {
        errors->push_back({r.sub("timed"), "expected an array"});
      } else {
        out->timed.clear();
        const auto& items = timed->as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          sim::TimedFault tf;
          ObjReader tr(&items[i], indexed(r.sub("timed"), i), errors);
          tr.get_enum("kind", kFaultKinds, &tf.kind);
          tr.get("node", &tf.node);
          tr.get("at_us", &tf.at_us);
          tr.get("duration_us", &tf.duration_us);
          tr.get("magnitude", &tf.magnitude);
          tr.finish();
          out->timed.push_back(tf);
        }
      }
    }
  }
  {
    const JsonValue* jam = r.child("jammers");
    if (jam != nullptr) {
      if (!jam->is_array()) {
        errors->push_back({r.sub("jammers"), "expected an array"});
      } else {
        out->jammers.clear();
        const auto& items = jam->as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          sim::JammerConfig jc;
          ObjReader jr(&items[i], indexed(r.sub("jammers"), i), errors);
          position_from_json(jr.child("pos"), jr.sub("pos"), &jc.pos, errors);
          jr.get("usrp_gain", &jc.usrp_gain);
          jr.get("mean_on_us", &jc.mean_on_us);
          jr.get("mean_off_us", &jc.mean_off_us);
          jr.finish();
          out->jammers.push_back(jc);
        }
      }
    }
  }
  {
    const JsonValue* random = r.child("random");
    if (random != nullptr) {
      ObjReader rr(random, r.sub("random"), errors);
      auto& rand = out->random;
      rr.get("crash_rate_per_s", &rand.crash_rate_per_s);
      rr.get("mean_downtime_us", &rand.mean_downtime_us);
      rr.get("mute_rate_per_s", &rand.mute_rate_per_s);
      rr.get("mean_mute_us", &rand.mean_mute_us);
      rr.get("deaf_rate_per_s", &rand.deaf_rate_per_s);
      rr.get("mean_deaf_us", &rand.mean_deaf_us);
      rr.get("surge_rate_per_s", &rand.surge_rate_per_s);
      rr.get("mean_surge_us", &rand.mean_surge_us);
      rr.get("surge_magnitude", &rand.surge_magnitude);
      rr.finish();
    }
  }
  {
    const JsonValue* clocks = r.child("clocks");
    if (clocks != nullptr) {
      if (!clocks->is_array()) {
        errors->push_back({r.sub("clocks"), "expected an array"});
      } else {
        out->clocks.clear();
        const auto& items = clocks->as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          sim::ClockConfig cc;
          ObjReader cr(&items[i], indexed(r.sub("clocks"), i), errors);
          cr.get("skew_us", &cc.skew_us);
          cr.get("drift_ppm", &cc.drift_ppm);
          cr.finish();
          out->clocks.push_back(cc);
        }
      }
    }
  }
  r.finish();
}

/// Expands a "topology" generator object into *out (which already carries
/// the file's sledzig/duration/seed fields).  Returns false on errors.
bool topology_from_json(const JsonValue& v, sim::ScenarioConfig* out,
                        std::vector<ConfigError>* errors) {
  const std::size_t before = errors->size();
  ObjReader r(&v, "topology", errors);
  std::string generator;
  {
    const JsonValue* g = r.child("generator");
    if (g == nullptr || !g->is_string()) {
      errors->push_back({"topology.generator",
                         "expected \"two_node\", \"campus\" or "
                         "\"control_ab\""});
      r.finish();
      return false;
    }
    generator = g->as_string();
  }
  if (generator == "two_node") {
    double wifi_duty_ratio = 0.5, d_wz_m = 4.0, d_z_m = 1.0;
    r.get("wifi_duty_ratio", &wifi_duty_ratio);
    r.get("d_wz_m", &d_wz_m);
    r.get("d_z_m", &d_z_m);
    r.finish();
    if (errors->size() != before) return false;
    *out = sim::two_node_paper_scenario(out->sledzig, out->sledzig_enabled,
                                        wifi_duty_ratio, d_wz_m, d_z_m,
                                        out->duration_s, out->seed);
    return true;
  }
  if (generator == "campus") {
    std::size_t gx = 4, gy = 4, sensors = 6;
    double spacing_m = 20.0;
    r.get("ap_grid_x", &gx);
    r.get("ap_grid_y", &gy);
    r.get("sensors_per_ap", &sensors);
    r.get("spacing_m", &spacing_m);
    r.finish();
    if (errors->size() != before) return false;
    const bool sledzig_on = out->sledzig_enabled;
    const core::SledzigConfig sledzig = out->sledzig;
    *out = sim::campus_scenario(gx, gy, sensors, spacing_m, out->duration_s,
                                out->seed);
    out->sledzig = sledzig;
    out->sledzig_enabled = sledzig_on;
    return true;
  }
  if (generator == "control_ab") {
    // The mixed-load two-BSS A/B testbed (DESIGN.md §18).  `controlled`
    // arms the runtime policies; the file's own "control" section still
    // overlays afterwards, so a campaign can refine epoch or thresholds.
    bool controlled = false;
    r.get("controlled", &controlled);
    r.finish();
    if (errors->size() != before) return false;
    *out = sim::control_ab_scenario(controlled, out->duration_s, out->seed);
    return true;
  }
  errors->push_back({"topology.generator",
                     "unknown generator '" + generator +
                         "' (expected two_node|campus|control_ab)"});
  r.finish();
  return false;
}

}  // namespace

// --- public API ------------------------------------------------------------

std::string traffic_kind_name(sim::TrafficKind kind) {
  return enum_name(kTrafficKinds, kind);
}

bool traffic_kind_from_name(const std::string& name, sim::TrafficKind* out) {
  return enum_from_name(kTrafficKinds, name, out);
}

std::string fault_kind_name(sim::FaultKind kind) {
  return enum_name(kFaultKinds, kind);
}

bool fault_kind_from_name(const std::string& name, sim::FaultKind* out) {
  return enum_from_name(kFaultKinds, name, out);
}

// --- runtime control plane (DESIGN.md §18) --------------------------------

JsonValue control_to_json(const control::ControlConfig& c) {
  JsonObject o;
  o.emplace_back("enabled", JsonValue(c.enabled));
  o.emplace_back("epoch_us", JsonValue(c.epoch_us));
  {
    JsonObject s;
    s.emplace_back("enabled", JsonValue(c.sledzig.enabled));
    s.emplace_back("on_threshold",
                   JsonValue(static_cast<double>(c.sledzig.on_threshold)));
    s.emplace_back("off_threshold",
                   JsonValue(static_cast<double>(c.sledzig.off_threshold)));
    s.emplace_back("busy_airtime_fraction",
                   JsonValue(c.sledzig.busy_airtime_fraction));
    o.emplace_back("sledzig", JsonValue(std::move(s)));
  }
  {
    JsonObject h;
    h.emplace_back("enabled", JsonValue(c.hop.enabled));
    h.emplace_back("min_prr", JsonValue(c.hop.min_prr));
    h.emplace_back("patience",
                   JsonValue(static_cast<double>(c.hop.patience)));
    h.emplace_back("cooldown_epochs",
                   JsonValue(static_cast<double>(c.hop.cooldown_epochs)));
    o.emplace_back("hop", JsonValue(std::move(h)));
  }
  {
    JsonObject d;
    d.emplace_back("enabled", JsonValue(c.duty.enabled));
    d.emplace_back("min_zigbee_prr", JsonValue(c.duty.min_zigbee_prr));
    d.emplace_back("rate_scale", JsonValue(c.duty.rate_scale));
    d.emplace_back("patience",
                   JsonValue(static_cast<double>(c.duty.patience)));
    d.emplace_back("release",
                   JsonValue(static_cast<double>(c.duty.release)));
    o.emplace_back("duty", JsonValue(std::move(d)));
  }
  return JsonValue(std::move(o));
}

void control_from_json(const JsonValue* json, const std::string& prefix,
                       control::ControlConfig* out,
                       std::vector<sim::ConfigError>* errors) {
  ObjReader r(json, prefix, errors);
  if (!r.present()) return;
  r.get("enabled", &out->enabled);
  r.get("epoch_us", &out->epoch_us);
  {
    const JsonValue* s = r.child("sledzig");
    if (s != nullptr) {
      ObjReader sr(s, r.sub("sledzig"), errors);
      sr.get("enabled", &out->sledzig.enabled);
      sr.get("on_threshold", &out->sledzig.on_threshold);
      sr.get("off_threshold", &out->sledzig.off_threshold);
      sr.get("busy_airtime_fraction", &out->sledzig.busy_airtime_fraction);
      sr.finish();
    }
  }
  {
    const JsonValue* h = r.child("hop");
    if (h != nullptr) {
      ObjReader hr(h, r.sub("hop"), errors);
      hr.get("enabled", &out->hop.enabled);
      hr.get("min_prr", &out->hop.min_prr);
      hr.get("patience", &out->hop.patience);
      hr.get("cooldown_epochs", &out->hop.cooldown_epochs);
      hr.finish();
    }
  }
  {
    const JsonValue* d = r.child("duty");
    if (d != nullptr) {
      ObjReader dr(d, r.sub("duty"), errors);
      dr.get("enabled", &out->duty.enabled);
      dr.get("min_zigbee_prr", &out->duty.min_zigbee_prr);
      dr.get("rate_scale", &out->duty.rate_scale);
      dr.get("patience", &out->duty.patience);
      dr.get("release", &out->duty.release);
      dr.finish();
    }
  }
  r.finish();
}

JsonValue scenario_to_json(const sim::ScenarioConfig& config) {
  JsonObject o;
  o.emplace_back("duration_s", JsonValue(config.duration_s));
  o.emplace_back("seed", JsonValue(static_cast<double>(config.seed)));
  o.emplace_back("sledzig_enabled", JsonValue(config.sledzig_enabled));
  o.emplace_back("sledzig", sledzig_to_json(config.sledzig));
  o.emplace_back("shadowing_sigma_db",
                 JsonValue(config.shadowing_sigma_db.value()));
  o.emplace_back("wifi_capture_sinr_db",
                 JsonValue(config.wifi_capture_sinr_db.value()));
  o.emplace_back("queue_capacity",
                 JsonValue(static_cast<double>(config.queue_capacity)));
  o.emplace_back("record_trace", JsonValue(config.record_trace));

  JsonArray wifi;
  for (const auto& n : config.wifi) {
    JsonObject e;
    e.emplace_back("tx", position_to_json(n.tx));
    e.emplace_back("rx", position_to_json(n.rx));
    e.emplace_back("usrp_gain", JsonValue(n.usrp_gain));
    e.emplace_back("channel", JsonValue(static_cast<double>(n.channel)));
    e.emplace_back("mac", wifi_mac_to_json(n.mac));
    e.emplace_back("traffic", traffic_to_json(n.traffic));
    wifi.emplace_back(std::move(e));
  }
  o.emplace_back("wifi", JsonValue(std::move(wifi)));

  JsonArray zigbee;
  for (const auto& n : config.zigbee) {
    JsonObject e;
    e.emplace_back("tx", position_to_json(n.tx));
    e.emplace_back("rx", position_to_json(n.rx));
    e.emplace_back("gain", JsonValue(static_cast<double>(n.gain)));
    e.emplace_back("sensitivity_dbm", JsonValue(n.sensitivity_dbm.value()));
    e.emplace_back("channel", JsonValue(static_cast<double>(n.channel)));
    e.emplace_back("mac", zigbee_mac_to_json(n.mac));
    e.emplace_back("traffic", traffic_to_json(n.traffic));
    zigbee.emplace_back(std::move(e));
  }
  o.emplace_back("zigbee", JsonValue(std::move(zigbee)));

  o.emplace_back("impairment", impairment_to_json(config.impairment));
  o.emplace_back("error_model", error_model_to_json(config.error_model));
  o.emplace_back("faults", faults_to_json(config.faults));

  {
    JsonObject fp;
    fp.emplace_back("segment_runs", JsonValue(config.fastpath.segment_runs));
    fp.emplace_back("prune", JsonValue(config.fastpath.prune));
    fp.emplace_back("cross_check", JsonValue(config.fastpath.cross_check));
    o.emplace_back("fastpath", JsonValue(std::move(fp)));
  }
  {
    JsonObject inv;
    inv.emplace_back("enabled", JsonValue(config.invariants.enabled));
    inv.emplace_back("max_event_gap_us",
                     JsonValue(config.invariants.max_event_gap_us));
    o.emplace_back("invariants", JsonValue(std::move(inv)));
  }
  o.emplace_back("control", control_to_json(config.control));
  return JsonValue(std::move(o));
}

bool scenario_from_json(const JsonValue& json, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors) {
  const std::size_t before = errors->size();
  *out = sim::ScenarioConfig{};
  ObjReader r(&json, "", errors);
  if (!r.present()) return false;

  // Phase 1: the fields a topology generator consumes.
  r.get("duration_s", &out->duration_s);
  r.get("seed", &out->seed);
  r.get("sledzig_enabled", &out->sledzig_enabled);
  sledzig_from_json(r.child("sledzig"), "sledzig", &out->sledzig, errors);

  // Phase 2: topology — a generator or explicit node lists, never both.
  const JsonValue* topology = r.child("topology");
  const JsonValue* wifi = r.child("wifi");
  const JsonValue* zigbee = r.child("zigbee");
  if (topology != nullptr && (wifi != nullptr || zigbee != nullptr)) {
    errors->push_back(
        {"topology",
         "a generator cannot be combined with explicit wifi[]/zigbee[] "
         "lists; keep one form"});
  } else if (topology != nullptr) {
    topology_from_json(*topology, out, errors);
  } else {
    if (wifi != nullptr) {
      if (!wifi->is_array()) {
        errors->push_back({"wifi", std::string("expected an array, got ") +
                                       wifi->type_name()});
      } else {
        const auto& items = wifi->as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          sim::WifiNodeConfig n;
          wifi_node_from_json(items[i], indexed("wifi", i), &n, errors);
          out->wifi.push_back(n);
        }
      }
    }
    if (zigbee != nullptr) {
      if (!zigbee->is_array()) {
        errors->push_back({"zigbee", std::string("expected an array, got ") +
                                         zigbee->type_name()});
      } else {
        const auto& items = zigbee->as_array();
        for (std::size_t i = 0; i < items.size(); ++i) {
          sim::ZigbeeNodeConfig n;
          zigbee_node_from_json(items[i], indexed("zigbee", i), &n, errors);
          out->zigbee.push_back(n);
        }
      }
    }
  }

  // Phase 3: everything else overlays whatever topology produced.
  r.get("shadowing_sigma_db", &out->shadowing_sigma_db);
  r.get("wifi_capture_sinr_db", &out->wifi_capture_sinr_db);
  r.get("queue_capacity", &out->queue_capacity);
  r.get("record_trace", &out->record_trace);
  impairment_from_json(r.child("impairment"), "impairment", &out->impairment,
                       errors);
  error_model_from_json(r.child("error_model"), "error_model",
                        &out->error_model, errors);
  faults_from_json(r.child("faults"), "faults", &out->faults, errors);
  {
    const JsonValue* fp = r.child("fastpath");
    if (fp != nullptr) {
      ObjReader fr(fp, "fastpath", errors);
      fr.get("segment_runs", &out->fastpath.segment_runs);
      fr.get("prune", &out->fastpath.prune);
      fr.get("cross_check", &out->fastpath.cross_check);
      fr.finish();
    }
  }
  {
    const JsonValue* inv = r.child("invariants");
    if (inv != nullptr) {
      ObjReader ir(inv, "invariants", errors);
      ir.get("enabled", &out->invariants.enabled);
      ir.get("max_event_gap_us", &out->invariants.max_event_gap_us);
      ir.finish();
    }
  }
  control_from_json(r.child("control"), "control", &out->control, errors);
  r.finish();

  // Semantic validation only once the shape parsed clean — validate() on a
  // half-parsed config would double-report the same fields.
  if (errors->size() == before) {
    auto semantic = out->validate();
    errors->insert(errors->end(), semantic.begin(), semantic.end());
  }
  return errors->size() == before;
}

bool scenario_from_text(const std::string& text, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors) {
  JsonValue root;
  JsonParseError perr;
  if (!json_parse(text, &root, &perr)) {
    errors->push_back({"<json>", perr.to_string()});
    return false;
  }
  return scenario_from_json(root, out, errors);
}

}  // namespace sledzig::campaign

#include "campaign/scenario_json.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "sim/scenario_fields.h"

namespace sledzig::campaign {

namespace {

using sim::ConfigError;
using sim::Names;

template <typename Enum>
std::string enum_name(Names names, Enum v) {
  const char* name = sim::name_of(names, v);
  return name == nullptr ? "?" : name;
}

template <typename Enum>
bool enum_from_name(Names names, const std::string& name, Enum* out) {
  for (const auto& p : names) {
    if (name == p.name) {
      *out = static_cast<Enum>(p.value);
      return true;
    }
  }
  return false;
}

// --- the writer: one member per field, in list order -----------------------

template <class T>
  requires requires(T x) { sim::number(x); }
JsonValue value(const T& x, const sim::Range& /*range*/) {
  return JsonValue(sim::number(x));
}
JsonValue value(bool x) { return JsonValue(x); }
template <class Enum>
  requires std::is_enum_v<Enum>
JsonValue value(Enum x, Names names) {
  return JsonValue(enum_name(names, x));
}
template <class S>
JsonValue value(const S& s);
template <class T, class... Decl>
JsonValue value(const std::vector<T>& xs, const Decl&... decl) {
  JsonArray items;
  for (const T& x : xs) items.push_back(value(x, decl...));
  return JsonValue(std::move(items));
}

template <class S>
JsonValue value(const S& s) {
  JsonObject out;
  auto writer = [&out](const char* key, const auto& x, const auto&... decl) {
    out.emplace_back(key, value(x, decl...));
  };
  sim::read_fields(writer, s);
  return JsonValue(std::move(out));
}

// --- the reader ------------------------------------------------------------

/// Parses a bool or a number into *out; returns the error, empty on
/// success.
template <class T>
std::string parse(const JsonValue& v, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) {
      return std::string("expected true/false, got ") + v.type_name();
    }
    *out = v.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    // The 9e15 ceiling covers seeds: above ~2^53 a double silently loses
    // bits, so the round trip would not be honest.
    const double max =
        std::min(9e15, static_cast<double>(std::numeric_limits<T>::max()));
    if (!v.is_number() || v.as_number() < 0.0 ||
        v.as_number() != std::floor(v.as_number()) || v.as_number() > max) {
      return "expected a non-negative integer";
    }
    *out = static_cast<T>(v.as_number());
  } else {
    if (!v.is_number()) {
      return std::string("expected a number, got ") + v.type_name();
    }
    *out = T{v.as_number()};
  }
  return "";
}
/// A field's range is validate()'s business, not the parser's.
template <class T>
std::string parse(const JsonValue& v, T* out, const sim::Range& /*range*/) {
  return parse(v, out);
}
template <class Enum>
std::string parse(const JsonValue& v, Enum* out, Names names) {
  if (v.is_string() && enum_from_name(names, v.as_string(), out)) return "";
  std::string choices;
  for (const auto& p : names) {
    if (!choices.empty()) choices += "|";
    choices += p.name;
  }
  const std::string got =
      v.is_string() ? "'" + v.as_string() + "'" : v.type_name();
  return "unknown value " + got + " (expected one of " + choices + ")";
}

/// Reads one JSON object through a field list, with a dotted path; every
/// read type-checks, records an error on mismatch, and marks the key
/// consumed so finish() can flag unknown keys.  An absent key leaves the
/// member (the engine default) untouched.
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

  /// Reads `key` into *out when present: a topology parameter, or a field
  /// with its range or names.
  template <class T, class... Decl>
  void get(const char* key, T* out, const Decl&... decl) {
    const JsonValue* v = child(key);
    if (v == nullptr) return;
    const std::string message = parse(*v, out, decl...);
    if (!message.empty()) errors_->push_back({sub(key), message});
  }

  template <class T, class... Decl>
  void operator()(const char* key, T& x, const Decl&... decl) {
    get(key, &x, decl...);
  }
  void operator()(const char* key, bool& x) { get(key, &x); }
  template <class S>
  void operator()(const char* key, S& s) {
    if (const JsonValue* v = child(key)) read_object(*v, sub(key), &s);
  }
  /// An array replaces the whole vector; items that fail to parse are
  /// reported and dropped.
  template <class T, class... Decl>
  void operator()(const char* key, std::vector<T>& xs, const Decl&... decl) {
    const JsonValue* v = child(key);
    if (v == nullptr) return;
    if (!v->is_array()) {
      errors_->push_back({sub(key), std::string("expected an array, got ") +
                                        v->type_name()});
      return;
    }
    xs.clear();
    const auto& items = v->as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string path = sub(key) + "[" + std::to_string(i) + "]";
      T x{};
      if constexpr (sizeof...(Decl) == 0) {
        read_object(items[i], path, &x);
      } else if (const std::string message = parse(items[i], &x, decl...);
                 !message.empty()) {
        errors_->push_back({path, message});
        continue;
      }
      xs.push_back(std::move(x));
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
  template <class S>
  void read_object(const JsonValue& v, std::string path, S* out) {
    ObjReader r(&v, std::move(path), errors_);
    sim::fields(r, *out);
    r.finish();
  }

  const JsonValue* value_;
  std::string path_;
  std::vector<ConfigError>* errors_;
  std::vector<bool> consumed_;
};

/// Expands a "topology" generator object into *out (which already carries
/// the file's sledzig/duration/seed fields).
void topology_from_json(const JsonValue& v, sim::ScenarioConfig* out,
                        std::vector<ConfigError>* errors) {
  const std::size_t before = errors->size();
  ObjReader r(&v, "topology", errors);
  const JsonValue* g = r.child("generator");
  const std::string generator =
      g != nullptr && g->is_string() ? g->as_string() : "";
  double wifi_duty_ratio = 0.5, d_wz_m = 4.0, d_z_m = 1.0, spacing_m = 20.0;
  std::size_t gx = 4, gy = 4, sensors = 6;
  // The mixed-load two-BSS A/B testbed (DESIGN.md §18): `controlled` arms
  // the runtime policies; the file's own "control" section still overlays
  // afterwards, so a campaign can refine epoch or thresholds.
  bool controlled = false;
  if (generator == "two_node") {
    r.get("wifi_duty_ratio", &wifi_duty_ratio);
    r.get("d_wz_m", &d_wz_m);
    r.get("d_z_m", &d_z_m);
  } else if (generator == "campus") {
    r.get("ap_grid_x", &gx);
    r.get("ap_grid_y", &gy);
    r.get("sensors_per_ap", &sensors);
    r.get("spacing_m", &spacing_m);
  } else if (generator == "control_ab") {
    r.get("controlled", &controlled);
  } else if (g == nullptr || !g->is_string()) {
    errors->push_back({"topology.generator",
                       "expected \"two_node\", \"campus\" or "
                       "\"control_ab\""});
  } else {
    errors->push_back({"topology.generator",
                       "unknown generator '" + generator +
                           "' (expected two_node|campus|control_ab)"});
  }
  r.finish();
  if (errors->size() != before) return;
  if (generator == "two_node") {
    *out = sim::two_node_paper_scenario(out->sledzig, out->sledzig_enabled,
                                        wifi_duty_ratio, d_wz_m, d_z_m,
                                        out->duration_s, out->seed);
  } else if (generator == "campus") {
    const bool sledzig_on = out->sledzig_enabled;
    const core::SledzigConfig sledzig = out->sledzig;
    *out = sim::campus_scenario(gx, gy, sensors, spacing_m, out->duration_s,
                                out->seed);
    out->sledzig = sledzig;
    out->sledzig_enabled = sledzig_on;
  } else {
    *out = sim::control_ab_scenario(controlled, out->duration_s, out->seed);
  }
}

}  // namespace

// --- public API ------------------------------------------------------------

std::string traffic_kind_name(sim::TrafficKind kind) {
  return enum_name(sim::kTrafficKinds, kind);
}

bool traffic_kind_from_name(const std::string& name, sim::TrafficKind* out) {
  return enum_from_name(sim::kTrafficKinds, name, out);
}

std::string fault_kind_name(sim::FaultKind kind) {
  return enum_name(sim::kFaultKinds, kind);
}

bool fault_kind_from_name(const std::string& name, sim::FaultKind* out) {
  return enum_from_name(sim::kFaultKinds, name, out);
}

JsonValue scenario_to_json(const sim::ScenarioConfig& config) {
  return value(config);
}

bool scenario_from_json(const JsonValue& json, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors) {
  const std::size_t before = errors->size();
  *out = sim::ScenarioConfig{};
  ObjReader r(&json, "", errors);
  if (!r.present()) return false;

  // Phase 1: the fields a topology generator consumes.
  sim::generator_fields(r, *out);

  // Phase 2: topology — a generator or explicit node lists, never both.
  if (const JsonValue* topology = r.child("topology")) {
    if (r.child("wifi") != nullptr || r.child("zigbee") != nullptr) {
      errors->push_back(
          {"topology",
           "a generator cannot be combined with explicit wifi[]/zigbee[] "
           "lists; keep one form"});
    } else {
      topology_from_json(*topology, out, errors);
    }
  }

  // Phase 3: everything else, node lists included, overlays whatever
  // topology produced.
  sim::overlay_fields(r, *out);
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

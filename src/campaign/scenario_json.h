// ScenarioConfig <-> JSON: the declarative scenario format (DESIGN.md §17).
//
// A scenario file describes everything ScenarioConfig holds — topology
// (explicit node lists or a generator), traffic mixes, the SledZig plan,
// impairments, fault plans, invariant and control knobs — and
// round-trips losslessly: scenario_to_json(cfg) parsed back yields a
// config whose run_scenario digest is bit-identical to the original
// (asserted for the flagship scenarios and for every cell of every shipped
// campaign in tests/campaign_test.cc).
//
// The keys are not spelled here: the writer and the reader walk the field
// lists of sim/scenario_fields.h, the same lists ScenarioConfig::validate()
// checks ranges over, so a field is named once and cannot be serialised
// without a declared range.
//
// Error reporting is structural and total: scenario_from_json returns
// *every* problem found as a ConfigError with a dotted field path
// ("wifi[2].traffic.kind: ..."), and appends ScenarioConfig::validate()'s
// findings when the parse itself succeeds — one call reports both
// malformed JSON fields and configs the engine would reject, at most one
// error per field path.
//
// Every key is optional and defaults to the engine's defaults, so a file
// holding only what differs from a stock scenario stays small.  Unknown
// keys are errors (a typo must never silently fall back to a default).
//
// Topology generators: instead of explicit "wifi"/"zigbee" lists a file
// may carry a "topology" object —
//
//   {"generator": "two_node", "wifi_duty_ratio": 0.5,
//    "d_wz_m": 4.0, "d_z_m": 1.0}
//   {"generator": "campus", "ap_grid_x": 4, "ap_grid_y": 4,
//    "sensors_per_ap": 6, "spacing_m": 20.0}
//   {"generator": "control_ab", "controlled": true}
//
// which expand through two_node_paper_scenario / campus_scenario /
// control_ab_scenario using the file's sledzig/duration/seed fields, after
// which the remaining top-level keys are applied on top.  Generator form
// and explicit lists are mutually exclusive.
#pragma once

#include <string>
#include <vector>

#include "campaign/json.h"
#include "sim/scenario.h"

namespace sledzig::campaign {

/// Serializes every engine-relevant field (the metrics sink and the link
/// cache are runtime wiring, not scenario identity, and are omitted).
/// Output is canonical: equal configs produce equal JSON.
JsonValue scenario_to_json(const sim::ScenarioConfig& config);

/// Parses `json` into `*out` (starting from engine defaults).  Appends all
/// findings to `*errors` — field-path parse errors first, then
/// ScenarioConfig::validate() findings when the parse succeeded.  Returns
/// true when `*errors` gained nothing, in which case `*out` is runnable.
bool scenario_from_json(const JsonValue& json, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors);

/// Convenience: parse text, then scenario_from_json.  Syntax errors are
/// reported with field "<json>" and the parser's line:column message.
bool scenario_from_text(const std::string& text, sim::ScenarioConfig* out,
                        std::vector<sim::ConfigError>* errors);

// Enum name helpers shared with the spec/grid layer (axis values may be
// enum strings).  from_* return false on an unknown name.
std::string traffic_kind_name(sim::TrafficKind kind);
bool traffic_kind_from_name(const std::string& name, sim::TrafficKind* out);
std::string fault_kind_name(sim::FaultKind kind);
bool fault_kind_from_name(const std::string& name, sim::FaultKind* out);

}  // namespace sledzig::campaign

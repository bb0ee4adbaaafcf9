// Campaign specs: scenario × parameter grid × replications (DESIGN.md §17).
//
// A campaign file names a base scenario, a parameter grid (each axis a
// dotted scenario path plus a value list), and a replication count:
//
//   {
//     "name": "fig16_sweep",
//     "seed": 7,
//     "replications": 8,
//     "scenario": { ...scenario JSON (scenario_json.h)... },
//     "grid": [
//       {"path": "sledzig_enabled", "values": [false, true]},
//       {"path": "wifi[0].traffic.duty_ratio", "values": [0.2, 0.5, 0.8]}
//     ]
//   }
//
// The grid expands to the cross product of its axes (last axis fastest),
// giving `cell_count()` cells; each (cell, rep) pair is one work item.
// The work-item seed is derive_seed(spec.seed, kCampaign, cell, rep) — a
// pure function of the index path — so any sharding, thread count, or
// resume order reproduces the same streams (common/parallel.h contract).
//
// `campaign_hash()` is the FNV-1a of the spec's canonical JSON: the key
// every result-store record carries, so a store can never silently mix
// results from two different campaigns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "campaign/scenario_json.h"
#include "sim/scenario.h"

namespace sledzig::campaign {

/// One grid dimension: a dotted path into the scenario JSON and the values
/// it sweeps over.  Paths use the scenario_from_json field syntax
/// ("wifi[0].traffic.interval_us"); intermediate objects are created on
/// demand, array indices must already exist.
struct GridAxis {
  std::string path;
  JsonArray values;
};

struct CampaignSpec {
  std::string name;
  std::uint64_t seed = 1;           ///< master seed for every work item
  std::size_t replications = 1;
  JsonValue scenario;               ///< base scenario JSON (object)
  std::vector<GridAxis> axes;

  /// Canonical JSON — the round trip spec -> json -> spec is lossless, and
  /// campaign_hash is computed over these bytes.
  JsonValue to_json() const;
};

/// Parses a campaign object.  Field-path errors (prefix "campaign.") plus
/// a full scenario_from_json check of the base scenario are appended to
/// `*errors`; returns true when nothing was added.
bool campaign_from_json(const JsonValue& json, CampaignSpec* out,
                        std::vector<sim::ConfigError>* errors);

/// Parse text, then campaign_from_json.  Syntax errors get field "<json>".
bool campaign_from_text(const std::string& text, CampaignSpec* out,
                        std::vector<sim::ConfigError>* errors);

/// FNV-1a of the spec's canonical JSON: the identity key stamped on every
/// result-store record.
std::uint64_t campaign_hash(const CampaignSpec& spec);

/// Product of axis lengths (1 for an empty grid; 0 if any axis is empty).
std::size_t cell_count(const CampaignSpec& spec);

/// Canonical "path=value;path=value" label for a cell (matches the axis
/// order; values print in canonical JSON form).  Empty for a gridless
/// campaign's single cell.
std::string cell_label(const CampaignSpec& spec, std::size_t cell);

/// The cell's scenario JSON: the base scenario with this cell's axis
/// values written through their paths.  `cell` must be < cell_count().
/// Returns false (with errors) when an axis path cannot be applied.
bool cell_scenario_json(const CampaignSpec& spec, std::size_t cell,
                        JsonValue* out, std::vector<sim::ConfigError>* errors);

/// Fully resolved config for one work item: cell scenario parsed through
/// scenario_from_json, then the seed replaced by the index-derived
/// derive_seed(spec.seed, kCampaign, cell, rep).
bool cell_scenario(const CampaignSpec& spec, std::size_t cell, std::size_t rep,
                   sim::ScenarioConfig* out,
                   std::vector<sim::ConfigError>* errors);

/// Writes `value` at `path` ("a.b[2].c") inside `root`.  Missing object
/// keys are created in order; an out-of-range array index or a type
/// mismatch mid-path is an error.  Shared with the grid expander and the
/// CLI's --set overrides.
bool json_set_path(JsonValue* root, const std::string& path, JsonValue value,
                   std::string* error);

}  // namespace sledzig::campaign

// Campaign layer suite (DESIGN.md §17): the JSON substrate, the scenario
// round trip, campaign grids, the result store, and the runner's headline
// promise — one digest for any sharding, threading, or resume history.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/json.h"
#include "campaign/result_store.h"
#include "campaign/runner.h"
#include "campaign/scenario_json.h"
#include "campaign/spec.h"
#include "common/parallel.h"
#include "common/seed_domains.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/scenario_fields.h"

namespace sledzig {
namespace {

using campaign::CampaignSpec;
using campaign::JsonArray;
using campaign::JsonObject;
using campaign::JsonParseError;
using campaign::JsonValue;
using campaign::ResultRecord;
using campaign::ResultStoreWriter;
using campaign::RunnerOptions;
using campaign::RunnerReport;
using campaign::ScanResult;
using sim::ConfigError;
using sim::ScenarioConfig;

// ---- helpers -------------------------------------------------------------

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  JsonParseError err;
  EXPECT_TRUE(campaign::json_parse(text, &v, &err)) << err.to_string();
  return v;
}

JsonParseError parse_fail(const std::string& text) {
  JsonValue v;
  JsonParseError err;
  EXPECT_FALSE(campaign::json_parse(text, &v, &err)) << text;
  return err;
}

bool has_error_field(const std::vector<ConfigError>& errors,
                     const std::string& field) {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const ConfigError& e) { return e.field == field; });
}

std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir() + "sledzig_" +
                     info->test_suite_name() + "_" + info->name() + "_" + name;
  std::remove(path.c_str());
  return path;
}

/// A fault-heavy two-node config: timed crash window, a random-burst
/// jammer, Poisson crash/mute processes, and clock defects on both ends.
ScenarioConfig chaos_scenario() {
  ScenarioConfig cfg = sim::two_node_paper_scenario(
      core::SledzigConfig{}, /*sledzig_on=*/true, /*wifi_duty_ratio=*/0.5,
      /*d_wz_m=*/4.0, /*d_z_m=*/1.0, /*duration_s=*/0.3, /*seed=*/11);
  sim::TimedFault crash;
  crash.kind = sim::FaultKind::kCrash;
  crash.node = 1;
  crash.at_us = 40000.0;
  crash.duration_us = 60000.0;
  cfg.faults.timed.push_back(crash);
  sim::JammerConfig jammer;
  jammer.pos = {5.0, 5.0};
  jammer.usrp_gain = 12.0;
  jammer.mean_on_us = 3000.0;
  jammer.mean_off_us = 20000.0;
  cfg.faults.jammers.push_back(jammer);
  cfg.faults.random.crash_rate_per_s = 2.0;
  cfg.faults.random.mute_rate_per_s = 3.0;
  cfg.faults.clocks = {{12.5, 40.0}, {-3.0, -80.0}};
  return cfg;
}

/// to_json -> from_json must hand back a config whose run digests
/// bit-identically to the original's.
void expect_roundtrip_digest(const ScenarioConfig& cfg) {
  const JsonValue json = campaign::scenario_to_json(cfg);
  ScenarioConfig back;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::scenario_from_json(json, &back, &errors))
      << sim::describe(errors);
  // Canonical serialization is a fixed point: re-serializing the parsed
  // config reproduces the bytes the hash and store records are built on.
  EXPECT_EQ(campaign::json_dump(json),
            campaign::json_dump(campaign::scenario_to_json(back)));
  const sim::SimResult a = sim::run_scenario(cfg);
  const sim::SimResult b = sim::run_scenario(back);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// ---- JSON value / parser / writer ----------------------------------------

TEST(CampaignJson, ParseDumpRoundTrip) {
  const std::string text =
      R"({"name":"x","on":true,"off":false,"none":null,)"
      R"("n":42,"f":0.25,"neg":-17,"arr":[1,[2,3],{"k":"v"}],)"
      R"("obj":{"zeta":1,"alpha":2}})";
  const JsonValue v = parse_ok(text);
  EXPECT_EQ(campaign::json_dump(v), text);  // insertion order preserved
  EXPECT_EQ(parse_ok(campaign::json_dump(v, 2)), v);  // pretty form too
}

TEST(CampaignJson, NumbersSurviveRoundTrip) {
  for (const double d : {0.0, 1.0, -1.0, 0.1, 1e-9, 6346.0, 2.4e9,
                         1234567890123456.0, 0.015625, 1.0 / 3.0}) {
    const std::string dumped = campaign::json_dump(JsonValue(d));
    const JsonValue back = parse_ok(dumped);
    ASSERT_TRUE(back.is_number()) << dumped;
    EXPECT_EQ(back.as_number(), d) << dumped;
  }
  EXPECT_EQ(campaign::json_dump(JsonValue(42)), "42");
  EXPECT_EQ(campaign::json_dump(JsonValue(-7)), "-7");
}

TEST(CampaignJson, ErrorsCarryPosition) {
  const JsonParseError dup = parse_fail("{\"a\":1,\n\"a\":2}");
  EXPECT_EQ(dup.line, 2u);
  EXPECT_NE(dup.message.find("duplicate"), std::string::npos) << dup.message;

  const JsonParseError trail = parse_fail("{} x");
  EXPECT_NE(trail.message.find("trailing"), std::string::npos)
      << trail.message;

  parse_fail("{\"a\":1");           // truncated
  parse_fail("[1,]");               // trailing comma
  parse_fail("");                   // empty input

  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  const JsonParseError depth = parse_fail(deep);
  EXPECT_NE(depth.message.find("nesting"), std::string::npos)
      << depth.message;
}

TEST(CampaignJson, UnicodeEscapesDecodeToUtf8) {
  // BMP code points, case-insensitive hex digits.
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xC3\xA9");    // é
  EXPECT_EQ(parse_ok("\"\\u20AC\"").as_string(), "\xE2\x82\xAC");  // €
  EXPECT_EQ(parse_ok("\"\\u0000\"").as_string(), std::string(1, '\0'));
  // Surrogate pair -> one supplementary code point (U+1F600).
  EXPECT_EQ(parse_ok("\"\\uD83D\\uDE00\"").as_string(),
            "\xF0\x9F\x98\x80");
  // Escapes compose with ordinary text and other escapes.
  EXPECT_EQ(parse_ok("\"x\\u0041\\n\"").as_string(), "xA\n");

  // Lone surrogates are parse errors, with position pointing at the
  // escape's backslash.
  const JsonParseError lone_low = parse_fail("\"\\uDC00\"");
  EXPECT_NE(lone_low.message.find("surrogate"), std::string::npos)
      << lone_low.message;
  EXPECT_EQ(lone_low.line, 1u);
  EXPECT_EQ(lone_low.column, 2u);
  const JsonParseError lone_high = parse_fail("\"\\uD83Dx\"");
  EXPECT_NE(lone_high.message.find("surrogate"), std::string::npos)
      << lone_high.message;
  parse_fail("\"\\uD83D\\u0041\"");  // high surrogate + non-low escape
  parse_fail("\"\\u12\"");           // too few hex digits
  parse_fail("\"\\uZZZZ\"");         // non-hex digits

  // The writer stays canonical: decoded UTF-8 round-trips raw (no \u
  // re-escaping), so dumps and store digests are byte-stable.
  const JsonValue v = parse_ok("\"\\u00e9\\uD83D\\uDE00\"");
  const std::string dumped = campaign::json_dump(v);
  EXPECT_EQ(dumped, "\"\xC3\xA9\xF0\x9F\x98\x80\"");
  EXPECT_EQ(parse_ok(dumped), v);
}

TEST(CampaignJson, FindSetAndEquality) {
  JsonValue v = parse_ok(R"({"a":1})");
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("b"), nullptr);
  v.set("b", JsonValue("two"));
  v.set("a", JsonValue(3));
  EXPECT_EQ(campaign::json_dump(v), R"({"a":3,"b":"two"})");
  EXPECT_EQ(v, parse_ok(R"({"a":3,"b":"two"})"));
  EXPECT_NE(v, parse_ok(R"({"b":"two","a":3})"));  // order is identity
}

TEST(CampaignJson, FnvIsStableOverEqualValues) {
  const JsonValue a = parse_ok(R"({"x":[1,2,{"y":true}]})");
  const JsonValue b = parse_ok(R"({ "x" : [ 1 , 2 , { "y" : true } ] })");
  EXPECT_EQ(campaign::json_fnv1a(a), campaign::json_fnv1a(b));
  EXPECT_NE(campaign::json_fnv1a(a),
            campaign::json_fnv1a(parse_ok(R"({"x":[1,2,{"y":false}]})")));
}

TEST(CampaignJson, Hex64RoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefcafef00dull},
        std::uint64_t{0xffffffffffffffffull}}) {
    const std::string text = campaign::hex64(v);
    EXPECT_EQ(text.size(), 16u);
    std::uint64_t back = 0;
    ASSERT_TRUE(campaign::parse_hex64(text, &back));
    EXPECT_EQ(back, v);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(campaign::parse_hex64("xyz", &out));
  EXPECT_FALSE(campaign::parse_hex64("0123", &out));  // wrong width
}

// ---- scenario round trip -------------------------------------------------

TEST(CampaignScenario, TwoNodeRoundTripDigest) {
  expect_roundtrip_digest(sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.3, 7));
}

TEST(CampaignScenario, TwoNodeSledzigOffRoundTripDigest) {
  expect_roundtrip_digest(sim::two_node_paper_scenario(
      core::SledzigConfig{}, false, 0.8, 2.0, 1.0, 0.3, 7));
}

TEST(CampaignScenario, CampusRoundTripDigest) {
  expect_roundtrip_digest(sim::campus_scenario(2, 2, 2, 20.0, 0.05, 5));
}

TEST(CampaignScenario, ChaosFaultPlanRoundTripDigest) {
  expect_roundtrip_digest(chaos_scenario());
}

TEST(CampaignScenario, NonDefaultKnobsRoundTrip) {
  ScenarioConfig cfg = sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.2, 3);
  cfg.impairment.cfo = true;
  cfg.impairment.cfo_hz = 11000.0;
  cfg.queue_capacity = 16;
  cfg.wifi_capture_sinr_db = common::Db{8.0};
  cfg.invariants.enabled = true;
  cfg.zigbee[0].traffic.kind = sim::TrafficKind::kPoisson;
  cfg.zigbee[0].traffic.interval_us = 9000.0;
  expect_roundtrip_digest(cfg);
}

TEST(CampaignScenario, TopologyGeneratorMatchesFactory) {
  // The two_node generator form must reproduce the factory bit-exactly.
  const std::string text = R"({
    "duration_s": 0.3, "seed": 7, "sledzig_enabled": true,
    "topology": {"generator": "two_node", "wifi_duty_ratio": 0.5,
                 "d_wz_m": 4.0, "d_z_m": 1.0}
  })";
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::scenario_from_text(text, &cfg, &errors))
      << sim::describe(errors);
  const ScenarioConfig factory = sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.3, 7);
  EXPECT_EQ(sim::run_scenario(cfg).trace_digest,
            sim::run_scenario(factory).trace_digest);
}

TEST(CampaignScenario, ControlAbGeneratorMatchesFactoryAndOverlays) {
  const std::string text = R"({
    "duration_s": 0.3, "seed": 9,
    "topology": {"generator": "control_ab", "controlled": true}
  })";
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::scenario_from_text(text, &cfg, &errors))
      << sim::describe(errors);
  EXPECT_EQ(cfg.wifi.size(), 2u);
  EXPECT_EQ(cfg.zigbee.size(), 4u);
  EXPECT_TRUE(cfg.control.enabled);
  EXPECT_TRUE(cfg.control.hop.enabled);
  const ScenarioConfig factory = sim::control_ab_scenario(true, 0.3, 9);
  EXPECT_EQ(sim::run_scenario(cfg).trace_digest,
            sim::run_scenario(factory).trace_digest);

  // The file's own control section overlays whatever the generator armed.
  const std::string tuned = R"({
    "duration_s": 0.3, "seed": 9,
    "topology": {"generator": "control_ab", "controlled": true},
    "control": {"epoch_us": 50000.0, "hop": {"min_prr": 0.8}}
  })";
  ScenarioConfig over;
  errors.clear();
  ASSERT_TRUE(campaign::scenario_from_text(tuned, &over, &errors))
      << sim::describe(errors);
  EXPECT_EQ(over.control.epoch_us, 50000.0);
  EXPECT_EQ(over.control.hop.min_prr, 0.8);
  EXPECT_TRUE(over.control.sledzig.enabled);  // generator setting survives
}

TEST(CampaignScenario, MalformedInputsReportFieldPaths) {
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;

  // Unknown key: the typo's own path.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"durration_s": 1.0})", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "durration_s")) << sim::describe(errors);

  // Wrong type.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"duration_s": "long"})", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "duration_s")) << sim::describe(errors);

  // Bad enum value, nested in a node list.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"zigbee": [{"traffic": {"kind": "bursty"}}]})", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "zigbee[0].traffic.kind"))
      << sim::describe(errors);

  // Generator form and explicit lists are mutually exclusive.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"topology": {"generator": "two_node"}, "wifi": []})", &cfg,
      &errors));
  EXPECT_TRUE(has_error_field(errors, "topology")) << sim::describe(errors);

  // Syntax errors surface under the "<json>" pseudo-field.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text("{", &cfg, &errors));
  EXPECT_TRUE(has_error_field(errors, "<json>")) << sim::describe(errors);

  // A clean parse still runs validate(): semantic findings share the call.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"topology": {"generator": "two_node"}, "duration_s": -1.0})", &cfg,
      &errors));
  EXPECT_TRUE(has_error_field(errors, "duration_s")) << sim::describe(errors);

  // Every problem is reported, not just the first.
  errors.clear();
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"durration_s": 1.0, "seeed": 2})", &cfg, &errors));
  EXPECT_GE(errors.size(), 2u) << sim::describe(errors);
}

TEST(CampaignScenario, RetiredPruneFloorKeyIsUnknown) {
  // The prune floor is a fixed 30 dB, not a knob, and the section that
  // once held it is gone too, so the error lands on the section.  Spelled
  // in two pieces for the same reason as the retired MAC keys below.
  const std::string key = std::string("prune_floor") + "_db";
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;
  EXPECT_FALSE(campaign::scenario_from_text(
      "{\"fastpath\": {\"" + key + "\": 0.0}}", &cfg, &errors));
  ASSERT_EQ(errors.size(), 1u) << sim::describe(errors);
  EXPECT_EQ(errors[0].field, "fastpath");
  EXPECT_EQ(errors[0].message, "unknown key");
}

TEST(CampaignScenario, RetiredFastPathSectionIsUnknown) {
  // Segment-run delivery and pruning are what the engine does, not
  // switches, so none of the section's three old keys parses any more.
  for (const char* key : {"segment_runs", "prune", "cross_check"}) {
    SCOPED_TRACE(key);
    ScenarioConfig cfg;
    std::vector<ConfigError> errors;
    EXPECT_FALSE(campaign::scenario_from_text(
        std::string("{\"fastpath\": {\"") + key + "\": false}}", &cfg,
        &errors));
    ASSERT_EQ(errors.size(), 1u) << sim::describe(errors);
    EXPECT_EQ(errors[0].field, "fastpath");
    EXPECT_EQ(errors[0].message, "unknown key");
  }
}

TEST(CampaignScenario, RetiredEventGapWatchdogIsUnknown) {
  // A wedged node is caught by the end-of-run liveness check, so the
  // invariants section keeps only its switch.
  ScenarioConfig cfg;
  std::vector<ConfigError> errors;
  EXPECT_FALSE(campaign::scenario_from_text(
      R"({"invariants": {"enabled": true, "max_event_gap_us": 1e6}})", &cfg,
      &errors));
  ASSERT_EQ(errors.size(), 1u) << sim::describe(errors);
  EXPECT_EQ(errors[0].field, "invariants.max_event_gap_us");
  EXPECT_EQ(errors[0].message, "unknown key");
}

TEST(CampaignScenario, RetiredMacKeysAreUnknown) {
  // WiFi load is a traffic property (wifi[i].traffic.duty_ratio), and the
  // engine never modelled a ZigBee host-processing delay, so neither old
  // MAC key parses any more: each is an unknown key at its dotted path.
  // The ZigBee key is spelled in two pieces so that searching the tree for
  // the retired field finds no live use of it.
  const std::pair<std::string, std::string> retired[] = {
      {"wifi", "duty_ratio"}, {"zigbee", std::string("processing") + "_us"}};
  for (const auto& [node, key] : retired) {
    ScenarioConfig cfg;
    std::vector<ConfigError> errors;
    EXPECT_FALSE(campaign::scenario_from_text(
        "{\"" + node + "\": [{\"mac\": {\"" + key + "\": 0.5}}]}", &cfg,
        &errors));
    const std::string field = node + "[0].mac." + key;
    ASSERT_TRUE(has_error_field(errors, field)) << sim::describe(errors);
    for (const auto& e : errors) {
      if (e.field == field) {
        EXPECT_EQ(e.message, "unknown key");
      }
    }
  }
}

// ---- campaign spec and grid ----------------------------------------------

const char kCampaignText[] = R"({
  "name": "grid_smoke",
  "seed": 7,
  "replications": 2,
  "scenario": {
    "duration_s": 0.2,
    "topology": {"generator": "two_node", "wifi_duty_ratio": 0.5,
                 "d_wz_m": 4.0, "d_z_m": 1.0}
  },
  "grid": [
    {"path": "sledzig_enabled", "values": [false, true]},
    {"path": "topology.wifi_duty_ratio", "values": [0.2, 0.5, 0.8]}
  ]
})";

TEST(CampaignSpec, GridExpansion) {
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::campaign_from_text(kCampaignText, &spec, &errors))
      << sim::describe(errors);
  EXPECT_EQ(spec.name, "grid_smoke");
  EXPECT_EQ(campaign::cell_count(spec), 6u);
  // Row-major, last axis fastest.
  EXPECT_EQ(campaign::cell_label(spec, 0),
            "sledzig_enabled=false;topology.wifi_duty_ratio=0.2");
  EXPECT_EQ(campaign::cell_label(spec, 4),
            "sledzig_enabled=true;topology.wifi_duty_ratio=0.5");

  // The cell scenario carries the axis values and the index-derived seed.
  ScenarioConfig cfg;
  ASSERT_TRUE(campaign::cell_scenario(spec, 4, 1, &cfg, &errors))
      << sim::describe(errors);
  EXPECT_TRUE(cfg.sledzig_enabled);
  EXPECT_DOUBLE_EQ(cfg.wifi[0].traffic.duty_ratio, 0.5);
  EXPECT_EQ(cfg.seed, common::derive_seed(
                          7, common::seed_domain::kCampaign, 4, 1));
}

TEST(CampaignSpec, HashCoversEverySpecField) {
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::campaign_from_text(kCampaignText, &spec, &errors));
  const std::uint64_t h = campaign::campaign_hash(spec);
  CampaignSpec other = spec;
  other.replications = 3;
  EXPECT_NE(campaign::campaign_hash(other), h);
  other = spec;
  other.seed = 8;
  EXPECT_NE(campaign::campaign_hash(other), h);
  other = spec;
  other.axes[0].values.pop_back();
  EXPECT_NE(campaign::campaign_hash(other), h);
  EXPECT_EQ(campaign::campaign_hash(spec), h);  // and it is stable
}

TEST(CampaignSpec, LoadErrorsReportFieldPaths) {
  CampaignSpec spec;
  std::vector<ConfigError> errors;

  // The scenario is mandatory.
  EXPECT_FALSE(campaign::campaign_from_text(R"({"name":"x"})", &spec,
                                            &errors));
  EXPECT_TRUE(has_error_field(errors, "campaign.scenario"))
      << sim::describe(errors);

  // A broken base scenario fails at load, with its own field path.
  errors.clear();
  EXPECT_FALSE(campaign::campaign_from_text(
      R"({"scenario": {"durration_s": 1.0}})", &spec, &errors));
  EXPECT_TRUE(has_error_field(errors, "durration_s")) << sim::describe(errors);

  // Grid axes validate path and values.
  errors.clear();
  EXPECT_FALSE(campaign::campaign_from_text(
      R"({"scenario": {"topology": {"generator": "two_node"}},
          "grid": [{"path": "", "values": [1]}, {"values": [2]}]})",
      &spec, &errors));
  EXPECT_TRUE(has_error_field(errors, "campaign.grid[0].path"))
      << sim::describe(errors);
  EXPECT_TRUE(has_error_field(errors, "campaign.grid[1].path"))
      << sim::describe(errors);

  errors.clear();
  EXPECT_FALSE(campaign::campaign_from_text(
      R"({"scenario": {"topology": {"generator": "two_node"}},
          "replications": 0})",
      &spec, &errors));
  EXPECT_TRUE(has_error_field(errors, "campaign.replications"))
      << sim::describe(errors);
}

TEST(CampaignSpec, JsonSetPath) {
  JsonValue root = parse_ok(R"({"arr": [{"k": 1}]})");
  std::string err;

  // Missing object keys are created in order.
  ASSERT_TRUE(campaign::json_set_path(&root, "a.b.c", JsonValue(5), &err))
      << err;
  EXPECT_EQ(campaign::json_dump(root),
            R"({"arr":[{"k":1}],"a":{"b":{"c":5}}})");

  // Existing array elements are reachable.
  ASSERT_TRUE(campaign::json_set_path(&root, "arr[0].k", JsonValue(2), &err))
      << err;
  EXPECT_EQ(root.find("arr")->as_array()[0].find("k")->as_number(), 2.0);

  // Out-of-range indices and type mismatches are errors, not silent grows.
  EXPECT_FALSE(campaign::json_set_path(&root, "arr[5].k", JsonValue(1), &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  EXPECT_FALSE(campaign::json_set_path(&root, "a.b.c.d", JsonValue(1), &err));
  EXPECT_FALSE(campaign::json_set_path(&root, "a..b", JsonValue(1), &err));
  EXPECT_FALSE(campaign::json_set_path(&root, "a[x]", JsonValue(1), &err));
}

// ---- result store --------------------------------------------------------

ResultRecord make_record(std::uint64_t campaign_id, std::uint64_t cell,
                         std::uint64_t rep, double metric) {
  ResultRecord r;
  r.campaign = campaign_id;
  r.cell = cell;
  r.rep = rep;
  r.metrics = JsonValue(JsonObject{{"m", JsonValue(metric)}});
  return r;
}

TEST(CampaignStore, RecordLineRoundTrip) {
  const ResultRecord r = make_record(0xabcdef0123456789ull, 3, 1, 0.5);
  const std::string line = campaign::record_to_line(r);
  ResultRecord back;
  ASSERT_TRUE(campaign::record_from_line(line, &back)) << line;
  EXPECT_EQ(back.campaign, r.campaign);
  EXPECT_EQ(back.cell, 3u);
  EXPECT_EQ(back.rep, 1u);
  EXPECT_EQ(back.metrics, r.metrics);

  ResultRecord dummy;
  EXPECT_FALSE(campaign::record_from_line("{\"cell\":1}", &dummy));
  EXPECT_FALSE(campaign::record_from_line("not json", &dummy));
  EXPECT_FALSE(campaign::record_from_line(line.substr(0, 20), &dummy));
}

TEST(CampaignStore, WriteScanAndFilterForeign) {
  const std::string path = temp_path("store.jsonl");
  const std::uint64_t ours = 0x1111111111111111ull;
  const std::uint64_t theirs = 0x2222222222222222ull;
  {
    ResultStoreWriter writer(path);
    std::string err;
    ASSERT_TRUE(writer.open(&err)) << err;
    ASSERT_TRUE(writer.append(make_record(ours, 0, 0, 1.0), &err)) << err;
    ASSERT_TRUE(writer.append(make_record(theirs, 0, 0, 9.0), &err)) << err;
    ASSERT_TRUE(writer.append(make_record(ours, 1, 0, 2.0), &err)) << err;
  }
  ScanResult scan;
  std::string err;
  ASSERT_TRUE(campaign::scan_store(path, ours, &scan, &err)) << err;
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.foreign, 1u);
  EXPECT_EQ(scan.dropped_partial, 0u);

  // A missing file is an empty (fresh) store, not an error.
  ScanResult fresh;
  ASSERT_TRUE(campaign::scan_store(temp_path("absent.jsonl"), ours, &fresh,
                                   &err))
      << err;
  EXPECT_TRUE(fresh.records.empty());
}

TEST(CampaignStore, TruncatedTailToleratedInteriorCorruptionNot) {
  const std::string path = temp_path("torn.jsonl");
  const std::uint64_t id = 0x3333333333333333ull;
  {
    std::ofstream out(path, std::ios::binary);
    out << campaign::record_to_line(make_record(id, 0, 0, 1.0)) << "\n";
    out << campaign::record_to_line(make_record(id, 1, 0, 2.0)) << "\n";
    // The SIGKILL signature: a final line cut mid-record.
    const std::string torn = campaign::record_to_line(make_record(id, 2, 0,
                                                                  3.0));
    out << torn.substr(0, torn.size() / 2);
  }
  ScanResult scan;
  std::string err;
  ASSERT_TRUE(campaign::scan_store(path, id, &scan, &err)) << err;
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.dropped_partial, 1u);

  // The same tear in the middle of the file means the store is corrupt.
  const std::string bad = temp_path("corrupt.jsonl");
  {
    std::ofstream out(bad, std::ios::binary);
    out << "garbage\n";
    out << campaign::record_to_line(make_record(id, 0, 0, 1.0)) << "\n";
  }
  EXPECT_FALSE(campaign::scan_store(bad, id, &scan, &err));
  EXPECT_FALSE(err.empty());
}

TEST(CampaignStore, DigestIgnoresOrderAndDuplicates) {
  const std::uint64_t id = 0x4444444444444444ull;
  std::vector<ResultRecord> a = {make_record(id, 0, 0, 1.0),
                                 make_record(id, 0, 1, 2.0),
                                 make_record(id, 1, 0, 3.0)};
  std::vector<ResultRecord> b = {a[2], a[0], a[1]};  // permuted
  std::vector<ResultRecord> c = a;
  c.push_back(make_record(id, 1, 0, 99.0));  // late duplicate: first wins
  const std::uint64_t digest = campaign::store_digest(id, a);
  EXPECT_EQ(campaign::store_digest(id, b), digest);
  EXPECT_EQ(campaign::store_digest(id, c), digest);
  // But different content or identity means a different digest.
  std::vector<ResultRecord> d = {a[0], a[1], make_record(id, 1, 0, 4.0)};
  EXPECT_NE(campaign::store_digest(id, d), digest);
  EXPECT_NE(campaign::store_digest(id ^ 1, a), digest);
}

// ---- runner: shard / thread / resume invariance --------------------------

CampaignSpec small_campaign() {
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  EXPECT_TRUE(campaign::campaign_from_text(R"({
    "name": "invariance",
    "seed": 5,
    "replications": 2,
    "scenario": {
      "duration_s": 0.1,
      "topology": {"generator": "two_node", "wifi_duty_ratio": 0.5,
                   "d_wz_m": 4.0, "d_z_m": 1.0}
    },
    "grid": [{"path": "sledzig_enabled", "values": [false, true]}]
  })",
                                           &spec, &errors))
      << sim::describe(errors);
  return spec;
}

TEST(CampaignRunner, ShardAndThreadCountNeverChangeTheDigest) {
  const CampaignSpec spec = small_campaign();
  std::vector<ConfigError> errors;

  // One shard, many threads.
  RunnerOptions one;
  one.store_path = temp_path("one.jsonl");
  one.threads = 4;
  RunnerReport ref;
  ASSERT_TRUE(campaign::run_campaign(spec, one, &ref, &errors))
      << sim::describe(errors);
  EXPECT_TRUE(ref.complete);
  EXPECT_EQ(ref.items_total, 4u);
  EXPECT_EQ(ref.items_run, 4u);

  // Three shards, one thread each, run out of order.
  RunnerOptions sharded;
  sharded.store_path = temp_path("sharded.jsonl");
  sharded.threads = 1;
  sharded.shard_count = 3;
  RunnerReport last;
  for (const std::size_t shard : {2u, 0u, 1u}) {
    sharded.shard_index = shard;
    ASSERT_TRUE(campaign::run_campaign(spec, sharded, &last, &errors))
        << sim::describe(errors);
  }
  EXPECT_TRUE(last.complete);
  EXPECT_EQ(last.digest, ref.digest);
}

TEST(CampaignRunner, ResumeSkipsStoredItemsAndMatchesCleanRun) {
  const CampaignSpec spec = small_campaign();
  std::vector<ConfigError> errors;

  RunnerOptions clean;
  clean.store_path = temp_path("clean.jsonl");
  clean.threads = 2;
  RunnerReport ref;
  ASSERT_TRUE(campaign::run_campaign(spec, clean, &ref, &errors))
      << sim::describe(errors);

  // First pass: shard 0 of 2 only — half the campaign lands in the store.
  RunnerOptions partial;
  partial.store_path = temp_path("resumed.jsonl");
  partial.threads = 2;
  partial.shard_count = 2;
  RunnerReport first;
  ASSERT_TRUE(campaign::run_campaign(spec, partial, &first, &errors))
      << sim::describe(errors);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.items_run, 2u);

  // Simulate the tear a SIGKILL leaves, then resume over the whole range.
  {
    std::ofstream out(partial.store_path,
                      std::ios::binary | std::ios::app);
    out << "{\"campaign\":\"feed";  // truncated final line
  }
  RunnerOptions full = partial;
  full.shard_count = 1;
  full.shard_index = 0;
  RunnerReport second;
  ASSERT_TRUE(campaign::run_campaign(spec, full, &second, &errors))
      << sim::describe(errors);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.items_resumed, 2u);
  EXPECT_EQ(second.items_run, 2u);
  EXPECT_EQ(second.digest, ref.digest);
}

TEST(CampaignRunner, MetricsAreDeterministicJson) {
  const ScenarioConfig cfg = sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.1, 3);
  const JsonValue a = campaign::result_to_json(sim::run_scenario(cfg));
  const JsonValue b = campaign::result_to_json(sim::run_scenario(cfg));
  EXPECT_EQ(campaign::json_dump(a), campaign::json_dump(b));
  ASSERT_NE(a.find("wifi"), nullptr);
  ASSERT_NE(a.find("zigbee"), nullptr);
  ASSERT_NE(a.find("trace_digest"), nullptr);
  std::uint64_t digest = 0;
  EXPECT_TRUE(campaign::parse_hex64(a.find("trace_digest")->as_string(),
                                    &digest));
  EXPECT_EQ(digest, sim::run_scenario(cfg).trace_digest);
}

TEST(CampaignRunner, UnsupportedModeFailsBeforeAnyItemRuns) {
  // QAM-256 has no rate-1/2 mode.  The pre-resolve pass must reject the
  // cell with a structured error at sledzig.rate; before validate() knew
  // the rate table, the link-cache build threw mid-sweep and aborted the
  // process.
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::campaign_from_text(R"({
    "name": "bad_mode",
    "scenario": {
      "duration_s": 0.1,
      "topology": {"generator": "two_node"}
    },
    "grid": [{"path": "sledzig.modulation", "values": ["qam256"]}]
  })",
                                           &spec, &errors))
      << sim::describe(errors);
  RunnerOptions opts;
  opts.store_path = temp_path("bad_mode.jsonl");
  RunnerReport report;
  EXPECT_FALSE(campaign::run_campaign(spec, opts, &report, &errors));
  EXPECT_TRUE(has_error_field(errors, "sledzig.rate")) << sim::describe(errors);
  EXPECT_EQ(report.items_run, 0u);
}

TEST(CampaignRunner, ZeroContentionWindowFailsBeforeAnyItemRuns) {
  // cw = 0 used to throw from the WiFi machine inside a pool worker, which
  // escaped run_campaign and aborted the process with an empty store.
  // Pre-resolve now rejects the cell at its field path before the store
  // is opened.
  CampaignSpec spec;
  std::vector<ConfigError> errors;
  ASSERT_TRUE(campaign::campaign_from_text(R"({
    "name": "bad_cw",
    "scenario": {"duration_s": 0.1, "wifi": [{"rx": {"x_m": 1.0}}]},
    "grid": [{"path": "wifi[0].mac.cw", "values": [0]}]
  })",
                                           &spec, &errors))
      << sim::describe(errors);
  RunnerOptions opts;
  opts.store_path = temp_path("bad_cw.jsonl");
  RunnerReport report;
  EXPECT_FALSE(campaign::run_campaign(spec, opts, &report, &errors));
  EXPECT_TRUE(has_error_field(errors, "wifi[0].mac.cw"))
      << sim::describe(errors);
  EXPECT_EQ(report.items_run, 0u);
  EXPECT_FALSE(std::filesystem::exists(opts.store_path));
}

TEST(CampaignSpec, ShippedCampaignsResolveEveryCell) {
  // Every example campaign must load and every cell must pass
  // cell_scenario (which runs ScenarioConfig::validate()), so a shipped
  // file can never die mid-sweep on a config the engine rejects.
  const std::filesystem::path dir =
      std::filesystem::path(SLEDZIG_SOURCE_DIR) / "examples" / "campaigns";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << dir;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    CampaignSpec spec;
    std::vector<ConfigError> errors;
    ASSERT_TRUE(campaign::campaign_from_text(text.str(), &spec, &errors))
        << file << "\n" << sim::describe(errors);
    for (std::size_t cell = 0; cell < campaign::cell_count(spec); ++cell) {
      ScenarioConfig cfg;
      EXPECT_TRUE(campaign::cell_scenario(spec, cell, 0, &cfg, &errors))
          << file.filename() << " cell " << cell << " ("
          << campaign::cell_label(spec, cell) << ")\n"
          << sim::describe(errors);
      errors.clear();
    }
  }
}

TEST(CampaignRunner, PlansThatAbortOrStallFailBeforeAnyItemRuns) {
  // Each cell used to get past pre-resolve: the SledZig plans aborted the
  // process from a pool worker (SIGABRT, with a store file left behind) or
  // stalled their run, and the error models ran to exit 0 with ZigBee PRR
  // 0.  Each now fails at its field path before the store is opened.
  const std::pair<const char*, const char*> cases[] = {
      {"sledzig.scrambler_seed",
       R"({"path": "sledzig.scrambler_seed", "values": [0]})"},
      {"sledzig.scrambler_seed",
       R"({"path": "sledzig.scrambler_seed", "values": [128]})"},
      {"sledzig.forced_subcarriers",
       R"({"path": "sledzig.forced_subcarriers", "values": [49]})"},
      {"sledzig.window_offsets_hz",
       R"({"path": "sledzig", "values": [{"modulation": "qam64",
           "rate": "2/3", "width": "40mhz"}]})"},
      {"sledzig.window_bandwidth_hz",
       R"({"path": "sledzig", "values": [{"modulation": "qam64",
           "rate": "2/3", "window_offsets_hz": [3e6],
           "window_bandwidth_hz": -2e6}]})"},
      {"sledzig", R"({"path": "sledzig.forced_subcarriers", "values": [48]})"},
      {"sledzig",
       R"({"path": "sledzig", "values": [{"modulation": "qam64",
           "rate": "3/4", "forced_subcarriers": 46}]})"},
      {"sledzig.modulation",
       R"({"path": "sledzig", "values": [{"modulation": "bpsk",
           "rate": "1/2"}]})"},
      {"sledzig",
       R"({"path": "sledzig", "values": [{"modulation": "qam64",
           "rate": "2/3", "window_offsets_hz": [3e6],
           "window_bandwidth_hz": 20e6}]})"},
      {"error_model.payload_width_db",
       R"({"path": "error_model.payload_width_db", "values": [-0.8]})"},
      {"error_model.payload_width_db",
       R"({"path": "error_model.payload_width_db", "values": [0]})"},
      {"error_model.sensitivity_width_db",
       R"({"path": "error_model.sensitivity_width_db", "values": [-0.4]})"},
      {"error_model.preamble_max_error",
       R"({"path": "error_model.preamble_max_error", "values": [3.0]})"},
  };
  for (std::size_t k = 0; k < std::size(cases); ++k) {
    const auto& [field, axis] = cases[k];
    SCOPED_TRACE(axis);
    CampaignSpec spec;
    std::vector<ConfigError> errors;
    ASSERT_TRUE(campaign::campaign_from_text(
        std::string(R"({"name": "bad_plan", "scenario": {"duration_s": 0.2,)"
                    R"( "sledzig": {"modulation": "qam64", "rate": "2/3"},)"
                    R"( "topology": {"generator": "two_node"}}, "grid": [)") +
            axis + "]}",
        &spec, &errors))
        << sim::describe(errors);
    RunnerOptions opts;
    opts.store_path = temp_path("bad_plan_" + std::to_string(k) + ".jsonl");
    RunnerReport report;
    EXPECT_FALSE(campaign::run_campaign(spec, opts, &report, &errors));
    EXPECT_TRUE(has_error_field(errors, field)) << sim::describe(errors);
    EXPECT_EQ(report.items_run, 0u);
    EXPECT_FALSE(std::filesystem::exists(opts.store_path));
  }
}

TEST(CampaignSpec, ShippedCampaignCellsRoundTripToTheSameDigest) {
  // Every cell of every shipped campaign, the repository benchmark's
  // included, resolves, and its scenario_to_json -> scenario_from_json
  // round trip is a fixed point that runs to the same digest.  A work
  // item's derived seed uses all 64 bits, more than a JSON number carries
  // exactly, so the round trip runs on its top 52.
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"examples/campaigns", "perfbench/campaigns"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(SLEDZIG_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 5u);
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    CampaignSpec spec;
    std::vector<ConfigError> errors;
    ASSERT_TRUE(campaign::campaign_from_text(text.str(), &spec, &errors))
        << file << "\n" << sim::describe(errors);
    for (std::size_t cell = 0; cell < campaign::cell_count(spec); ++cell) {
      SCOPED_TRACE(file.filename().string() + " cell " + std::to_string(cell));
      ScenarioConfig cfg;
      ASSERT_TRUE(campaign::cell_scenario(spec, cell, 0, &cfg, &errors))
          << sim::describe(errors);
      cfg.seed >>= 12;
      expect_roundtrip_digest(cfg);
    }
  }
}

// ---- the field lists -----------------------------------------------------

/// One number in the field lists, found by walking a config.
struct NumberField {
  std::string path;
  sim::Range range;
  bool integer = false;
  double value = 0.0;
  std::function<void(double)> set;  ///< writes through to the config
};

/// Walks every field list from one config, recording each number and each
/// enum under its dotted path.
struct FieldRecorder {
  std::vector<NumberField> numbers;
  std::vector<std::string> enums;
  std::string prefix;

  template <class T, class Decl>
  void operator()(const char* key, T& x, const Decl& decl) {
    leaf(prefix + key, x, decl);
  }
  template <class T, class Decl>
  void operator()(const char* key, std::vector<T>& xs, const Decl& decl) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      leaf(prefix + key + "[" + std::to_string(i) + "]", xs[i], decl);
    }
  }
  void operator()(const char* /*key*/, bool& /*x*/) {}
  template <class S>
  void operator()(const char* key, S& s) {
    nest(prefix + key + ".", s);
  }
  template <class S>
  void operator()(const char* key, std::vector<S>& xs) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      nest(prefix + key + "[" + std::to_string(i) + "].", xs[i]);
    }
  }

  template <class S>
  void nest(std::string inner, S& s) {
    std::swap(prefix, inner);
    sim::fields(*this, s);
    std::swap(prefix, inner);
  }
  template <class T>
  void leaf(std::string path, T& x, const sim::Range& range) {
    numbers.push_back({std::move(path), range, std::is_integral_v<T>,
                       sim::number(x), [&x](double v) {
                         if constexpr (std::is_arithmetic_v<T>) {
                           x = static_cast<T>(v);
                         } else {
                           x = T{v};
                         }
                       }});
  }
  template <class Enum>
  void leaf(std::string path, Enum& /*x*/, sim::Names /*names*/) {
    enums.push_back(std::move(path));
  }
};

/// One of everything the field lists hold: a WiFi and a ZigBee node, a
/// timed surge, a jammer, a clock entry, explicit SledZig windows with an
/// extra channel, every random fault process and every control policy on.
ScenarioConfig full_scenario() {
  ScenarioConfig cfg = sim::two_node_paper_scenario(
      core::SledzigConfig{}, true, 0.5, 4.0, 1.0, 0.2, 3);
  cfg.sledzig.extra_channels = {core::OverlapChannel::kCh3};
  cfg.sledzig.window_offsets_hz = {3e6};
  sim::TimedFault surge;
  surge.kind = sim::FaultKind::kSurgeOn;
  surge.node = 1;
  surge.duration_us = 50000.0;
  cfg.faults.timed.push_back(surge);
  sim::JammerConfig jammer;
  jammer.mean_on_us = 3000.0;
  jammer.mean_off_us = 20000.0;
  cfg.faults.jammers.push_back(jammer);
  auto& random = cfg.faults.random;
  random.crash_rate_per_s = random.mute_rate_per_s = 1.0;
  random.deaf_rate_per_s = random.surge_rate_per_s = 1.0;
  cfg.faults.clocks = {{12.5, 40.0}};
  cfg.control.enabled = true;
  cfg.control.sledzig.enabled = true;
  cfg.control.hop.enabled = true;
  cfg.control.duty.enabled = true;
  return cfg;
}

TEST(ScenarioFields, EveryNumberDeclaresARangeItsDefaultMeets) {
  // No visitor accepts a number without a range, so a field declared
  // without one does not compile.  What is left to check at run time: each
  // range carries a message, holds the field's default (ranges apply
  // whatever the other fields say), and "any value" is declared only where
  // it is true of the type, on unsigned counters.
  ScenarioConfig cfg;
  cfg.wifi.resize(1);
  cfg.zigbee.resize(1);
  cfg.sledzig.extra_channels.resize(1);
  cfg.sledzig.window_offsets_hz.resize(1);
  cfg.faults.timed.resize(1);
  cfg.faults.jammers.resize(1);
  cfg.faults.clocks.resize(1);
  FieldRecorder walk;
  sim::fields(walk, cfg);
  EXPECT_GE(walk.numbers.size(), 90u);
  EXPECT_GE(walk.enums.size(), 8u);
  std::vector<std::string> paths = walk.enums;
  for (const auto& f : walk.numbers) {
    paths.push_back(f.path);
    ASSERT_NE(f.range.message, nullptr) << f.path;
    EXPECT_NE(std::string(f.range.message), "") << f.path;
    EXPECT_TRUE(f.range.contains(f.value)) << f.path << " = " << f.value;
    if (f.range.message == sim::kAnyCount.message) {
      EXPECT_TRUE(f.integer) << f.path << " is not a counter";
    }
  }
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(std::adjacent_find(paths.begin(), paths.end()), paths.end())
      << "a key is declared twice";
}

TEST(ScenarioFields, EachValueJustOutsideItsRangeIsOneErrorAtItsPath) {
  // The field lists are the scenario grammar: write one value just outside
  // one declared range into an otherwise valid scenario, and parsing must
  // report exactly that field, once, without throwing.  A value JSON cannot
  // spell (NaN, for ranges open at both ends) goes in through the struct.
  ScenarioConfig base = full_scenario();
  ASSERT_TRUE(base.validate().empty()) << sim::describe(base.validate());
  const JsonValue base_json = campaign::scenario_to_json(base);
  FieldRecorder walk;
  sim::fields(walk, base);
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t checked = 0;
  for (const auto& f : walk.numbers) {
    const auto& r = f.range;
    std::vector<double> outside;
    if (r.lo > -inf) {
      outside.push_back(f.integer ? r.lo - 1.0
                        : r.open_low ? r.lo
                                     : std::nextafter(r.lo, -inf));
    }
    if (r.hi < inf) {
      outside.push_back(f.integer ? r.hi + 1.0 : std::nextafter(r.hi, inf));
    }
    for (const double v : outside) {
      SCOPED_TRACE(f.path + " = " + std::to_string(v));
      JsonValue json = base_json;
      std::string error;
      ASSERT_TRUE(campaign::json_set_path(&json, f.path, JsonValue(v), &error))
          << error;
      ScenarioConfig cfg;
      std::vector<ConfigError> errors;
      EXPECT_NO_THROW(campaign::scenario_from_json(json, &cfg, &errors));
      ASSERT_EQ(errors.size(), 1u) << sim::describe(errors);
      EXPECT_EQ(errors[0].field, f.path);
      ++checked;
    }
    if (outside.empty()) {
      SCOPED_TRACE(f.path + " = NaN");
      f.set(std::numeric_limits<double>::quiet_NaN());
      const auto errors = base.validate();
      f.set(f.value);
      ASSERT_EQ(errors.size(), 1u) << sim::describe(errors);
      EXPECT_EQ(errors[0].field, f.path);
      ++checked;
    }
  }
  for (const auto& path : walk.enums) {
    SCOPED_TRACE(path);
    JsonValue json = base_json;
    std::string error;
    ASSERT_TRUE(campaign::json_set_path(&json, path, JsonValue("bogus"),
                                        &error))
        << error;
    ScenarioConfig cfg;
    std::vector<ConfigError> errors;
    EXPECT_NO_THROW(campaign::scenario_from_json(json, &cfg, &errors));
    ASSERT_EQ(errors.size(), 1u) << sim::describe(errors);
    EXPECT_EQ(errors[0].field, path);
  }
  EXPECT_GE(checked, walk.numbers.size());
}

TEST(CampaignRunner, RejectsBadShardArguments) {
  const CampaignSpec spec = small_campaign();
  std::vector<ConfigError> errors;
  RunnerOptions opts;
  opts.store_path = temp_path("bad.jsonl");
  opts.shard_count = 2;
  opts.shard_index = 2;  // out of range
  RunnerReport report;
  EXPECT_FALSE(campaign::run_campaign(spec, opts, &report, &errors));
  EXPECT_FALSE(errors.empty());
}

}  // namespace
}  // namespace sledzig

// One struct describes a full multi-node coexistence experiment: node
// placements, traffic loads, SledZig on/off, impairments, duration, seed.
//
// The engine (src/sim/engine.h) turns a ScenarioConfig into a timeline:
// every CCA verdict, deferral and packet overlap follows from the actual
// received power between the placed nodes, so the paper's headline effects
// (more ZigBee transmission opportunities, fewer corrupted packets under
// SledZig) emerge from the event sequence instead of closed-form loops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/impairments.h"
#include "channel/pathloss.h"
#include "common/units.h"
#include "control/controller.h"
#include "mac/wifi_csma.h"
#include "mac/zigbee_csma.h"
#include "obs/metrics.h"
#include "sim/invariants.h"
#include "sledzig/significant_bits.h"

namespace sledzig::sim {

struct LinkCache;  // sim/link_cache.h: per-scenario mean received powers

/// Planar placement in metres (the paper's 10 m x 15 m office).
struct Position {
  double x_m = 0.0;
  double y_m = 0.0;
};

/// Euclidean distance, floored at 10 cm — the log-distance path-loss model
/// diverges for co-located nodes.
double distance_m(const Position& a, const Position& b);

enum class TrafficKind : std::uint8_t {
  kSaturated,  ///< always backlogged: next frame arrives at completion
  kCbr,        ///< open loop, fixed inter-arrival `interval_us`
  kPoisson,    ///< open loop, exponential inter-arrival, mean `interval_us`
  kDutyCycle,  ///< closed loop: idle gaps sized to hit `duty_ratio` airtime
};

struct TrafficConfig {
  TrafficKind kind = TrafficKind::kSaturated;
  /// kCbr period / kPoisson mean, microseconds.
  double interval_us = 10000.0;
  /// kDutyCycle target airtime fraction in (0, 1] (Fig 16's traffic ratio).
  double duty_ratio = 1.0;
};

/// One WiFi transmitter and the station it serves.
struct WifiNodeConfig {
  Position tx{};
  Position rx{};
  double usrp_gain = 15.0;  // maps to dBm via channel::wifi_tx_power_dbm
  mac::WifiMacParams mac{};
  TrafficConfig traffic{};
  /// 2.4 GHz WiFi channel 1..13.  0 is the legacy single-BSS default:
  /// channel 6, with every channel-0 ZigBee node sitting in the protected
  /// window — which reproduces the original single-channel power model
  /// bit-exactly (DESIGN.md §15).
  unsigned channel = 0;
};

/// One ZigBee transmitter/receiver pair.
struct ZigbeeNodeConfig {
  Position tx{};
  Position rx{};
  unsigned gain = 31;  // CC2420 PA level
  /// Practical receiver sensitivity: frames below it fail regardless of
  /// interference.  The CC2420 datasheet requires -85 dBm; the paper's
  /// Fig 15 link collapses once its signal drops to about that level,
  /// well above the -91 dBm RSSI noise floor.
  common::Dbm sensitivity_dbm{-85.0};
  mac::ZigbeeMacParams mac{};
  TrafficConfig traffic{TrafficKind::kCbr, 6346.0, 1.0};
  /// 802.15.4 channel 11..26.  0 is the legacy default: the protected
  /// 2 MHz window (the channel-0 WiFi centre plus the configured
  /// sledzig.channel offset), exactly where the paper's mote sits.
  unsigned channel = 0;
};

// --- fault model (DESIGN.md §14) -----------------------------------------
//
// A FaultPlanConfig declares *what can go wrong* during a run: explicit
// timed faults, seeded-random fault processes, bursty jammers, and per-node
// clock defects.  Each fault process of the plan is a FaultSource
// (sim/faults.h) whose pending action the engine queues as an ordinary
// event on the (time, seq) queue, so every fault schedule is a pure
// function of (config, seed) and bit-identical for any thread count.

enum class FaultKind : std::uint8_t {
  kCrash,     ///< node dies: queue/CSMA state lost, in-flight TX aborted
  kReboot,    ///< node returns with a cold MAC and a fresh arrival chain
  kMuteOn,    ///< TX chain off: transmit attempts fail silently
  kMuteOff,
  kDeafOn,    ///< RX chain off: frames addressed to the node are lost
  kDeafOff,
  kJamOn,     ///< jammer burst begins (node = jammer index)
  kSurgeOn,   ///< traffic surge: arrival rate multiplied by `magnitude`
  kSurgeOff,
};

/// One explicitly scheduled fault window.  Window kinds (crash, mute, deaf,
/// jam, surge) use `duration_us`; fault_sources emits the matching
/// recovery action, so a plan never has to pair On/Off entries by hand.
struct TimedFault {
  FaultKind kind = FaultKind::kCrash;
  std::uint32_t node = 0;   ///< global node index (jammer index for kJamOn)
  double at_us = 0.0;
  /// Window length; <= 0 means "until the horizon" (no recovery emitted).
  double duration_us = 0.0;
  /// kSurgeOn arrival-rate multiplier; ignored by other kinds.
  double magnitude = 4.0;
};

/// A bursty wideband interferer with no MAC: it transmits whenever its
/// on/off process says so, ignoring the medium entirely.  Jammers join the
/// arbiter's power tables as extra pseudo-nodes, so CCA verdicts, WiFi
/// deferral and per-symbol delivery all see their energy through the same
/// path-loss model as real nodes.
struct JammerConfig {
  Position pos{};
  double usrp_gain = 15.0;  ///< same dBm mapping as a WiFi transmitter
  /// Seeded-random burst process: exponential on/off durations.  Both must
  /// be > 0 for the random schedule; leave 0 to drive the jammer purely
  /// from TimedFault kJamOn entries.
  double mean_on_us = 0.0;
  double mean_off_us = 0.0;
};

/// Seeded-random fault processes, applied per node.  Every rate is a
/// Poisson intensity in events per simulated second; windows draw
/// exponential lengths around the configured means.  All randomness comes
/// from derive_seed(config.seed, ...) streams, never from the nodes' MAC
/// or traffic RNGs, so enabling faults perturbs only what faults touch.
struct RandomFaultConfig {
  double crash_rate_per_s = 0.0;
  double mean_downtime_us = 50000.0;
  double mute_rate_per_s = 0.0;
  double mean_mute_us = 20000.0;
  double deaf_rate_per_s = 0.0;
  double mean_deaf_us = 20000.0;
  double surge_rate_per_s = 0.0;
  double mean_surge_us = 50000.0;
  double surge_magnitude = 4.0;
};

/// Per-node clock defects, applied at the timer layer: `drift_ppm`
/// stretches every MAC timer interval the node arms (a +100 ppm node's
/// backoffs run 0.01% long) and `skew_us` offsets its first arrival.
/// Event timestamps stay global truth — only the node's *own* timing warps.
struct ClockConfig {
  double skew_us = 0.0;
  double drift_ppm = 0.0;
};

struct FaultPlanConfig {
  std::vector<TimedFault> timed;
  std::vector<JammerConfig> jammers;
  RandomFaultConfig random{};
  /// Indexed by global node (WiFi first, then ZigBee); shorter vectors
  /// leave the remaining nodes with nominal clocks.
  std::vector<ClockConfig> clocks;

  /// True when the plan can produce any fault at all.
  bool any() const;
};

/// One structured validation finding from ScenarioConfig::validate().
struct ConfigError {
  std::string field;    ///< dotted path, e.g. "zigbee[2].traffic.interval_us"
  std::string message;
};

std::string describe(const std::vector<ConfigError>& errors);

struct ScenarioConfig {
  std::vector<WifiNodeConfig> wifi;
  std::vector<ZigbeeNodeConfig> zigbee;
  /// Modulation / rate / protected channel the WiFi nodes use; the
  /// protected 2 MHz window is the one the ZigBee nodes occupy.
  core::SledzigConfig sledzig{};
  bool sledzig_enabled = true;
  /// RF impairment chain, folded into link budgets as its first-order SNR
  /// penalty.
  channel::ImpairmentConfig impairment{};
  mac::SymbolErrorModel error_model{};
  common::Db shadowing_sigma_db = channel::kShadowingSigmaDb;
  /// Minimum SINR at a WiFi receiver below which an overlapped WiFi frame
  /// is lost (simple capture model for WiFi/WiFi collisions).
  common::Db wifi_capture_sinr_db{10.0};
  /// Per-node FIFO depth; arrivals beyond it are counted as queue drops.
  std::size_t queue_capacity = 64;
  double duration_s = 10.0;
  std::uint64_t seed = 1;
  /// Record the full per-transition trace in SimResult (the run digest is
  /// always computed, trace or not); sim::render_spans draws it as Chrome
  /// spans.
  bool record_trace = false;
  /// Metrics sink: per-run tallies (event counts, frame accounting, stale
  /// timers) flush here once at the end of run_scenario.  Observational
  /// only — nothing digest-checked reads metrics back.  nullptr disables.
  obs::Registry* metrics = &obs::Registry::global();
  /// Optional shared per-scenario link cache: the mean (pre-shadowing)
  /// received power of every transmitter at every listening point, which
  /// is seed-independent and therefore identical across replications.
  /// run_replications builds one and shares it across the fan-out; leave
  /// null to let each run build its own.  Only the dimensions are checked
  /// (a cache whose node counts differ from the topology, or whose `comp`
  /// does not cover every node, is rebuilt); the content is the caller's.  A cache built for other positions, channels
  /// or scheme is used as is and changes the results, which is also how a
  /// deliberately edited cache (bench_ablation_preamble) reaches a run.
  std::shared_ptr<const LinkCache> link_cache;
  /// Fault-injection plan (empty by default: no faults, digests untouched).
  FaultPlanConfig faults{};
  /// Runtime adaptive control plane (DESIGN.md §18): epoch observation of
  /// per-node counters driving SledZig engage/disengage, ZigBee channel
  /// hops and WiFi airtime shaping.  Disabled by default: a run without an
  /// active policy is byte-identical to one built before the control plane
  /// existed.
  control::ControlConfig control{};
  /// Runtime invariant checking (sim/invariants.h).  Disabled by default;
  /// the chaos suite and debug harnesses switch it on.
  InvariantConfig invariants{};

  /// Structural validation: rejects configs that would otherwise fail deep
  /// inside the engine or silently produce empty runs.  Every field is
  /// checked against the range its field list declares
  /// (sim/scenario_fields.h), then the rules that tie fields together run
  /// over the fields that passed.  Returns every problem found, at most one
  /// per field path; empty means the config is runnable.  run_scenario and
  /// run_replications both call this up front and throw
  /// std::invalid_argument with describe(errors) on failure.
  std::vector<ConfigError> validate() const;
};

/// The paper's Fig 14-16 testbed as a two-node ScenarioConfig: one WiFi
/// link at `d_wz_m` from a ZigBee pair spaced `d_z_m`, the WiFi node
/// loaded at `wifi_duty_ratio` and the ZigBee mote running the paper's
/// ~63 Kbps closed-loop source.
// NOLINTBEGIN(bugprone-easily-swappable-parameters)
ScenarioConfig two_node_paper_scenario(const core::SledzigConfig& sledzig,
                                       bool sledzig_on,
                                       double wifi_duty_ratio, double d_wz_m,
                                       double d_z_m, double duration_s,
                                       std::uint64_t seed);
// NOLINTEND(bugprone-easily-swappable-parameters)

/// The control-plane A/B testbed (DESIGN.md §18): a heavily loaded WiFi
/// BSS on channel 1 with four ZigBee pairs parked in its four overlap
/// windows, plus a lightly loaded BSS on channel 11 whose quiet windows
/// are the natural hop targets.  `controlled` arms the runtime policies
/// (ZigBee channel hopping plus SledZig engage/disengage hysteresis);
/// false is the static arm the paper evaluates — SledZig permanently on,
/// no controller.  Both arms share topology, traffic and seed, so any
/// metric delta is the controller's doing.
ScenarioConfig control_ab_scenario(bool controlled, double duration_s,
                                   std::uint64_t seed);

/// A generated campus: `ap_grid_x` x `ap_grid_y` WiFi APs on a
/// `spacing_m` grid cycling channels 1/6/11 (the classic non-overlapping
/// plan), each surrounded by `sensors_per_ap` ZigBee pairs cycling the
/// four 802.15.4 channels that overlap their AP's 20 MHz band.  APs run a
/// closed-loop 35% duty load; sensors run a moderate CBR.  This is the
/// dense multi-channel topology bench_sim_scaling pushes past 1000 nodes
/// (EXPERIMENTS.md).
// NOLINTBEGIN(bugprone-easily-swappable-parameters)
ScenarioConfig campus_scenario(std::size_t ap_grid_x, std::size_t ap_grid_y,
                               std::size_t sensors_per_ap, double spacing_m,
                               double duration_s, std::uint64_t seed);
// NOLINTEND(bugprone-easily-swappable-parameters)

}  // namespace sledzig::sim

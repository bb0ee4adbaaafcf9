// Per-scenario link cache and interference graph (DESIGN.md §15).
//
// Pathloss and the PHY-measured in-band offsets (coex::wifi_inband_power)
// are pure per (transmitter, listening point, scheme, gain, distance,
// channel pair) — nothing about them depends on the run's seed.  The cache
// precomputes that *mean* (pre-shadowing) received power once per scenario;
// each run only adds its lognormal shadowing draw and converts to mW, so
// replications share all the expensive geometry/PHY work through one
// shared_ptr in ScenarioConfig.
//
// The cache is also where the interference graph is decided.  Every entry
// carries a LinkState:
//
//   kLive    — filled into the run's power table as usual;
//   kZero    — structurally silent (a node's own CCA point, or two bands
//              that do not spectrally overlap at all): exactly 0 mW;
//   kPruned  — epsilon-pruned: the mean power plus a 10-sigma shadowing
//              margin still lands more than 30 dB below the listener's
//              noise floor, so the link is zeroed at table-build time.
//              Zero entries are inert downstream: they add exactly 0.0 to
//              CCA energy sums and can never win the strict->
//              worst-interferer comparison, which is why pruning needs no
//              code-path change at query time.
//
// Multi-channel coupling: each node carries a channel (WifiNodeConfig /
// ZigbeeNodeConfig, 0 = the legacy single-BSS sentinel).  A ZigBee node
// sitting exactly in a WiFi transmitter's protected window resolves
// through coex::wifi_inband_power (the SledZig-aware PHY measurement);
// every other overlap uses a flat-PSD band-fraction term applied *after*
// the shadowing draw, so legacy scenarios (all channels 0) reproduce the
// original power tables bit-exactly (coupling_db == 0.0 on every legacy
// path, and x + jitter + 0.0 == x + jitter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sledzig/channels.h"
#include "sledzig/significant_bits.h"

namespace sledzig::sim {

struct ScenarioConfig;

enum class LinkState : std::uint8_t {
  kLive = 0,  ///< normal link: fill power = dbm_to_mw(mean + jitter + cpl)
  kZero,      ///< structurally silent (self-CCA or disjoint bands): 0 mW
  kPruned,    ///< epsilon-pruned interference-graph edge: 0 mW (approx.)
};

/// Mean (pre-shadowing) received power of one transmitter at one listening
/// point, split by frame segment, plus the spectral-overlap coupling
/// applied after the per-run shadowing draw.
struct LinkEntry {
  common::Dbm payload_dbm{};
  common::Dbm preamble_dbm{};
  common::Db coupling_db{};
  LinkState state = LinkState::kZero;
};

/// One coupled (listening point, transmitter) pair in the compact
/// row-major link list: the LinkEntry fields plus the transmitter id.
struct CoupledLink {
  common::Dbm payload_dbm{};
  common::Dbm preamble_dbm{};
  common::Db coupling_db{};
  std::uint32_t tx = 0;
  LinkState state = LinkState::kZero;
};

struct LinkCache {
  std::size_t num_wifi = 0;
  std::size_t num_nodes = 0;  ///< wifi + zigbee
  std::size_t num_total = 0;  ///< nodes + jammer pseudo-nodes
  /// The coupled pairs only, as CSR rows over listening points (rows
  /// 0..T-1 are CCA points, T..2T-1 receiver points, the point numbering
  /// ArbiterTables::set_link takes; ascending tx within a row).  Uncoupled
  /// pairs — spectrally disjoint bands — are simply absent: the per-run
  /// fill walks this list in order, so it neither scans nor draws for
  /// them.  In a legacy all-channel-0 scenario every pair is coupled and
  /// the walk degenerates to the original dense row-major loop.
  std::vector<CoupledLink> coupled;
  std::vector<std::uint32_t> coupled_off;  ///< 2T + 1 row offsets
  /// Per listening node: the prune epsilon (listener-band noise floor
  /// minus a fixed 30 dB prune floor).  The engine's table fill throws
  /// std::logic_error if a pruned link's drawn power exceeds it.
  std::vector<common::MilliWatt> eps_mw;
  /// Spectral coupling components: comp[node] in 0..num_comps-1 for every
  /// node (jammer pseudo-nodes included).  Two nodes share a component iff
  /// they are connected through live-or-pruned coupled links, so received
  /// power across components is exactly 0 mW at every listening point —
  /// which is what lets the arbiter keep one transmission ledger and one
  /// block of each link table per component, and scan only the
  /// listener's.  One component in any legacy single-channel scenario
  /// (and whenever a wideband jammer is present, since it couples to
  /// everything).
  std::vector<std::uint32_t> comp;
  std::size_t num_comps = 1;

  /// Entry lookup (tests / introspection; the engine walks the CSR rows
  /// directly).  Absent pairs come back as the uncoupled kZero entry.
  LinkEntry at(std::size_t point, std::size_t tx) const;

  /// Builds the cache for a topology.  Pure per config — no seed, no RNG —
  /// so one cache serves every replication of a scenario.
  static std::shared_ptr<const LinkCache> build(const ScenarioConfig& cfg);
};

/// Centre frequency of a WiFi node's channel; 0 (the legacy sentinel) maps
/// to channel 6 (2437 MHz).
double wifi_node_center_hz(unsigned channel);

/// Centre frequency of a ZigBee node's channel (11..26); 0 maps to the
/// legacy protected window: the channel-0 WiFi centre plus the configured
/// overlap-channel offset.
double zigbee_node_center_hz(unsigned channel,
                             const core::SledzigConfig& sledzig);

/// The 802.15.4 channel whose 2 MHz band sits at overlap window `ch` of
/// 20 MHz WiFi channel `wifi_channel` (e.g. channel 1 overlaps ZigBee
/// 11..14, channel 6 overlaps 16..19, channel 11 overlaps 21..24).
unsigned overlapping_zigbee_channel(unsigned wifi_channel,
                                    core::OverlapChannel ch);

/// Mean (pre-shadowing) link entry of transmitter `tx` (a real node or a
/// jammer pseudo-node) heard at the listening point of real node
/// `listener` (`rx_point` picks its receiver vs CCA position), with the
/// listener's band centred at `listener_center` and `sledzig_on` selecting
/// the scheme inside protected windows.  Pure per (cfg, arguments), no
/// prune decision — exactly the arithmetic build() fills the cache with,
/// exported so the engine's control plane can retune entries at runtime
/// (ZigBee channel hops, SledZig toggles) with zero drift from the
/// build-time tables.
LinkEntry mean_link_entry(const ScenarioConfig& cfg, std::size_t listener,
                          bool rx_point, std::size_t tx,
                          common::Hz listener_center, bool sledzig_on);

}  // namespace sledzig::sim

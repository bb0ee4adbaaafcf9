// Runtime adaptive coexistence control plane (DESIGN.md §18).
//
// The paper's premise is coexistence that reacts to live spectrum
// conditions, not a SledZig switch wired at configuration time.  This
// module is the decision layer: the simulation engine samples per-node
// counters at a fixed epoch, hands the controller an EpochSnapshot of
// per-epoch deltas, and applies whatever Actions come back at the epoch
// boundary —
//
//   * SledZig engage/disengage with hysteresis, promoting
//     coex::AdaptiveController from an offline detector study to the
//     in-loop policy (synthetic detections are built from per-window
//     ZigBee airtime, the discrete-event analogue of a spectrum scan);
//   * ZigBee channel hops away from busy WiFi BSSs, using the
//     multi-channel topology (quietest candidate first, deterministic
//     rotation on repeated misses);
//   * WiFi duty-cycle shaping (OfdmFi-style airtime windows), throttling
//     WiFi sources while aggregate ZigBee PRR is below target.
//
// Determinism contract: the controller holds no RNG and no reference to
// the engine — every decision is a pure function of the configuration and
// the observation history, so a controlled run stays bit-identical across
// thread counts.  Observations are deterministic in-engine counters, never
// obs::Registry readback (metrics are observational only, DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coex/detector.h"

namespace sledzig::control {

/// SledZig engage/disengage policy: a per-overlap-window activity score
/// with AdaptiveController hysteresis.  A window counts "active" in an
/// epoch when the ZigBee airtime of the motes parked in it reaches
/// busy_airtime_fraction of the epoch.
struct SledzigPolicyConfig {
  bool enabled = false;
  /// Consecutive active epochs before a window is protected.
  unsigned on_threshold = 2;
  /// Consecutive idle epochs before protection stops.
  unsigned off_threshold = 5;
  /// ZigBee airtime / epoch ratio at which a window counts active.
  double busy_airtime_fraction = 0.01;
};

/// ZigBee channel-hop policy: a mote whose per-epoch PRR stays below
/// min_prr for `patience` consecutive busy epochs hops to its next
/// candidate channel, then holds still for cooldown_epochs.
struct HopPolicyConfig {
  bool enabled = false;
  double min_prr = 0.85;
  unsigned patience = 3;
  unsigned cooldown_epochs = 8;
};

/// WiFi airtime-shaping policy: while aggregate ZigBee PRR sits below
/// min_zigbee_prr for `patience` epochs, every WiFi source is throttled
/// to rate_scale of its configured rate; `release` consecutive healthy
/// epochs restore full rate.
struct DutyPolicyConfig {
  bool enabled = false;
  double min_zigbee_prr = 0.9;
  double rate_scale = 0.5;
  unsigned patience = 2;
  unsigned release = 4;
};

struct ControlConfig {
  bool enabled = false;
  /// Observation/action period.  Epoch k's boundary is at k * epoch_us.
  double epoch_us = 100000.0;
  SledzigPolicyConfig sledzig;
  HopPolicyConfig hop;
  DutyPolicyConfig duty;

  /// True when the engine should run the control loop at all.
  bool active() const {
    return enabled && (sledzig.enabled || hop.enabled || duty.enabled);
  }
};

/// Per-node counters over ONE epoch (deltas, not cumulative totals).
struct NodeObservation {
  std::uint64_t generated = 0;
  std::uint64_t sent = 0;       ///< transmission attempts completed
  std::uint64_t delivered = 0;
  std::uint64_t retry_exhausted = 0;
  std::uint64_t cca_busy = 0;   ///< ZigBee CCA assessments that found energy
  std::uint64_t cca_clear = 0;
  double airtime_us = 0.0;
};

struct EpochSnapshot {
  std::uint64_t epoch = 0;   ///< 0-based; boundary time is (epoch+1)*epoch_us
  double time_us = 0.0;
  double epoch_us = 0.0;
  std::span<const NodeObservation> wifi;
  std::span<const NodeObservation> zigbee;
};

enum class ActionKind : std::uint8_t {
  kSledzig,        ///< value: 1 engage, 0 disengage (all WiFi nodes)
  kZigbeeChannel,  ///< node: zigbee index; value: new 802.15.4 channel
  kWifiRateScale,  ///< node: wifi index; value: traffic rate scale
};

struct Action {
  ActionKind kind{};
  std::size_t node = 0;
  double value = 0.0;
};

/// Static facts about one ZigBee node the hop and SledZig policies need;
/// computed once by the engine from the link cache.
struct ZigbeeNodeContext {
  /// Overlap-window index (0..3) of the node's channel under the WiFi BSS
  /// it coexists with, or -1 when it sits in no window.
  int overlap = -1;
  /// Hop targets in preference order (quietest static interference first,
  /// channel id ascending on ties); never contains the initial channel.
  std::vector<unsigned> candidates;
};

/// The decision layer.  Feed one EpochSnapshot per epoch in time order;
/// apply the returned actions at that boundary.  Action order within an
/// epoch is fixed (SledZig, hops by node index, rate shaping by node
/// index), so replays are exact.
class Controller {
 public:
  Controller(const ControlConfig& cfg, std::vector<ZigbeeNodeContext> zigbee,
             std::size_t num_wifi, bool sledzig_engaged);

  std::vector<Action> on_epoch(const EpochSnapshot& snap);

  bool sledzig_engaged() const { return sledzig_engaged_; }
  bool shaping() const { return shaping_; }

 private:
  struct HopState {
    unsigned below = 0;     ///< consecutive busy epochs under min_prr
    unsigned cooldown = 0;  ///< epochs left before the next hop may fire
    std::size_t next = 0;   ///< rotating index into candidates
  };

  ControlConfig cfg_;
  std::vector<ZigbeeNodeContext> zigbee_;
  std::size_t num_wifi_;
  coex::AdaptiveController adaptive_;
  bool sledzig_engaged_;
  std::vector<HopState> hop_;
  unsigned duty_bad_ = 0;
  unsigned duty_good_ = 0;
  bool shaping_ = false;
};

}  // namespace sledzig::control

// The fault processes of a declarative FaultPlanConfig, one pending action
// each.
//
// An explicit timed action is a FaultSource that fires once; a node's
// seeded-random process of one fault family, and a jammer's burst train,
// hold their next action and draw the one after it when that fires, the
// way TrafficSource yields arrivals.  The engine queues each pending action
// as an ordinary kFault event on the (time, seq) queue, so a faulted run
// holds one action per process and stays a pure function of (config,
// seed), bit-identical for any thread count.
//
// All fault randomness comes from derive_seed streams rooted at a
// fault-only branch of the scenario seed, disjoint from the per-node MAC /
// delivery / traffic streams the engine owns.  Enabling a fault process
// therefore perturbs only what the faults themselves touch; it never
// reshuffles the surviving nodes' backoff or traffic draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/scenario.h"

namespace sledzig::sim {

/// One fault instant.  `magnitude` is kind-specific: the arrival
/// multiplier for kSurgeOn, the burst length in µs for kJamOn, unused
/// otherwise.
struct FaultAction {
  double at_us = 0.0;
  FaultKind kind = FaultKind::kCrash;
  std::uint32_t node = 0;  ///< global node index; jammer index for kJamOn
  double magnitude = 0.0;
};

/// One fault process and its pending action.
class FaultSource {
 public:
  /// A timed action: it fires once.
  explicit FaultSource(const FaultAction& action) : next_(action) {}

  /// A seeded-random process on `target`: `on` after exponential gaps
  /// (mean `mean_gap_us`), `off` after exponential windows (mean
  /// `mean_len_us`); a kJamOn burst's length is its magnitude instead.
  // NOLINTBEGIN(bugprone-easily-swappable-parameters)
  FaultSource(std::uint64_t seed, std::uint32_t target, FaultKind on,
              FaultKind off, double mean_gap_us, double mean_len_us,
              double magnitude, double duration_us);
  // NOLINTEND(bugprone-easily-swappable-parameters)

  const FaultAction& next() const { return next_; }

  /// Moves to the action after next(); false when that would land at or
  /// past the horizon (a window still open then lasts to the horizon).
  bool advance();

 private:
  /// Schedules an onset (drawing a burst's length); false at the horizon.
  bool arm(double onset_us);

  FaultAction next_;
  std::unique_ptr<common::Rng> rng_;  ///< null for a timed action
  FaultKind on_ = FaultKind::kCrash;
  FaultKind off_ = FaultKind::kReboot;
  double mean_gap_us_ = 0.0;
  double mean_len_us_ = 0.0;
  double magnitude_ = 0.0;
  double duration_us_ = 0.0;
};

/// The plan's sources with an action before `duration_us`: timed actions
/// in plan order (a window's onset, then its recovery unless that lands at
/// or past the horizon), then the random processes of each of the
/// `num_nodes` global nodes, node-major, then the jammers.
std::vector<FaultSource> fault_sources(const FaultPlanConfig& plan,
                                       std::uint64_t seed, double duration_us,
                                       std::size_t num_nodes);

}  // namespace sledzig::sim

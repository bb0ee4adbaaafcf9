// Runtime invariant checking for the discrete-event engine (DESIGN.md §14).
//
// The simulator's correctness story is a handful of global properties that
// must hold for *every* (config, seed) — including hostile fault plans that
// crash nodes mid-transmission, jam the band, or warp node clocks:
//
//   * event-time monotonicity — the scheduler never travels backwards;
//   * liveness — a node that is serving a frame always has a next step
//     scheduled, unless the horizon cut it off (a wedged node would
//     otherwise sit in `serving` forever and silently leak its queue);
//   * queue-depth bounds — no FIFO ever exceeds the configured capacity;
//   * crash-aware packet conservation — at the horizon every generated
//     frame is in exactly one terminal bucket (delivered, queue_dropped,
//     cca_dropped, retry_exhausted, lost_to_crash, in_flight_at_end).
//
// SimInvariants is the in-engine hook: cheap enough to run on every event
// in chaos/debug builds, compiled to nothing when `enabled` is false (the
// default in optimized builds).  A violation throws InvariantViolation
// whose message carries the scenario seed and virtual time, so any chaos
// failure is replayable from the printed seed alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sledzig::sim {

/// Per-scenario invariant-checking knobs (ScenarioConfig::invariants).
struct InvariantConfig {
  /// Master switch.  Off by default so release digests and hot-path cost
  /// are untouched; the chaos suite and debug builds turn it on.
  bool enabled = false;
};

/// Thrown on any invariant breach.  what() embeds the scenario seed —
/// re-running the same config with that seed reproduces the violation
/// bit-for-bit (the engine is a pure function of (config, seed)).
class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(const std::string& what, std::uint64_t seed,
                     double time_us);

  std::uint64_t seed() const { return seed_; }
  double time_us() const { return time_us_; }

 private:
  std::uint64_t seed_;
  double time_us_;
};

/// The engine-side checker.  All methods are no-ops when the config is
/// disabled; the engine additionally guards the per-event calls behind
/// enabled() so a disabled checker costs one branch.
class SimInvariants {
 public:
  SimInvariants(const InvariantConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), seed_(seed) {}

  bool enabled() const { return cfg_.enabled; }

  /// Every popped event passes through here: monotonic time.
  void on_event(double t_us);

  /// FIFO depth after an enqueue.
  void on_queue_depth(std::uint32_t node, std::size_t depth,
                      std::size_t capacity, double t_us);

  /// End-of-run liveness verdict for one node: `serving` with no scheduled
  /// work is only legal when the horizon suppressed the node's next step.
  void on_node_drained(std::uint32_t node, bool alive, bool serving,
                       bool horizon_cut, bool tx_in_flight, double t_us);

  /// End-of-run conservation: generated vs the sum of terminal buckets.
  void on_conservation(std::uint32_t node, std::size_t generated,
                       std::size_t accounted, double t_us);

 private:
  [[noreturn]] void fail(const std::string& what, double t_us) const;

  InvariantConfig cfg_;
  std::uint64_t seed_;
  bool seen_event_ = false;
  double last_time_us_ = 0.0;
};

}  // namespace sledzig::sim

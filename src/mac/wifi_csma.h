// Event-driven 802.11 CSMA for the multi-node discrete-event engine
// (src/sim), where several WiFi nodes contend and energy-detect deferral
// actually matters.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace sledzig::mac {

struct WifiMacParams {
  double difs_us = 28.0;        // paper section II-B
  double slot_us = 9.0;
  unsigned cw = 16;             // fixed contention window (single BSS)
  double preamble_us = 20.0;    // PLCP preamble (16 us) + SIGNAL symbol
  double airtime_us = 4000.0;   // payload airtime per burst (A-MPDU-like)
};

/// Event-driven 802.11 CSMA state machine, advanced by an external
/// discrete-event scheduler (src/sim).  The machine reacts to what the
/// shared medium actually does: it defers behind other transmissions it
/// can hear (energy detect), freezes its backoff when the medium turns
/// busy mid-countdown, and resumes with the remaining slots — so WiFi/WiFi
/// contention emerges from the timeline instead of being assumed away.
/// How much of the time a node wants the medium is a traffic property
/// (sim::TrafficConfig::duty_ratio), not a MAC one.
///
/// The machine owns protocol state and its own backoff RNG; the scheduler
/// owns time and the medium.  Every transition returns a `Step` telling the
/// scheduler what to do next: arm a timer, start transmitting now, or wait
/// for a medium notification.  Timers invalidated by a medium transition
/// must be discarded by the caller (the sim engine uses a per-node token).
class WifiCsmaMachine {
 public:
  struct Step {
    enum class Kind {
      kNone,     ///< nothing to schedule (idle or waiting for medium_idle)
      kTimerAt,  ///< call timer_fired() at time `at`
      kTransmit, ///< begin the frame's transmission now
    };
    Kind kind = Kind::kNone;
    double at = 0.0;
  };

  WifiCsmaMachine(const WifiMacParams& params, std::uint64_t seed);

  /// A frame reached the head of the queue while the machine was idle.
  /// `medium_busy_now` is the scheduler's energy-detect verdict at `now`.
  Step frame_ready(double now, bool medium_busy_now);

  /// The armed timer fired (and was not invalidated): DIFS + backoff
  /// completed on an idle medium, so the frame transmits.
  Step timer_fired(double now);

  /// An audible transmission started at `now`.  Freezes the countdown,
  /// keeping the slots not yet consumed.  If the countdown was due to
  /// complete exactly at `now`, the machine transmits anyway — two nodes
  /// picking the same slot collide instead of politely serialising.
  Step medium_busy(double now);

  /// A transmission ended and the medium is idle at this node: resume
  /// DIFS + remaining slots if frozen.  If the countdown is running (the
  /// ended transmission was inaudible here), re-arms the countdown timer —
  /// callers invalidate all pending timers on every notification.
  Step medium_idle(double now);

  /// The transmission completed; the machine returns to idle.
  void tx_done();

  /// Crash/reboot hook: back to kIdle, discarding the frozen countdown and
  /// any armed timer (the scheduler invalidates pending timers by token).
  /// The backoff RNG survives — rewinding it would let a rebooted node
  /// replay its pre-crash draws.
  void reset() {
    state_ = State::kIdle;
    wait_start_ = 0.0;
    defer_until_ = 0.0;
    slots_left_ = 0;
  }

  bool idle() const { return state_ == State::kIdle; }
  /// True when the machine is waiting on the medium (deferring or counting
  /// down): the only states in which medium_idle() is not a stateless
  /// no-op.  In kIdle and kTx medium_idle() returns Step{kNone} and no
  /// valid timer is pending (every path into those states bumps the
  /// scheduler token), so a scheduler may skip non-waiting machines when
  /// broadcasting idle notifications without changing any outcome — the
  /// engine's O(degree) fast path (DESIGN.md §15) relies on exactly this.
  bool waiting() const {
    return state_ == State::kWaitIdle || state_ == State::kDefer;
  }
  /// Backoff slots not yet consumed (test hook for the freeze semantics).
  unsigned slots_left() const { return slots_left_; }

 private:
  enum class State { kIdle, kWaitIdle, kDefer, kTx };

  Step start_defer(double now);

  WifiMacParams params_;
  common::Rng rng_;
  State state_ = State::kIdle;
  double wait_start_ = 0.0;  // when the current DIFS+backoff wait began
  double defer_until_ = 0.0; // when the armed countdown completes
  unsigned slots_left_ = 0;
};

}  // namespace sledzig::mac

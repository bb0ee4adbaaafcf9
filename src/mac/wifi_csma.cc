#include "mac/wifi_csma.h"

#include <algorithm>
#include <stdexcept>

namespace sledzig::mac {

WifiCsmaMachine::WifiCsmaMachine(const WifiMacParams& params,
                                 std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.cw < 1) {
    throw std::invalid_argument("WifiCsmaMachine: cw must be >= 1");
  }
}

WifiCsmaMachine::Step WifiCsmaMachine::start_defer(double now) {
  state_ = State::kDefer;
  wait_start_ = now;
  defer_until_ = now + params_.difs_us +
                 params_.slot_us * static_cast<double>(slots_left_);
  return {Step::Kind::kTimerAt, defer_until_};
}

WifiCsmaMachine::Step WifiCsmaMachine::frame_ready(double now,
                                                   bool medium_busy_now) {
  slots_left_ = static_cast<unsigned>(
      rng_.uniform_int(0, static_cast<std::int64_t>(params_.cw) - 1));
  if (medium_busy_now) {
    state_ = State::kWaitIdle;
    return {};
  }
  return start_defer(now);
}

WifiCsmaMachine::Step WifiCsmaMachine::timer_fired(double now) {
  if (state_ != State::kDefer) return {};  // stale timer, defensively ignored
  state_ = State::kTx;
  return {Step::Kind::kTransmit, now};
}

WifiCsmaMachine::Step WifiCsmaMachine::medium_busy(double now) {
  if (state_ != State::kDefer) return {};
  if (now >= defer_until_) {
    // The countdown completes at this very instant: both this node and the
    // one whose transmission triggered the notification chose the same
    // slot, so this node transmits too and the frames collide on air.
    state_ = State::kTx;
    return {Step::Kind::kTransmit, now};
  }
  // Freeze: whole slots consumed after DIFS survive, the partial one and
  // the DIFS itself are repeated after the medium clears (802.11 resumes
  // the countdown rather than redrawing).
  const double idle_after_difs = now - wait_start_ - params_.difs_us;
  if (idle_after_difs > 0.0) {
    const auto consumed =
        static_cast<unsigned>(idle_after_difs / params_.slot_us);
    slots_left_ -= std::min(slots_left_, consumed);
  }
  state_ = State::kWaitIdle;
  return {};
}

WifiCsmaMachine::Step WifiCsmaMachine::medium_idle(double now) {
  if (state_ == State::kDefer) {
    // The ended transmission was never audible here (an audible start would
    // have frozen the countdown), so the countdown stands — but the caller
    // invalidates every pending timer on notification, so re-arm it.
    return {Step::Kind::kTimerAt, defer_until_};
  }
  if (state_ != State::kWaitIdle) return {};
  return start_defer(now);
}

void WifiCsmaMachine::tx_done() { state_ = State::kIdle; }

}  // namespace sledzig::mac

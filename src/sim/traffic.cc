#include "sim/traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sledzig::sim {

namespace {
/// Floor on any inter-arrival draw: a zero gap (uniform() returning
/// exactly 0 in the exponential inverse-CDF) must not wedge the event loop
/// at one instant.
constexpr double kMinGapUs = 1e-3;
}  // namespace

TrafficSource::TrafficSource(const TrafficConfig& cfg, double burst_us,
                             double csma_gap_us, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  switch (cfg_.kind) {
    case TrafficKind::kSaturated:
      break;
    case TrafficKind::kCbr:
    case TrafficKind::kPoisson:
      if (!(cfg_.interval_us > 0.0)) {
        throw std::invalid_argument("TrafficSource: interval_us must be > 0");
      }
      break;
    case TrafficKind::kDutyCycle: {
      if (!(cfg_.duty_ratio > 0.0) || cfg_.duty_ratio > 1.0) {
        throw std::invalid_argument("TrafficSource: duty_ratio in (0, 1]");
      }
      // Mean extra idle per burst so that airtime / cycle = duty_ratio
      // beyond the unavoidable DIFS + mean backoff.
      const double cycle = burst_us / cfg_.duty_ratio;
      mean_idle_us_ = std::max(0.0, cycle - burst_us - csma_gap_us);
      break;
    }
  }
}

double TrafficSource::gap() {
  switch (cfg_.kind) {
    case TrafficKind::kSaturated:
      return 0.0;
    case TrafficKind::kCbr:
      return std::max(kMinGapUs, cfg_.interval_us / rate_scale_);
    case TrafficKind::kPoisson:
      return std::max(kMinGapUs, -(cfg_.interval_us / rate_scale_) *
                                     std::log(1.0 - rng_.uniform()));
    case TrafficKind::kDutyCycle:
      // Exponential-ish jitter around the mean keeps bursts off a grid.
      // No kMinGapUs floor: completion-clocked arrivals cannot wedge the
      // loop, and a zero idle gap (duty ratio 1.0) must stay exactly zero.
      return (mean_idle_us_ / rate_scale_) * (0.5 + rng_.uniform());
  }
  return 0.0;
}

double TrafficSource::first_arrival() {
  if (cfg_.kind == TrafficKind::kSaturated) return 0.0;
  if (cfg_.kind == TrafficKind::kCbr) {
    // Random phase: identical CBR nodes must not start in lockstep.
    return std::max(kMinGapUs, cfg_.interval_us * rng_.uniform());
  }
  return gap();
}

double TrafficSource::next_after(double now) { return now + gap(); }

}  // namespace sledzig::sim

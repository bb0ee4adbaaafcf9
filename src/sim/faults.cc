#include "sim/faults.h"

#include <cmath>
#include <iterator>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/seed_domains.h"

namespace sledzig::sim {

namespace {

// Root of the fault-only seed branch.  Everything below is derived from
// derive_seed(config.seed, kFaultBranch), so fault streams can never alias
// the engine's per-node streams (indices 0 .. 4*num_nodes+3 of the raw
// scenario seed).  The tag itself lives in the seed-domain registry
// (common/seed_domains.h) so no other subsystem can collide with it.
constexpr std::uint64_t kFaultBranch = common::seed_domain::kFaultPlan;

// Per-node stream indices under the fault branch: 8 slots per node (four
// fault families plus headroom), jammers after all nodes.
constexpr std::uint64_t kStreamsPerNode = 8;

/// Inverse-CDF exponential draw; uniform() < 1 keeps the log argument
/// positive, so the result is finite and >= 0.
double exp_draw(common::Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform());
}

}  // namespace

// NOLINTBEGIN(bugprone-easily-swappable-parameters)
FaultSource::FaultSource(std::uint64_t seed, std::uint32_t target,
                         FaultKind on, FaultKind off, double mean_gap_us,
                         double mean_len_us, double magnitude,
                         double duration_us)
    // NOLINTEND(bugprone-easily-swappable-parameters)
    : next_{0.0, on, target, magnitude},
      rng_(std::make_unique<common::Rng>(seed)),
      on_(on),
      off_(off),
      mean_gap_us_(mean_gap_us),
      mean_len_us_(mean_len_us),
      magnitude_(magnitude),
      duration_us_(duration_us) {
  arm(exp_draw(*rng_, mean_gap_us_));
}

bool FaultSource::arm(double onset_us) {
  const double magnitude = on_ == FaultKind::kJamOn
                               ? exp_draw(*rng_, mean_len_us_)
                               : magnitude_;
  next_ = {onset_us, on_, next_.node, magnitude};
  return onset_us < duration_us_;
}

bool FaultSource::advance() {
  if (!rng_) return false;  // a timed action fires once
  const double t = next_.at_us;
  if (next_.kind == on_ && on_ != FaultKind::kJamOn) {
    const double end = t + exp_draw(*rng_, mean_len_us_);
    next_ = {end, off_, next_.node, 0.0};
    return end < duration_us_;
  }
  // The next onset follows a gap after a window's end, or after a burst
  // (its length is its magnitude) in the association t + (len + gap).
  const double gap = exp_draw(*rng_, mean_gap_us_);
  return arm(on_ == FaultKind::kJamOn ? t + (next_.magnitude + gap) : t + gap);
}

std::vector<FaultSource> fault_sources(const FaultPlanConfig& plan,
                                       std::uint64_t seed, double duration_us,
                                       std::size_t num_nodes) {
  std::vector<FaultSource> out;
  const std::uint64_t fault_seed = common::derive_seed(seed, kFaultBranch);

  // 1. Explicit timed windows, expanded to On + recovery pairs.
  for (const auto& f : plan.timed) {
    if (f.at_us >= duration_us) continue;
    if (f.kind == FaultKind::kJamOn) {
      // A jam burst carries its length in `magnitude`; it retires through
      // its own kTxEnd, so no Off action exists.
      const double len =
          f.duration_us > 0.0 ? f.duration_us : duration_us - f.at_us;
      out.emplace_back(FaultAction{f.at_us, f.kind, f.node, len});
      continue;
    }
    out.emplace_back(FaultAction{f.at_us, f.kind, f.node, f.magnitude});
    FaultKind off;
    switch (f.kind) {
      case FaultKind::kCrash:
        off = FaultKind::kReboot;
        break;
      case FaultKind::kMuteOn:
        off = FaultKind::kMuteOff;
        break;
      case FaultKind::kDeafOn:
        off = FaultKind::kDeafOff;
        break;
      case FaultKind::kSurgeOn:
        off = FaultKind::kSurgeOff;
        break;
      default:
        continue;  // explicit recovery entries pass through unpaired
    }
    if (f.duration_us > 0.0 && f.at_us + f.duration_us < duration_us) {
      out.emplace_back(FaultAction{f.at_us + f.duration_us, off, f.node, 0.0});
    }
  }

  // 2. Seeded-random per-node fault processes, one RNG stream per
  // (node, family) so changing one rate re-rolls nothing else; a family's
  // stream under its node is its index here.
  const auto& r = plan.random;
  const struct {
    FaultKind on, off;
    double rate_per_s, mean_len_us, magnitude;
  } families[] = {
      {FaultKind::kCrash, FaultKind::kReboot, r.crash_rate_per_s,
       r.mean_downtime_us, 0.0},
      {FaultKind::kMuteOn, FaultKind::kMuteOff, r.mute_rate_per_s,
       r.mean_mute_us, 0.0},
      {FaultKind::kDeafOn, FaultKind::kDeafOff, r.deaf_rate_per_s,
       r.mean_deaf_us, 0.0},
      {FaultKind::kSurgeOn, FaultKind::kSurgeOff, r.surge_rate_per_s,
       r.mean_surge_us, r.surge_magnitude},
  };
  const auto add = [&](FaultSource src) {
    if (src.next().at_us < duration_us) out.push_back(std::move(src));
  };
  for (std::size_t g = 0; g < num_nodes; ++g) {
    for (std::size_t k = 0; k < std::size(families); ++k) {
      const auto& f = families[k];
      if (!(f.rate_per_s > 0.0)) continue;
      add(FaultSource(common::derive_seed(fault_seed, kStreamsPerNode * g + k),
                      static_cast<std::uint32_t>(g), f.on, f.off,
                      1e6 / f.rate_per_s, f.mean_len_us, f.magnitude,
                      duration_us));
    }
  }

  // 3. Jammer burst trains: alternating exponential off/on periods,
  // starting off so a burst never begins at exactly t=0.
  for (std::size_t j = 0; j < plan.jammers.size(); ++j) {
    const auto& jm = plan.jammers[j];
    if (!(jm.mean_on_us > 0.0) || !(jm.mean_off_us > 0.0)) continue;
    add(FaultSource(
        common::derive_seed(fault_seed, kStreamsPerNode * num_nodes + j),
        static_cast<std::uint32_t>(j), FaultKind::kJamOn, FaultKind::kJamOn,
        jm.mean_off_us, jm.mean_on_us, 0.0, duration_us));
  }
  return out;
}

}  // namespace sledzig::sim

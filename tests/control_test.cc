// Control-plane suite (DESIGN.md §18).
//
// Three layers, matching the architecture: the Controller's pure decision
// logic (hysteresis, hop patience/rotation/cooldown, duty shaping) fed
// hand-built epoch snapshots; the engine wiring (epoch events on the
// queue, actions applied at boundaries, inactive control leaving digests
// untouched); and the acceptance criteria — the controlled arm of the
// mixed-load A/B strictly improves aggregate ZigBee PRR without costing
// WiFi more than 5% throughput, and controlled runs (chaos included) stay
// bit-identical across 1/2/8-thread pools.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "control/controller.h"
#include "sim/engine.h"
#include "sim/invariants.h"

namespace sledzig::control {
namespace {

EpochSnapshot make_snapshot(std::uint64_t epoch, double epoch_us,
                            const std::vector<NodeObservation>& wifi,
                            const std::vector<NodeObservation>& zigbee) {
  EpochSnapshot s;
  s.epoch = epoch;
  s.time_us = static_cast<double>(epoch + 1) * epoch_us;
  s.epoch_us = epoch_us;
  s.wifi = wifi;
  s.zigbee = zigbee;
  return s;
}

NodeObservation mote_obs(std::uint64_t sent, std::uint64_t delivered,
                         double airtime_us) {
  NodeObservation o;
  o.generated = sent;
  o.sent = sent;
  o.delivered = delivered;
  o.airtime_us = airtime_us;
  return o;
}

TEST(Controller, SledzigHysteresisTogglesOnWindowActivity) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.epoch_us = 100000.0;
  cfg.sledzig.enabled = true;
  cfg.sledzig.on_threshold = 2;
  cfg.sledzig.off_threshold = 3;
  cfg.sledzig.busy_airtime_fraction = 0.01;
  std::vector<ZigbeeNodeContext> ctx(1);
  ctx[0].overlap = 0;
  Controller ctrl(cfg, ctx, /*num_wifi=*/1, /*sledzig_engaged=*/false);

  const std::vector<NodeObservation> wifi(1);
  const std::vector<NodeObservation> busy = {mote_obs(10, 10, 5000.0)};
  const std::vector<NodeObservation> idle(1);

  // One busy epoch is not enough (on_threshold == 2).
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(0, cfg.epoch_us, wifi, busy)).empty());
  EXPECT_FALSE(ctrl.sledzig_engaged());
  // Second consecutive busy epoch engages.
  auto actions = ctrl.on_epoch(make_snapshot(1, cfg.epoch_us, wifi, busy));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ActionKind::kSledzig);
  EXPECT_EQ(actions[0].value, 1.0);
  EXPECT_TRUE(ctrl.sledzig_engaged());
  // Release needs off_threshold == 3 consecutive idle epochs, exactly.
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(2, cfg.epoch_us, wifi, idle)).empty());
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(3, cfg.epoch_us, wifi, idle)).empty());
  actions = ctrl.on_epoch(make_snapshot(4, cfg.epoch_us, wifi, idle));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ActionKind::kSledzig);
  EXPECT_EQ(actions[0].value, 0.0);
  EXPECT_FALSE(ctrl.sledzig_engaged());
}

TEST(Controller, BelowBusyFractionCountsAsIdle) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.epoch_us = 100000.0;
  cfg.sledzig.enabled = true;
  cfg.sledzig.on_threshold = 1;
  cfg.sledzig.off_threshold = 1;
  cfg.sledzig.busy_airtime_fraction = 0.05;
  std::vector<ZigbeeNodeContext> ctx(1);
  ctx[0].overlap = 2;
  Controller ctrl(cfg, ctx, 1, false);

  const std::vector<NodeObservation> wifi(1);
  // 2% of the epoch on air: under the 5% activity bar, never engages.
  const std::vector<NodeObservation> faint = {mote_obs(3, 3, 2000.0)};
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(0, cfg.epoch_us, wifi, faint)).empty());
  EXPECT_FALSE(ctrl.sledzig_engaged());
  // 6% clears it.
  const std::vector<NodeObservation> busy = {mote_obs(3, 3, 6000.0)};
  const auto actions =
      ctrl.on_epoch(make_snapshot(1, cfg.epoch_us, wifi, busy));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].value, 1.0);
}

TEST(Controller, HopWaitsForPatienceRotatesCandidatesAndCoolsDown) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.epoch_us = 100000.0;
  cfg.hop.enabled = true;
  cfg.hop.min_prr = 0.85;
  cfg.hop.patience = 2;
  cfg.hop.cooldown_epochs = 3;
  std::vector<ZigbeeNodeContext> ctx(1);
  ctx[0].candidates = {21, 22};
  Controller ctrl(cfg, ctx, 0, true);

  const std::vector<NodeObservation> wifi;
  const std::vector<NodeObservation> bad = {mote_obs(10, 1, 4000.0)};
  const std::vector<NodeObservation> silent(1);  // sent == 0: no PRR signal

  // Busy epoch under min_prr: below = 1 < patience.
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(0, cfg.epoch_us, wifi, bad)).empty());
  // An idle epoch carries no signal either way.
  EXPECT_TRUE(
      ctrl.on_epoch(make_snapshot(1, cfg.epoch_us, wifi, silent)).empty());
  // Second bad busy epoch: hop to the first (quietest) candidate.
  auto actions = ctrl.on_epoch(make_snapshot(2, cfg.epoch_us, wifi, bad));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ActionKind::kZigbeeChannel);
  EXPECT_EQ(actions[0].node, 0u);
  EXPECT_EQ(actions[0].value, 21.0);
  // Cooldown holds even though the PRR stays terrible...
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(3, cfg.epoch_us, wifi, bad)).empty());
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(4, cfg.epoch_us, wifi, bad)).empty());
  // ...and once it expires the rotation tries the next candidate.
  actions = ctrl.on_epoch(make_snapshot(5, cfg.epoch_us, wifi, bad));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].value, 22.0);
}

TEST(Controller, HealthyPrrResetsHopPatience) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.epoch_us = 100000.0;
  cfg.hop.enabled = true;
  cfg.hop.min_prr = 0.85;
  cfg.hop.patience = 2;
  cfg.hop.cooldown_epochs = 0;
  std::vector<ZigbeeNodeContext> ctx(1);
  ctx[0].candidates = {16};
  Controller ctrl(cfg, ctx, 0, true);

  const std::vector<NodeObservation> wifi;
  const std::vector<NodeObservation> bad = {mote_obs(10, 1, 4000.0)};
  const std::vector<NodeObservation> good = {mote_obs(10, 10, 4000.0)};
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(0, cfg.epoch_us, wifi, bad)).empty());
  // A healthy epoch wipes the consecutive-below count.
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(1, cfg.epoch_us, wifi, good)).empty());
  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(2, cfg.epoch_us, wifi, bad)).empty());
  EXPECT_EQ(ctrl.on_epoch(make_snapshot(3, cfg.epoch_us, wifi, bad)).size(),
            1u);
}

TEST(Controller, DutyShapingThrottlesEveryWifiSourceAndReleases) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.epoch_us = 100000.0;
  cfg.duty.enabled = true;
  cfg.duty.min_zigbee_prr = 0.9;
  cfg.duty.rate_scale = 0.5;
  cfg.duty.patience = 2;
  cfg.duty.release = 2;
  std::vector<ZigbeeNodeContext> ctx(1);
  Controller ctrl(cfg, ctx, /*num_wifi=*/2, true);

  const std::vector<NodeObservation> wifi(2);
  const std::vector<NodeObservation> bad = {mote_obs(10, 5, 4000.0)};
  const std::vector<NodeObservation> good = {mote_obs(10, 10, 4000.0)};

  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(0, cfg.epoch_us, wifi, bad)).empty());
  EXPECT_FALSE(ctrl.shaping());
  auto actions = ctrl.on_epoch(make_snapshot(1, cfg.epoch_us, wifi, bad));
  ASSERT_EQ(actions.size(), 2u);  // one throttle per WiFi source
  for (std::size_t i = 0; i < actions.size(); ++i) {
    EXPECT_EQ(actions[i].kind, ActionKind::kWifiRateScale);
    EXPECT_EQ(actions[i].node, i);
    EXPECT_EQ(actions[i].value, 0.5);
  }
  EXPECT_TRUE(ctrl.shaping());

  EXPECT_TRUE(ctrl.on_epoch(make_snapshot(2, cfg.epoch_us, wifi, good)).empty());
  actions = ctrl.on_epoch(make_snapshot(3, cfg.epoch_us, wifi, good));
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].value, 1.0);
  EXPECT_FALSE(ctrl.shaping());
}

}  // namespace
}  // namespace sledzig::control

namespace sledzig::sim {
namespace {

std::size_t count_trace(const SimResult& r, TraceType type) {
  std::size_t n = 0;
  for (const auto& e : r.trace) n += (e.type == type) ? 1 : 0;
  return n;
}

void expect_conservation(const SimResult& r, const std::string& context) {
  std::size_t node = 0;
  for (const auto* side : {&r.wifi, &r.zigbee}) {
    for (const auto& n : *side) {
      EXPECT_EQ(n.generated, n.delivered + n.queue_dropped + n.cca_dropped +
                                 n.retry_exhausted + n.lost_to_crash +
                                 n.in_flight_at_end)
          << context << " node " << node;
      ++node;
    }
  }
}

double aggregate_zigbee_prr(const SimResult& r) {
  double sent = 0.0;
  double delivered = 0.0;
  for (const auto& n : r.zigbee) {
    sent += static_cast<double>(n.sent);
    delivered += static_cast<double>(n.delivered);
  }
  return sent > 0.0 ? delivered / sent : 0.0;
}

double total_wifi_throughput_kbps(const SimResult& r) {
  double sum = 0.0;
  for (const auto& n : r.wifi) sum += n.throughput_kbps;
  return sum;
}

TEST(ControlPlane, InactiveControlLeavesDigestsUntouched) {
  // control.enabled without any policy is a no-op by contract: no epoch
  // events on the queue, digest byte-identical to the pre-control engine.
  auto base = control_ab_scenario(false, /*duration_s=*/0.5, 33);
  base.metrics = nullptr;
  const auto plain = run_scenario(base);
  auto armed = base;
  armed.control.enabled = true;  // active() still false: no policy on
  armed.control.epoch_us = 50000.0;
  const auto r = run_scenario(armed);
  EXPECT_EQ(plain.trace_digest, r.trace_digest);
  EXPECT_EQ(plain.events_processed, r.events_processed);
}

TEST(ControlPlane, EpochEventsAndActionsLandInTheTrace) {
  auto cfg = control_ab_scenario(true, /*duration_s=*/1.0, 7);
  cfg.record_trace = true;
  cfg.metrics = nullptr;
  const auto r = run_scenario(cfg);
  expect_conservation(r, "controlled-ab");
  // Epoch boundaries at 0.1s .. 0.9s (the horizon itself is not observed).
  EXPECT_EQ(count_trace(r, TraceType::kControlEpoch), 9u);
  // The congested motes must actually hop in this topology.
  EXPECT_GT(count_trace(r, TraceType::kControlHop), 0u);
  for (const auto& e : r.trace) {
    if (e.type == TraceType::kControlHop) {
      EXPECT_GE(e.aux, 11);
      EXPECT_LE(e.aux, 26);
    }
  }
}

TEST(ControlPlane, ControlledRunsAreBitIdenticalAcrossThreadCounts) {
  auto cfg = control_ab_scenario(true, /*duration_s=*/0.5, 11);
  cfg.metrics = nullptr;
  const auto once = run_scenario(cfg);
  const auto again = run_scenario(cfg);
  ASSERT_EQ(once.trace_digest, again.trace_digest);

  constexpr std::size_t kReps = 8;
  std::vector<std::vector<SimResult>> by_pool;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    common::ThreadPool pool(threads);
    by_pool.push_back(run_replications(pool, cfg, kReps));
  }
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t p = 1; p < by_pool.size(); ++p) {
      EXPECT_EQ(by_pool[0][rep].trace_digest, by_pool[p][rep].trace_digest)
          << "replication " << rep << " differs between pools";
    }
  }
}

/// The A/B topology under every fault family at once with all three
/// policies armed — the control-plane chaos leg.
ScenarioConfig controlled_chaos_scenario(std::uint64_t seed) {
  auto cfg = control_ab_scenario(true, /*duration_s=*/0.4, seed);
  cfg.control.duty.enabled = true;
  cfg.control.duty.min_zigbee_prr = 0.9;
  cfg.control.duty.rate_scale = 0.5;
  cfg.control.duty.patience = 2;
  cfg.control.duty.release = 4;

  auto& rnd = cfg.faults.random;
  rnd.crash_rate_per_s = 4.0;
  rnd.mean_downtime_us = 30000.0;
  rnd.mute_rate_per_s = 2.0;
  rnd.mean_mute_us = 15000.0;
  rnd.surge_rate_per_s = 2.0;
  rnd.mean_surge_us = 40000.0;
  rnd.surge_magnitude = 4.0;

  JammerConfig jam;
  jam.pos = {3.0, 1.5};  // on top of the congested motes
  jam.mean_on_us = 2000.0;
  jam.mean_off_us = 30000.0;
  cfg.faults.jammers.push_back(jam);
  cfg.faults.clocks = {{/*skew_us=*/120.0, /*drift_ppm=*/80.0},
                       {-40.0, -120.0},
                       {15.0, 200.0}};

  cfg.invariants.enabled = true;
  cfg.metrics = nullptr;
  return cfg;
}

TEST(ControlPlane, ChaosSchedulesWithPoliciesHoldInvariantsAcross1_2_8Threads) {
  constexpr std::size_t kSchedules = 30;
  const auto cfg = controlled_chaos_scenario(0xC0A71);
  const std::vector<std::size_t> pools = {1, 2, 8};
  std::vector<std::vector<SimResult>> by_pool;
  for (const std::size_t threads : pools) {
    common::ThreadPool pool(threads);
    try {
      by_pool.push_back(run_replications(pool, cfg, kSchedules));
    } catch (const InvariantViolation& v) {
      FAIL() << "invariant violated with " << threads
             << " thread(s) — replay: controlled_chaos_scenario, seed "
             << v.seed() << ", t=" << v.time_us() << " us\n  " << v.what();
    }
  }
  std::size_t crashed = 0;
  for (std::size_t rep = 0; rep < kSchedules; ++rep) {
    const auto& base = by_pool.front()[rep];
    const std::string ctx = "schedule " + std::to_string(rep);
    expect_conservation(base, ctx);
    for (std::size_t p = 1; p < by_pool.size(); ++p) {
      ASSERT_EQ(base.trace_digest, by_pool[p][rep].trace_digest)
          << ctx << ": digest differs between " << pools[0] << " and "
          << pools[p] << " threads";
    }
    for (const auto* side : {&base.wifi, &base.zigbee}) {
      for (const auto& n : *side) crashed += n.lost_to_crash;
    }
  }
  EXPECT_GT(crashed, 0u) << "chaos sweep never crashed a frame";
}

TEST(ControlPlane, ControllerBeatsStaticSledzigOnMixedWorkload) {
  // The acceptance A/B (ISSUE 10): same topology, traffic and seed; the
  // only difference is the runtime controller.  The controlled arm must
  // strictly improve aggregate ZigBee PRR and keep WiFi within 5%.
  constexpr double kDuration = 2.0;
  constexpr std::uint64_t kSeed = 2026;
  auto fixed = control_ab_scenario(false, kDuration, kSeed);
  auto controlled = control_ab_scenario(true, kDuration, kSeed);
  fixed.metrics = nullptr;
  controlled.metrics = nullptr;
  const auto a = run_scenario(fixed);
  const auto b = run_scenario(controlled);
  expect_conservation(a, "static arm");
  expect_conservation(b, "controlled arm");

  const double static_prr = aggregate_zigbee_prr(a);
  const double controlled_prr = aggregate_zigbee_prr(b);
  const double static_wifi = total_wifi_throughput_kbps(a);
  const double controlled_wifi = total_wifi_throughput_kbps(b);
  EXPECT_GT(controlled_prr, static_prr)
      << "controller failed to improve aggregate ZigBee PRR ("
      << controlled_prr << " vs " << static_prr << ")";
  EXPECT_GE(controlled_wifi, 0.95 * static_wifi)
      << "controller cost WiFi more than 5% throughput ("
      << controlled_wifi << " vs " << static_wifi << " kbps)";
}

}  // namespace
}  // namespace sledzig::sim

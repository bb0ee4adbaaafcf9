// Chaos suite for the fault-injection layer (DESIGN.md §14).
//
// The headline test sweeps ~200 seeded random fault schedules — crashes,
// reboots, mute/deaf windows, jammer bursts, traffic surges, clock defects
// all enabled at once — with runtime invariant checking on, and asserts
// every schedule (a) holds all invariants, (b) conserves packets exactly,
// and (c) produces bit-identical trace digests across pools of 1, 2 and 8
// threads.  Any failure prints the replication's derived seed; re-running
// the same config with that seed reproduces the violation bit-for-bit.
//
// The rest of the file pins down each fault family in isolation: timed
// crash/reboot semantics, TX abort on the air, mute/deaf windows, surges,
// jammers, clock drift, and fault-source determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/invariants.h"

namespace sledzig::sim {
namespace {

constexpr std::size_t kSweepSchedules = 200;

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

/// Three nodes (one WiFi link, two ZigBee pairs) under every random fault
/// process at once, plus a bursty jammer and skewed/drifting clocks, with
/// invariants on.
ScenarioConfig chaos_scenario(std::uint64_t seed, double duration_s = 0.4) {
  auto cfg = two_node_paper_scenario(core::SledzigConfig{}, true,
                                     /*wifi_duty_ratio=*/0.5, /*d_wz_m=*/4.0,
                                     /*d_z_m=*/1.0, duration_s, seed);
  ZigbeeNodeConfig mote2;
  mote2.tx = {6.0, 2.0};
  mote2.rx = {6.0, 3.0};
  mote2.mac.max_frame_retries = 3;
  mote2.traffic = {TrafficKind::kPoisson, 8000.0, 1.0};
  cfg.zigbee.push_back(mote2);

  auto& rnd = cfg.faults.random;
  rnd.crash_rate_per_s = 4.0;
  rnd.mean_downtime_us = 30000.0;
  rnd.mute_rate_per_s = 3.0;
  rnd.mean_mute_us = 15000.0;
  rnd.deaf_rate_per_s = 3.0;
  rnd.mean_deaf_us = 15000.0;
  rnd.surge_rate_per_s = 2.0;
  rnd.mean_surge_us = 40000.0;
  rnd.surge_magnitude = 4.0;

  JammerConfig jam;
  jam.pos = {5.0, 1.0};
  jam.mean_on_us = 2000.0;
  jam.mean_off_us = 30000.0;
  cfg.faults.jammers.push_back(jam);

  cfg.faults.clocks = {{/*skew_us=*/120.0, /*drift_ppm=*/80.0},
                       {-40.0, -120.0},
                       {15.0, 200.0}};

  cfg.invariants.enabled = true;
  cfg.metrics = nullptr;  // sweeps share the process registry otherwise
  return cfg;
}

void run_sweep(std::size_t schedules, const std::vector<std::size_t>& pools) {
  const auto cfg = chaos_scenario(0xC0FFEE);
  std::vector<std::vector<SimResult>> by_pool;
  for (const std::size_t threads : pools) {
    common::ThreadPool pool(threads);
    try {
      by_pool.push_back(run_replications(pool, cfg, schedules));
    } catch (const InvariantViolation& v) {
      FAIL() << "invariant violated with " << threads
             << " thread(s) — replay: chaos_scenario config, seed "
             << v.seed() << ", t=" << v.time_us() << " us\n  " << v.what();
    }
  }
  std::size_t crashed_schedules = 0;
  std::size_t jam_or_mute_traffic = 0;
  for (std::size_t rep = 0; rep < schedules; ++rep) {
    const std::uint64_t rep_seed = common::derive_seed(cfg.seed, rep);
    const auto& base = by_pool.front()[rep];
    const std::string ctx =
        "schedule " + std::to_string(rep) + " (replay seed " +
        std::to_string(rep_seed) + ")";
    expect_conservation(base, ctx);
    for (std::size_t p = 1; p < by_pool.size(); ++p) {
      ASSERT_EQ(base.trace_digest, by_pool[p][rep].trace_digest)
          << ctx << ": digest differs between " << pools[0] << " and "
          << pools[p] << " threads";
    }
    std::size_t lost = 0;
    std::size_t failed = 0;
    for (const auto* side : {&base.wifi, &base.zigbee}) {
      for (const auto& n : *side) {
        lost += n.lost_to_crash;
        failed += n.retry_exhausted;
      }
    }
    if (lost > 0) ++crashed_schedules;
    if (failed > 0) ++jam_or_mute_traffic;
  }
  // The sweep must actually bite: with these rates a large majority of
  // schedules crash at least one frame out of a queue and lose traffic to
  // the channel.  A quiet sweep means the fault plan silently stopped
  // compiling, not that the engine got lucky.
  EXPECT_GT(crashed_schedules, schedules / 4) << "sweep barely crashed";
  EXPECT_GT(jam_or_mute_traffic, schedules / 4) << "sweep barely interfered";
}

TEST(ChaosSweep, SchedulesHoldInvariantsWithIdenticalDigestsAcross1_2_8Threads) {
  run_sweep(kSweepSchedules, {1, 2, 8});
}

// Nightly-depth sweep: 1000 schedules, opt-in via SLEDZIG_CHAOS_LONG=1
// (the CI nightly matrix leg sets it; default runs skip).
TEST(ChaosSweep, LongSweepBehindEnvFlag) {
  if (std::getenv("SLEDZIG_CHAOS_LONG") == nullptr) {
    GTEST_SKIP() << "set SLEDZIG_CHAOS_LONG=1 for the nightly-depth sweep";
  }
  run_sweep(1000, {1, 8});
}

TEST(ChaosSweep, ReplayFromSeedIsBitIdentical) {
  auto cfg = chaos_scenario(0xBADC0DE);
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  cfg.seed = 0xBADC0DF;
  const auto c = run_scenario(cfg);
  EXPECT_NE(a.trace_digest, c.trace_digest)
      << "different seed produced the same fault timeline";
}

TEST(ChaosSweep, DriftingCountdownNeverRunsTimeBackwards) {
  // In this schedule a drifting WiFi node's countdown is overdue when the
  // medium goes idle again: its stretched timer would have fired after the
  // node's own deferral end.  Re-armed there, it must fire now, not at a
  // virtual time already behind the event being processed.
  const auto cfg = chaos_scenario(4344);
  try {
    expect_conservation(run_scenario(cfg), "seed 4344");
  } catch (const InvariantViolation& v) {
    FAIL() << v.what();
  }
}

/// Every action of every source, one list per source.
std::vector<std::vector<FaultAction>> drain(const FaultPlanConfig& plan,
                                            std::uint64_t seed,
                                            double duration_us,
                                            std::size_t num_nodes) {
  std::vector<std::vector<FaultAction>> out;
  for (auto& src : fault_sources(plan, seed, duration_us, num_nodes)) {
    auto& actions = out.emplace_back();
    do {
      actions.push_back(src.next());
    } while (src.advance());
  }
  return out;
}

TEST(FaultCompile, ScheduleIsDeterministicSortedAndSeedSensitive) {
  const auto cfg = chaos_scenario(7);
  const double horizon_us = cfg.duration_s * 1e6;
  const auto a = drain(cfg.faults, 7, horizon_us, 3);
  const auto b = drain(cfg.faults, 7, horizon_us, 3);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << "source " << s;
    for (std::size_t i = 0; i < a[s].size(); ++i) {
      EXPECT_EQ(a[s][i].at_us, b[s][i].at_us);
      EXPECT_EQ(a[s][i].kind, b[s][i].kind);
      EXPECT_EQ(a[s][i].node, b[s][i].node);
      EXPECT_EQ(a[s][i].magnitude, b[s][i].magnitude);
    }
    for (std::size_t i = 1; i < a[s].size(); ++i) {
      EXPECT_LE(a[s][i - 1].at_us, a[s][i].at_us)
          << "source " << s << " not time-ordered";
    }
    for (const auto& act : a[s]) {
      EXPECT_GE(act.at_us, 0.0);
      EXPECT_LT(act.at_us, horizon_us);
    }
  }
  const auto c = drain(cfg.faults, 8, horizon_us, 3);
  const auto same = [](const FaultAction& x, const FaultAction& y) {
    return x.at_us == y.at_us && x.kind == y.kind;
  };
  EXPECT_TRUE(c.size() != a.size() ||
              !std::equal(a.begin(), a.end(), c.begin(),
                          [&](const auto& x, const auto& y) {
                            return std::equal(x.begin(), x.end(), y.begin(),
                                              y.end(), same);
                          }))
      << "seed does not reach the fault streams";
}

TEST(FaultCompile, TimedWindowEmitsItsRecoveryInsideTheHorizon) {
  FaultPlanConfig plan;
  plan.timed.push_back(
      {FaultKind::kCrash, /*node=*/0, /*at_us=*/1000.0, /*duration_us=*/500.0,
       /*magnitude=*/4.0});
  plan.timed.push_back(  // recovery would land past the horizon: dropped
      {FaultKind::kMuteOn, 1, 9800.0, 5000.0, 4.0});
  const auto sources = drain(plan, 1, /*duration_us=*/10000.0,
                             /*num_nodes=*/2);
  // Each timed action is a source of its own that fires once.
  ASSERT_EQ(sources.size(), 3u);
  for (const auto& s : sources) ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(sources[0][0].kind, FaultKind::kCrash);
  EXPECT_EQ(sources[0][0].at_us, 1000.0);
  EXPECT_EQ(sources[1][0].kind, FaultKind::kReboot);
  EXPECT_EQ(sources[1][0].at_us, 1500.0);
  EXPECT_EQ(sources[2][0].kind, FaultKind::kMuteOn);
  EXPECT_EQ(sources[2][0].at_us, 9800.0);  // stays muted until the horizon
}

/// Saturated two-node baseline for the targeted fault-family tests: WiFi is
/// always backlogged, so a crash at any instant catches it mid-service.
ScenarioConfig saturated_scenario(std::uint64_t seed) {
  auto cfg = two_node_paper_scenario(core::SledzigConfig{}, true,
                                     /*wifi_duty_ratio=*/1.0, 4.0, 1.0,
                                     /*duration_s=*/1.0, seed);
  cfg.invariants.enabled = true;
  cfg.record_trace = true;
  cfg.metrics = nullptr;
  return cfg;
}

std::size_t count_trace(const SimResult& r, TraceType type) {
  std::size_t n = 0;
  for (const auto& e : r.trace) n += (e.type == type) ? 1 : 0;
  return n;
}

TEST(FaultFamilies, CrashAbortsTheInFlightBurstAndDrainsTheQueue) {
  auto cfg = saturated_scenario(5);
  cfg.faults.timed.push_back(
      {FaultKind::kCrash, /*node=*/0, 3.0e5, 2.0e5, 4.0});
  const auto r = run_scenario(cfg);
  expect_conservation(r, "timed-crash");
  EXPECT_EQ(count_trace(r, TraceType::kNodeCrash), 1u);
  EXPECT_EQ(count_trace(r, TraceType::kNodeReboot), 1u);
  // Saturated WiFi is mid-burst at any instant: the crash must abort it.
  EXPECT_EQ(count_trace(r, TraceType::kTxAborted), 1u);
  EXPECT_GE(r.wifi[0].lost_to_crash, 1u);
  // The dead half-second transmits nothing: airtime is well below the
  // fault-free saturated run's.
  cfg.faults.timed.clear();
  const auto clean = run_scenario(cfg);
  EXPECT_LT(r.wifi[0].airtime_us, clean.wifi[0].airtime_us);
  EXPECT_NE(r.trace_digest, clean.trace_digest);
  // No transmissions may start inside the dead window.
  for (const auto& e : r.trace) {
    if (e.node == 0 && e.type == TraceType::kTxStart) {
      EXPECT_FALSE(e.time_us > 3.0e5 && e.time_us < 5.0e5)
          << "dead node transmitted at t=" << e.time_us;
    }
  }
}

TEST(FaultFamilies, CrashWithoutRebootLeavesTheNodeDownUntilHorizon) {
  auto cfg = saturated_scenario(6);
  cfg.faults.timed.push_back(
      {FaultKind::kCrash, /*node=*/1, 2.0e5, /*duration_us=*/0.0, 4.0});
  const auto r = run_scenario(cfg);
  expect_conservation(r, "crash-no-reboot");
  EXPECT_EQ(count_trace(r, TraceType::kNodeCrash), 1u);
  EXPECT_EQ(count_trace(r, TraceType::kNodeReboot), 0u);
  for (const auto& e : r.trace) {
    if (e.node == 1 && e.type == TraceType::kArrival) {
      EXPECT_LE(e.time_us, 2.0e5) << "dead node kept generating traffic";
    }
  }
}

TEST(FaultFamilies, MutedTransmitterBurnsAttemptsWithoutAirtime) {
  auto cfg = saturated_scenario(7);
  cfg.faults.timed.push_back(
      {FaultKind::kMuteOn, /*node=*/0, 2.0e5, 4.0e5, 4.0});
  const auto r = run_scenario(cfg);
  expect_conservation(r, "mute-window");
  EXPECT_EQ(count_trace(r, TraceType::kMute), 2u);  // on + off
  const std::size_t muted = count_trace(r, TraceType::kTxMuted);
  EXPECT_GT(muted, 0u);
  // WiFi never retries: every muted attempt is terminal.
  EXPECT_GE(r.wifi[0].retry_exhausted, muted);
  cfg.faults.timed.clear();
  const auto clean = run_scenario(cfg);
  EXPECT_LT(r.wifi[0].airtime_us, clean.wifi[0].airtime_us);
}

TEST(FaultFamilies, DeafReceiverLosesDeliveriesWithoutTouchingTheAir) {
  auto cfg = saturated_scenario(8);
  // Quiet channel for the mote: push WiFi far away so only deafness loses
  // frames.
  cfg.wifi[0].tx = {40.0, 0.0};
  cfg.wifi[0].rx = {40.0, 3.0};
  cfg.zigbee[0].mac.max_frame_retries = 0;
  const auto clean = run_scenario(cfg);
  cfg.faults.timed.push_back(
      {FaultKind::kDeafOn, /*node=*/1, 1.0e5, 6.0e5, 4.0});
  const auto r = run_scenario(cfg);
  expect_conservation(r, "deaf-window");
  EXPECT_EQ(count_trace(r, TraceType::kDeaf), 2u);
  EXPECT_LT(r.zigbee[0].delivered, clean.zigbee[0].delivered);
  // TX side is untouched: the mote keeps transmitting into its deaf ear.
  EXPECT_EQ(r.zigbee[0].sent, clean.zigbee[0].sent);
}

TEST(FaultFamilies, SurgeMultipliesTheArrivalRateInsideItsWindow) {
  auto cfg = saturated_scenario(9);
  cfg.faults.timed.push_back(
      {FaultKind::kSurgeOn, /*node=*/1, 1.0e5, 8.0e5, /*magnitude=*/5.0});
  const auto r = run_scenario(cfg);
  expect_conservation(r, "surge-window");
  EXPECT_EQ(count_trace(r, TraceType::kSurge), 2u);
  cfg.faults.timed.clear();
  const auto clean = run_scenario(cfg);
  EXPECT_GT(r.zigbee[0].generated, clean.zigbee[0].generated * 3 / 2)
      << "surge did not visibly raise the offered load";
}

TEST(FaultFamilies, JammerBurstsDegradeTheNearbyZigbeeLink) {
  auto cfg = saturated_scenario(10);
  // Quiet channel again, then park a jammer on top of the mote's receiver.
  cfg.wifi[0].tx = {40.0, 0.0};
  cfg.wifi[0].rx = {40.0, 3.0};
  const auto clean = run_scenario(cfg);
  JammerConfig jam;
  jam.pos = cfg.zigbee[0].rx;
  jam.mean_on_us = 4000.0;
  jam.mean_off_us = 4000.0;
  cfg.faults.jammers.push_back(jam);
  const auto r = run_scenario(cfg);
  expect_conservation(r, "jammer");
  EXPECT_GT(count_trace(r, TraceType::kJam), 0u);
  EXPECT_LT(r.zigbee[0].delivered, clean.zigbee[0].delivered)
      << "a co-located 50% duty jammer must cost deliveries";
  const auto r2 = run_scenario(cfg);
  EXPECT_EQ(r.trace_digest, r2.trace_digest);
}

TEST(FaultFamilies, ClockDriftPerturbsTimingButConservesEveryFrame) {
  auto cfg = saturated_scenario(11);
  const auto nominal = run_scenario(cfg);
  cfg.faults.clocks = {{0.0, 0.0}, {/*skew_us=*/500.0, /*drift_ppm=*/5000.0}};
  const auto skewed = run_scenario(cfg);
  expect_conservation(skewed, "clock-drift");
  EXPECT_NE(nominal.trace_digest, skewed.trace_digest);
  const auto skewed2 = run_scenario(cfg);
  EXPECT_EQ(skewed.trace_digest, skewed2.trace_digest);
}

TEST(FaultFamilies, FaultInstantsLandInTheObsTraceLog) {
  auto cfg = saturated_scenario(12);
  cfg.faults.timed.push_back({FaultKind::kCrash, 0, 3.0e5, 2.0e5, 4.0});
  const auto r = run_scenario(cfg);
  const obs::TraceLog log = render_spans(r);
  expect_conservation(r, "obs-instants");
  bool saw_crash = false;
  bool saw_reboot = false;
  for (const auto& e : log.events()) {
    saw_crash |= (e.name == "crash");
    saw_reboot |= (e.name == "reboot");
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_reboot);
}

TEST(FaultFamilies, FaultFreePlanLeavesTheDigestUntouched) {
  // A FaultPlanConfig that exists but cannot fire (rates all zero, no timed
  // entries, nominal clocks) must not perturb the run at all.
  auto cfg = saturated_scenario(13);
  const auto clean = run_scenario(cfg);
  cfg.faults.clocks = {{0.0, 0.0}, {0.0, 0.0}};
  cfg.invariants.enabled = true;
  const auto armed = run_scenario(cfg);
  EXPECT_EQ(clean.trace_digest, armed.trace_digest);
}

}  // namespace
}  // namespace sledzig::sim

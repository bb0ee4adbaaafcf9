// Tests for the discrete-event multi-node coexistence engine: determinism
// (golden trace, repeated runs, replication thread-invariance) and the
// paper's headline trends emerging from the event sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "wifi/phy_params.h"
#include "wifi/signal_field.h"

namespace sledzig::sim {
namespace {

/// Asserts the per-node packet-conservation identity: every generated
/// frame ends in exactly one terminal bucket.
void expect_conservation(const SimResult& r, const char* context) {
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

/// One saturated WiFi link 4 m from one ZigBee pair — the paper's Fig 4
/// geometry, strong margins everywhere (no verdict rides on a borderline
/// libm result).
ScenarioConfig fig4_scenario(bool sledzig_on, double duration_s = 5.0) {
  return two_node_paper_scenario(core::SledzigConfig{}, sledzig_on,
                                 /*wifi_duty_ratio=*/1.0, /*d_wz_m=*/4.0,
                                 /*d_z_m=*/1.0, duration_s, /*seed=*/11);
}

TEST(SimEngine, SaturatedWifiAloneFillsTheChannel) {
  ScenarioConfig cfg;
  cfg.wifi.push_back(WifiNodeConfig{});
  cfg.wifi[0].rx = {0.0, 3.0};
  cfg.duration_s = 2.0;
  cfg.seed = 3;
  const auto r = run_scenario(cfg);
  ASSERT_EQ(r.wifi.size(), 1u);
  EXPECT_GT(r.wifi[0].airtime_fraction, 0.9);
  EXPECT_DOUBLE_EQ(r.wifi[0].prr, 1.0);  // nothing to collide with
  EXPECT_GT(r.wifi[0].throughput_kbps, 1000.0);
}

TEST(SimEngine, TwoContendingWifiNodesShareAndSometimesCollide) {
  ScenarioConfig cfg;
  for (int i = 0; i < 2; ++i) {
    WifiNodeConfig ap;
    ap.tx = {2.0 * i, 0.0};
    ap.rx = {2.0 * i, 3.0};
    cfg.wifi.push_back(ap);
  }
  cfg.duration_s = 5.0;
  cfg.seed = 5;
  const auto r = run_scenario(cfg);
  const double total =
      r.wifi[0].airtime_fraction + r.wifi[1].airtime_fraction;
  // Energy-detect deferral shares the channel roughly evenly; same-slot
  // picks overlap, so the sum can exceed 1 slightly and PRR dips below 1.
  EXPECT_GT(total, 0.9);
  EXPECT_GT(r.wifi[0].airtime_fraction, 0.3);
  EXPECT_GT(r.wifi[1].airtime_fraction, 0.3);
  EXPECT_LT(r.wifi[0].prr, 1.0);
  EXPECT_GT(r.wifi[0].prr, 0.7);
}

TEST(SimEngine, NormalWifiBlocksZigbeeSledzigUnblocksIt) {
  // Fig 4 end to end: under normal WiFi the ZigBee CCA almost never
  // clears (channel-access failures, queue drops, ~0 throughput); under
  // SledZig the payload presents 20+ dB less in-band energy and the mote
  // runs at its interference-free ~63 Kbps.
  const auto normal = run_scenario(fig4_scenario(false));
  const auto sled = run_scenario(fig4_scenario(true));
  ASSERT_EQ(normal.zigbee.size(), 1u);
  EXPECT_GT(normal.zigbee[0].cca_dropped, 100u);
  EXPECT_GT(normal.zigbee[0].queue_dropped, 100u);
  EXPECT_LT(normal.zigbee[0].throughput_kbps, 10.0);
  EXPECT_EQ(sled.zigbee[0].cca_dropped, 0u);
  // Default config is QAM-16, whose smaller power reduction leaves some
  // symbol errors (the paper's Fig 14 QAM-16 case) — well short of the
  // 63 Kbps ceiling but an order of magnitude above the blocked channel.
  EXPECT_GT(sled.zigbee[0].throughput_kbps, 45.0);
  EXPECT_GT(sled.zigbee[0].throughput_kbps,
            10.0 * normal.zigbee[0].throughput_kbps);
  // The WiFi node never hears the mote (Fig 17): its schedule is
  // identical whether or not the mote transmits.
  EXPECT_EQ(normal.wifi[0].sent, sled.wifi[0].sent);
}

TEST(SimEngine, Fig16TrendZigbeeThroughputHigherWithSledzigAtEveryRatio) {
  for (const double ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const auto off = run_scenario(two_node_paper_scenario(
        core::SledzigConfig{}, false, ratio, 4.0, 1.0, 5.0, 11));
    const auto on = run_scenario(two_node_paper_scenario(
        core::SledzigConfig{}, true, ratio, 4.0, 1.0, 5.0, 11));
    EXPECT_GT(on.zigbee[0].throughput_kbps, off.zigbee[0].throughput_kbps)
        << "wifi traffic ratio " << ratio;
    EXPECT_GT(on.zigbee[0].throughput_kbps, 50.0) << "ratio " << ratio;
  }
}

// --- paper-testbed behaviours -------------------------------------------
//
// The two-node testbed behind Figs 14-16, asserted directly on the engine
// that the figure benches run.

const core::SledzigConfig kQam64Ch2{wifi::Modulation::kQam64,
                                    wifi::CodingRate::kR23,
                                    core::OverlapChannel::kCh2};
const core::SledzigConfig kQam64Ch3{wifi::Modulation::kQam64,
                                    wifi::CodingRate::kR23,
                                    core::OverlapChannel::kCh3};
const core::SledzigConfig kQam64Ch4{wifi::Modulation::kQam64,
                                    wifi::CodingRate::kR23,
                                    core::OverlapChannel::kCh4};
const core::SledzigConfig kQam256Ch4{wifi::Modulation::kQam256,
                                     wifi::CodingRate::kR34,
                                     core::OverlapChannel::kCh4};

TEST(ZigbeeCsma, InterferenceFreeThroughputNear63Kbps) {
  // The paper's standalone ZigBee throughput (section V-C1): the testbed
  // with its WiFi node removed.
  auto cfg = two_node_paper_scenario(core::SledzigConfig{}, false, 1.0, 4.0,
                                     /*d_z_m=*/0.5, 30.0, 307);
  cfg.wifi.clear();
  const auto z = run_scenario(cfg).zigbee[0];
  EXPECT_NEAR(z.throughput_kbps, 63.0, 4.0);
  EXPECT_EQ(z.sent, z.delivered);
}

TEST(ZigbeeCsma, StrongWifiBlocksChannelAccess) {
  // Saturated normal WiFi 1 m away sits far above the CCA threshold: the
  // mote cannot win the channel (Fig 4(a)).
  const auto z = run_scenario(two_node_paper_scenario(kQam64Ch2, false, 1.0,
                                                      1.0, 1.0, 30.0, 308))
                     .zigbee[0];
  EXPECT_LT(z.throughput_kbps, 8.0);
  EXPECT_GT(z.cca_dropped, z.delivered);
}

TEST(ZigbeeCsma, WeakWifiBelowCcaAndSinrHarmless) {
  // Normal WiFi 10 m away is audible but below both the CCA threshold and
  // any harmful SINR: the Fig 14 plateau.
  const auto z = run_scenario(two_node_paper_scenario(kQam64Ch4, false, 1.0,
                                                      10.0, 1.0, 30.0, 309))
                     .zigbee[0];
  EXPECT_NEAR(z.throughput_kbps, 63.0, 4.0);
}

TEST(ZigbeeCsma, InterferenceKillsFramesWhenSinrLow) {
  // CCA mostly clears but the payload SINR is hopeless: frames go on air
  // and die (Fig 4(b)).  The sensitivity cliff is moved out of the way so
  // every loss is the interferer's.
  auto cfg =
      two_node_paper_scenario(kQam64Ch4, false, 1.0, 6.0, 2.0, 30.0, 310);
  cfg.zigbee[0].sensitivity_dbm = common::Dbm{-120.0};
  const auto z = run_scenario(cfg).zigbee[0];
  EXPECT_GT(z.sent, 100u);
  EXPECT_LT(z.throughput_kbps, 10.0);
}

TEST(ZigbeeCsma, DeterministicGivenSeed) {
  const auto cfg =
      two_node_paper_scenario(kQam64Ch4, false, 1.0, 6.0, 1.0, 10.0, 311);
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_EQ(a.zigbee[0].delivered, b.zigbee[0].delivered);
  EXPECT_EQ(a.zigbee[0].throughput_kbps, b.zigbee[0].throughput_kbps);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

TEST(ZigbeeCsma, DutyRatioGapsEnableDelivery) {
  // Normal WiFi 1 m away blocks the channel whenever it transmits, but at
  // 30% duty the mote's frames squeeze into the gaps.
  const auto z = run_scenario(two_node_paper_scenario(kQam64Ch3, false, 0.3,
                                                      1.0, 0.5, 30.0, 312))
                     .zigbee[0];
  EXPECT_GT(z.throughput_kbps, 10.0);
  EXPECT_LT(z.throughput_kbps, 60.0);
}

TEST(SimEngine, FrameRetriesRaisePerFrameDelivery) {
  // A link near the sensitivity cliff loses a good share of its attempts.
  // With macMaxFrameRetries = 3 each frame gets up to four, so the share of
  // finished frames that were delivered must rise and retransmissions must
  // show up in `sent`.
  auto cfg =
      two_node_paper_scenario(kQam64Ch4, false, 1.0, 6.0, 1.8, 30.0, 313);
  const auto none = run_scenario(cfg).zigbee[0];
  cfg.zigbee[0].mac.max_frame_retries = 3;
  const auto three = run_scenario(cfg).zigbee[0];
  const auto delivered_share = [](const NodeStats& z) {
    return static_cast<double>(z.delivered) /
           static_cast<double>(z.delivered + z.retry_exhausted);
  };
  ASSERT_GT(none.sent, 100u);
  EXPECT_EQ(none.retries, 0u);
  EXPECT_GT(three.retries, 0u);
  EXPECT_GT(three.sent, three.delivered + three.retry_exhausted);
  EXPECT_GT(delivered_share(three), delivered_share(none) * 1.2)
      << "retries did not raise per-frame delivery";
}

TEST(Experiment, NormalWifiBlocksCloseZigbee) {
  // Fig 14(a): under saturated normal WiFi at short d_WZ the ZigBee link
  // is CCA-silenced.
  const auto r = run_scenario(
      two_node_paper_scenario(kQam64Ch2, false, 1.0, 3.0, 1.0, 20.0, 1));
  EXPECT_LT(r.zigbee[0].throughput_kbps, 8.0);
}

TEST(Experiment, NormalWifiFarAwayIsHarmless) {
  const auto r = run_scenario(
      two_node_paper_scenario(kQam64Ch2, false, 1.0, 14.0, 1.0, 20.0, 1));
  EXPECT_GT(r.zigbee[0].throughput_kbps, 40.0);
}

TEST(Experiment, SledzigEnablesCloserCoexistence) {
  // The headline mechanism: at a distance where normal WiFi silences the
  // ZigBee link, SledZig (QAM-256) restores most of its throughput.
  const auto normal = run_scenario(
      two_node_paper_scenario(kQam256Ch4, false, 1.0, 4.0, 1.0, 20.0, 1));
  const auto sled = run_scenario(
      two_node_paper_scenario(kQam256Ch4, true, 1.0, 4.0, 1.0, 20.0, 1));
  EXPECT_GT(sled.zigbee[0].throughput_kbps,
            normal.zigbee[0].throughput_kbps + 20.0);
}

class DutyRatios : public ::testing::TestWithParam<double> {};

TEST_P(DutyRatios, BusyFractionTracksDutyRatio) {
  // A lone duty-cycle WiFi source holds its airtime at the configured
  // ratio: Fig 16's x axis.
  ScenarioConfig cfg;
  WifiNodeConfig ap;
  ap.rx = {0.0, 3.0};
  ap.mac.airtime_us = 2500.0;
  ap.traffic = {TrafficKind::kDutyCycle, 0.0, GetParam()};
  cfg.wifi.push_back(ap);
  cfg.duration_s = 20.0;
  cfg.seed = 302;
  EXPECT_NEAR(run_scenario(cfg).wifi[0].airtime_fraction, GetParam(), 0.06);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DutyRatios,
                         ::testing::Values(0.2, 0.3, 0.5, 0.7, 0.9));

TEST(SimEngine, QueueDropAccountingBalances) {
  auto cfg = fig4_scenario(false, 2.0);
  cfg.queue_capacity = 2;
  const auto r = run_scenario(cfg);
  const auto& z = r.zigbee[0];
  EXPECT_GT(z.queue_dropped, 0u);
  // Exact conservation, not bounds: every generated frame is delivered,
  // dropped at the queue, dropped by CCA, lost on its final attempt, or
  // still queued/in flight at the horizon — nothing vanishes, nothing is
  // double-counted.
  expect_conservation(r, "queue-drop");
  // `sent` counts attempts: first transmissions plus one per retry.
  EXPECT_EQ(z.sent - z.retries,
            z.delivered + z.retry_exhausted +
                (z.generated - z.delivered - z.queue_dropped - z.cca_dropped -
                 z.retry_exhausted - z.in_flight_at_end));
}

TEST(SimEngine, ConservationHoldsAtEveryFig16TrafficRatio) {
  // The identity must survive every traffic regime: light WiFi (idle
  // channel, frames mostly delivered), heavy WiFi (CCA drops and queue
  // drops dominate), and the transition in between — for both schemes.
  for (const bool sledzig_on : {false, true}) {
    for (const double ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
      const auto r = run_scenario(two_node_paper_scenario(
          core::SledzigConfig{}, sledzig_on, ratio, 4.0, 1.0, 2.0, 11));
      expect_conservation(
          r, (std::string("ratio ") + std::to_string(ratio) +
              (sledzig_on ? " sledzig" : " normal"))
                 .c_str());
    }
  }
}

TEST(SimEngine, ConservationHoldsUnderRetriesAndCollisions) {
  // Two contending WiFi pairs plus a mote: collisions force WiFi losses
  // (retry_exhausted, no retries) and ZigBee retries; the identity must
  // hold with every bucket populated.
  ScenarioConfig cfg = fig4_scenario(false, 3.0);
  WifiNodeConfig second;
  second.tx = {1.0, 0.0};
  second.rx = {1.0, 3.0};
  cfg.wifi.push_back(second);
  const auto r = run_scenario(cfg);
  expect_conservation(r, "collisions");
  // WiFi never retries: a lost frame lands in retry_exhausted directly.
  EXPECT_EQ(r.wifi[0].retries, 0u);
  EXPECT_EQ(r.wifi[0].sent,
            r.wifi[0].delivered + r.wifi[0].retry_exhausted);
}

TEST(SimEngine, RepeatedRunsAreBitIdentical) {
  auto cfg = fig4_scenario(true, 2.0);
  cfg.record_trace = true;
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].time_us, b.trace[i].time_us) << "event " << i;
    EXPECT_EQ(a.trace[i].node, b.trace[i].node) << "event " << i;
    EXPECT_EQ(a.trace[i].type, b.trace[i].type) << "event " << i;
  }
}

TEST(SimEngine, DigestMatchesWithAndWithoutTraceRecording) {
  auto cfg = fig4_scenario(true, 2.0);
  cfg.record_trace = false;
  const auto quiet = run_scenario(cfg);
  cfg.record_trace = true;
  const auto traced = run_scenario(cfg);
  EXPECT_EQ(quiet.trace_digest, traced.trace_digest);
  EXPECT_TRUE(quiet.trace.empty());
  EXPECT_FALSE(traced.trace.empty());
}

TEST(SimEngine, GoldenEventTraceOpensAsExpected) {
  // The run's opening sentence is fixed by construction: the saturated
  // WiFi node's frame arrives at t=0, it wins DIFS + backoff on an idle
  // medium and transmits; the ZigBee mote's first CBR arrival follows.
  auto cfg = fig4_scenario(true, 1.0);
  cfg.record_trace = true;
  const auto r = run_scenario(cfg);
  ASSERT_GE(r.trace.size(), 3u);
  EXPECT_EQ(r.trace[0].type, TraceType::kArrival);
  EXPECT_EQ(r.trace[0].node, 0u);
  EXPECT_EQ(r.trace[0].time_us, 0.0);
  // First transmission on air is the WiFi node's, after DIFS (28) +
  // 0..15 backoff slots (9 each); the mote's first CBR arrival may land
  // in between but its CCA + turnaround take >= 320 us.
  const auto first_tx = std::find_if(
      r.trace.begin(), r.trace.end(),
      [](const TraceEvent& e) { return e.type == TraceType::kTxStart; });
  ASSERT_NE(first_tx, r.trace.end());
  EXPECT_EQ(first_tx->node, 0u);
  EXPECT_GE(first_tx->time_us, 28.0);
  EXPECT_LE(first_tx->time_us, 28.0 + 15.0 * 9.0);
  // Every trace timestamp is non-decreasing and inside the horizon.
  double prev = 0.0;
  for (const auto& e : r.trace) {
    EXPECT_GE(e.time_us, prev);
    prev = e.time_us;
  }
  EXPECT_LE(prev, 1e6 + 5000.0);  // tail transmissions may cross the horizon
}

TEST(SimEngine, ReplicationsAreThreadInvariant) {
  const auto cfg = fig4_scenario(true, 1.0);
  constexpr std::size_t kReps = 8;

  std::vector<std::vector<SimResult>> runs;
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, hw}) {
    common::ThreadPool pool(threads);
    runs.push_back(run_replications(pool, cfg, kReps));
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), kReps);
    for (std::size_t i = 0; i < kReps; ++i) {
      EXPECT_EQ(runs[t][i].trace_digest, runs[0][i].trace_digest)
          << "replication " << i << " pool " << t;
      EXPECT_EQ(runs[t][i].zigbee[0].delivered, runs[0][i].zigbee[0].delivered);
      EXPECT_EQ(runs[t][i].wifi[0].delivered, runs[0][i].wifi[0].delivered);
    }
  }
}

TEST(SimEngine, ReplicationsDifferFromEachOther) {
  const auto cfg = fig4_scenario(true, 1.0);
  const auto runs = run_replications(cfg, 4);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_NE(runs[0].trace_digest, runs[1].trace_digest);
  EXPECT_NE(runs[1].trace_digest, runs[2].trace_digest);
}

TEST(SimEngine, RejectsBadConfigs) {
  ScenarioConfig cfg;
  cfg.wifi.push_back(WifiNodeConfig{});
  cfg.duration_s = 0.0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  cfg.duration_s = 1.0;
  cfg.queue_capacity = 0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

TEST(SimEngine, DistanceFloorsAtTenCentimetres) {
  EXPECT_DOUBLE_EQ(distance_m({1.0, 1.0}, {1.0, 1.0}), 0.1);
  EXPECT_DOUBLE_EQ(distance_m({0.0, 0.0}, {3.0, 4.0}), 5.0);
}

TEST(EventQueue, EqualTimeEventsPopInPushOrder) {
  EventQueue q;
  for (std::uint32_t n = 0; n < 100; ++n) {
    q.push(42.0, EventType::kArrival, n);
  }
  // FIFO at equal timestamps: node order == push order, seq strictly
  // increasing — heap internals never leak into the pop order.
  std::uint64_t prev_seq = 0;
  for (std::uint32_t n = 0; n < 100; ++n) {
    ASSERT_FALSE(q.empty());
    const Event e = q.pop();
    EXPECT_EQ(e.node, n);
    if (n > 0) {
      EXPECT_GT(e.seq, prev_seq);
    }
    prev_seq = e.seq;
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PushedCountsAndSeqsNeverAlias) {
  EventQueue q;
  std::vector<std::uint64_t> seqs;
  // Interleave pushes and pops: seq allocation must stay monotone across
  // the drains, so pushed() == number of distinct seqs ever handed out.
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t n = 0; n < 20; ++n) {
      q.push(static_cast<double>(round), EventType::kTimer, n,
             /*token=*/static_cast<std::uint64_t>(round));
    }
    while (!q.empty()) seqs.push_back(q.pop().seq);
  }
  EXPECT_EQ(q.pushed(), seqs.size());
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end())
      << "duplicate seq handed out";
}

TEST(EventQueue, CancelledTimersNeverMatchTheRearmedToken) {
  // The engine's cancellation protocol: re-arming bumps the node token,
  // orphaning every earlier timer.  Flood one node with arm/cancel cycles
  // and verify exactly the final arm survives the staleness check.
  EventQueue q;
  std::uint64_t node_token = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ++node_token;  // re-arm: cancels the previous timer
    q.push(5.0, EventType::kTimer, 0, node_token);
  }
  std::size_t fired = 0;
  std::size_t stale = 0;
  while (!q.empty()) {
    const Event e = q.pop();
    if (e.token == node_token) {
      ++fired;
    } else {
      ++stale;
      EXPECT_LT(e.token, node_token) << "a cancelled timer aliased a re-arm";
    }
  }
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(stale, 999u);
}

TEST(SimEngine, StaleTimersAreDiscardedAndCounted) {
  // Two contending WiFi nodes cancel each other's backoff timers through
  // medium_busy/medium_idle re-arms all run long.  The stale events must
  // be discarded (the run stays deterministic and conservative) and show
  // up in the sim.timer.stale counter.
  obs::Registry reg;
  ScenarioConfig cfg;
  for (int i = 0; i < 2; ++i) {
    WifiNodeConfig ap;
    ap.tx = {2.0 * i, 0.0};
    ap.rx = {2.0 * i, 3.0};
    cfg.wifi.push_back(ap);
  }
  cfg.duration_s = 2.0;
  cfg.seed = 7;
  cfg.metrics = &reg;
  const auto r = run_scenario(cfg);
  expect_conservation(r, "stale-timer flood");
  const auto snap = reg.snapshot();
  EXPECT_GT(snap.counter("sim.timer.stale"), 0u);
  // Processed events cannot exceed pushes, and the event census adds up.
  EXPECT_EQ(snap.counter("sim.events"),
            snap.counter("sim.events.arrival") +
                snap.counter("sim.events.timer") +
                snap.counter("sim.events.tx_end"));
}

TEST(ScenarioValidate, CleanConfigHasNoErrors) {
  const auto cfg = two_node_paper_scenario(core::SledzigConfig{}, true, 0.5,
                                           4.0, 1.0, 1.0, 1);
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ScenarioValidate, ReportsEveryProblemWithItsFieldPath) {
  // One config, many defects: validate() must return all of them in one
  // pass, each tagged with the dotted path of the offending field.
  ScenarioConfig cfg;
  cfg.duration_s = -1.0;           // bad
  cfg.queue_capacity = 0;          // bad
  // empty topology                // bad
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 3u) << describe(errors);
  const auto has = [&](const std::string& field) {
    for (const auto& e : errors) {
      if (e.field == field) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("duration_s"));
  EXPECT_TRUE(has("queue_capacity"));
  EXPECT_TRUE(has("wifi/zigbee"));
  // describe() folds everything into one human-readable blob.
  EXPECT_NE(describe(errors).find("duration_s"), std::string::npos);
}

TEST(ScenarioValidate, RejectsNanPowersAndZeroDutyCycle) {
  ScenarioConfig cfg;
  WifiNodeConfig ap;
  ap.usrp_gain = std::numeric_limits<double>::quiet_NaN();
  ap.traffic = {TrafficKind::kDutyCycle, 0.0, 0.0};  // on-fraction == 0
  cfg.wifi.push_back(ap);
  ZigbeeNodeConfig mote;
  mote.tx = {std::numeric_limits<double>::infinity(), 0.0};
  mote.traffic = {TrafficKind::kCbr, -5.0, 1.0};
  cfg.zigbee.push_back(mote);
  const auto errors = cfg.validate();
  EXPECT_EQ(errors.size(), 4u) << describe(errors);
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsModulationRateWithoutRateCode) {
  // QAM-256 has no rate-1/2 mode.  The link tables synthesise a frame in
  // the configured mode even with SledZig off, so without this check the
  // run would throw from deep inside the WiFi transmitter instead.
  for (const bool sledzig_on : {false, true}) {
    auto cfg = two_node_paper_scenario(
        core::SledzigConfig{wifi::Modulation::kQam256, wifi::CodingRate::kR12,
                            core::OverlapChannel::kCh3},
        sledzig_on, 0.5, 4.0, 1.0, 1.0, 1);
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u) << describe(errors);
    EXPECT_EQ(errors[0].field, "sledzig.rate");
    EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
    cfg.sledzig.rate = wifi::CodingRate::kR34;
    EXPECT_TRUE(cfg.validate().empty());
  }
}

TEST(ScenarioValidate, RejectsBadMacParametersAtTheirFieldPaths) {
  // Each of these used to get past validate(): cw = 0 threw from inside the
  // WiFi machine, max_be >= 64 was an undefined shift in the backoff draw,
  // and a negative interval scheduled events in the past.
  auto cfg = two_node_paper_scenario(core::SledzigConfig{}, true, 0.5, 4.0,
                                     1.0, 1.0, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto& w = cfg.wifi[0].mac;
  w.cw = 0;
  w.difs_us = -1.0;
  w.slot_us = nan;
  w.preamble_us = inf;
  auto& z = cfg.zigbee[0].mac;
  z.max_be = 70;
  z.backoff_period_us = -320.0;
  z.cca_us = nan;
  z.turnaround_us = -1.0;
  z.ack_wait_us = -inf;
  const std::vector<std::string> expected = {
      "wifi[0].mac.cw",
      "wifi[0].mac.difs_us",
      "wifi[0].mac.slot_us",
      "wifi[0].mac.preamble_us",
      "zigbee[0].mac.max_be",
      "zigbee[0].mac.backoff_period_us",
      "zigbee[0].mac.cca_us",
      "zigbee[0].mac.turnaround_us",
      "zigbee[0].mac.ack_wait_us"};
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), expected.size()) << describe(errors);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(errors[k].field, expected[k]);
  }
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);

  // The edges stay legal: zero intervals, cw 1, macMaxBE 8, and min_be
  // above max_be (the machine clamps it).
  w = mac::WifiMacParams{};
  w.cw = 1;
  w.difs_us = 0.0;
  z = mac::ZigbeeMacParams{};
  z.max_be = 8;
  z.min_be = 9;
  z.turnaround_us = 0.0;
  EXPECT_TRUE(cfg.validate().empty()) << describe(cfg.validate());
}

TEST(ScenarioValidate, RejectsMalformedFaultPlans) {
  auto cfg = two_node_paper_scenario(core::SledzigConfig{}, true, 0.5, 4.0,
                                     1.0, 1.0, 1);
  cfg.faults.timed.push_back({FaultKind::kCrash, /*node=*/99, 1e5, 0.0, 4.0});
  cfg.faults.random.crash_rate_per_s = -1.0;
  cfg.faults.random.mute_rate_per_s = 2.0;
  cfg.faults.random.mean_mute_us = 0.0;  // enabled process, degenerate mean
  JammerConfig jam;
  jam.mean_on_us = 100.0;  // on without off
  cfg.faults.jammers.push_back(jam);
  cfg.faults.clocks.assign(3, ClockConfig{});  // more clocks than nodes
  const auto errors = cfg.validate();
  EXPECT_EQ(errors.size(), 5u) << describe(errors);
}

TEST(ScenarioValidate, RejectsSledzigPlansThatAbortOrStallARun) {
  // Each plan used to get past validate(): the scrambler throws on seed 0
  // or 128 (and masks 200 to 72), forced_data_subcarriers throws above 48,
  // building the forced set throws for a 40 MHz plan without windows or a
  // window of negative width, and a plan that forces all 48 data
  // subcarriers (or 45 of them, under one 20 MHz-wide window) leaves a
  // frame so little room that its run never ends or overflows the PSDU.
  using Plan = core::SledzigConfig;
  const std::pair<const char*, void (*)(Plan&)> cases[] = {
      {"sledzig.scrambler_seed", [](Plan& s) { s.scrambler_seed = 0; }},
      {"sledzig.scrambler_seed", [](Plan& s) { s.scrambler_seed = 128; }},
      {"sledzig.scrambler_seed", [](Plan& s) { s.scrambler_seed = 200; }},
      {"sledzig.forced_subcarriers",
       [](Plan& s) { s.forced_subcarriers = 49; }},
      {"sledzig.window_offsets_hz",
       [](Plan& s) { s.width = wifi::ChannelWidth::k40MHz; }},
      {"sledzig.window_bandwidth_hz",
       [](Plan& s) {
         s.window_offsets_hz = {3e6};
         s.window_bandwidth_hz = -2e6;
       }},
      {"sledzig", [](Plan& s) { s.forced_subcarriers = 48; }},
      {"sledzig",
       [](Plan& s) {
         s.window_offsets_hz = {3e6};
         s.window_bandwidth_hz = 20e6;
       }},
  };
  for (const auto& [field, apply] : cases) {
    Plan plan{wifi::Modulation::kQam64, wifi::CodingRate::kR23,
              core::OverlapChannel::kCh2};
    apply(plan);
    const auto cfg =
        two_node_paper_scenario(plan, true, 0.5, 4.0, 1.0, 0.2, 1);
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u) << field << "\n" << describe(errors);
    EXPECT_EQ(errors[0].field, field);
    EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  }

  // The edges stay legal: seeds 1 and 127, and 40 forced subcarriers,
  // which leave a frame room (slow to encode, but a valid plan).
  for (const std::uint8_t seed : {1, 127}) {
    Plan plan{wifi::Modulation::kQam64, wifi::CodingRate::kR23,
              core::OverlapChannel::kCh2};
    plan.scrambler_seed = seed;
    plan.forced_subcarriers = 40;
    const auto cfg =
        two_node_paper_scenario(plan, true, 0.5, 4.0, 1.0, 0.2, 1);
    EXPECT_TRUE(cfg.validate().empty()) << describe(cfg.validate());
  }
}

TEST(ScenarioValidate, OnlyAnEncodingSledzigNeedsQam16AndRoom) {
  // SledZig forces lowest-power points, which BPSK and QPSK lack, and its
  // extra bits must leave coex's reference frame room in one PSDU.  Both
  // matter only where SledZig can encode: switched on, or armed through
  // its control policy.  With SledZig off every mode that has a RATE code
  // validates clean, and validate() never throws.
  for (const auto m : {wifi::Modulation::kBpsk, wifi::Modulation::kQpsk,
                       wifi::Modulation::kQam16, wifi::Modulation::kQam64,
                       wifi::Modulation::kQam256}) {
    for (const auto r : {wifi::CodingRate::kR12, wifi::CodingRate::kR23,
                         wifi::CodingRate::kR34, wifi::CodingRate::kR56}) {
      if (!wifi::has_rate_code(m, r)) continue;
      for (const int engage : {0, 1, 2}) {
        auto cfg = two_node_paper_scenario({m, r, core::OverlapChannel::kCh2},
                                           engage == 1, 0.5, 4.0, 1.0, 0.2, 1);
        cfg.control.enabled = cfg.control.sledzig.enabled = engage == 2;
        SCOPED_TRACE(wifi::to_string(m) + " " + wifi::to_string(r) +
                     " engage " + std::to_string(engage));
        std::vector<ConfigError> errors;
        ASSERT_NO_THROW(errors = cfg.validate());
        if (engage == 0 || wifi::bits_per_subcarrier(m) >= 4) {
          EXPECT_TRUE(errors.empty()) << describe(errors);
        } else {
          ASSERT_EQ(errors.size(), 1u) << describe(errors);
          EXPECT_EQ(errors[0].field, "sledzig.modulation");
        }
      }
    }
  }

  // QAM-64 3/4 carries 216 data bits a symbol: 45 forced subcarriers take
  // 180 of them and leave the frame room, 46 take 184 and do not.
  core::SledzigConfig dense{wifi::Modulation::kQam64, wifi::CodingRate::kR34,
                            core::OverlapChannel::kCh2};
  dense.forced_subcarriers = 46;
  auto cfg = two_node_paper_scenario(dense, true, 0.5, 4.0, 1.0, 0.2, 1);
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 1u) << describe(errors);
  EXPECT_EQ(errors[0].field, "sledzig");
  cfg.sledzig_enabled = false;
  EXPECT_TRUE(cfg.validate().empty()) << describe(cfg.validate());
  cfg.sledzig_enabled = true;
  cfg.sledzig.forced_subcarriers = 45;
  EXPECT_TRUE(cfg.validate().empty()) << describe(cfg.validate());

  // A normal-WiFi BPSK run goes through.
  const auto bpsk = two_node_paper_scenario(
      {wifi::Modulation::kBpsk, wifi::CodingRate::kR12,
       core::OverlapChannel::kCh2},
      false, 0.5, 4.0, 1.0, 0.05, 1);
  EXPECT_NO_THROW(run_scenario(bpsk));
}

TEST(ScenarioValidate, ConditionalRulesReportTheirOwnMessage) {
  // A rule that narrows a field's declared range under a condition reports
  // its own text in place of the range's, once, so the message names what
  // the value has to reach.
  using Mutate = void (*)(ScenarioConfig&);
  const std::tuple<const char*, const char*, Mutate> cases[] = {
      {"zigbee[0].traffic.interval_us", "must be finite and > 0",
       [](ScenarioConfig& c) { c.zigbee[0].traffic.interval_us = -5.0; }},
      {"wifi[0].traffic.duty_ratio", "must be in (0, 1]",
       [](ScenarioConfig& c) { c.wifi[0].traffic.duty_ratio = 1.5; }},
      {"faults.timed[0].magnitude", "must be finite and > 0",
       [](ScenarioConfig& c) {
         c.faults.timed.push_back({FaultKind::kSurgeOn, 1, 0.0, 1e4, -1.0});
       }},
      {"faults.random.mean_mute_us",
       "must be finite and > 0 when the rate is > 0",
       [](ScenarioConfig& c) {
         c.faults.random.mute_rate_per_s = 1.0;
         c.faults.random.mean_mute_us = -1.0;
       }},
      {"faults.random.surge_magnitude", "must be finite and > 0",
       [](ScenarioConfig& c) {
         c.faults.random.surge_rate_per_s = 1.0;
         c.faults.random.surge_magnitude = -1.0;
       }},
      {"control.epoch_us", "must be finite and > 0",
       [](ScenarioConfig& c) {
         c.control.enabled = c.control.duty.enabled = true;
         c.control.epoch_us = -1.0;
       }},
      {"control.duty.rate_scale", "must be in (0, 1]",
       [](ScenarioConfig& c) {
         c.control.enabled = c.control.duty.enabled = true;
         c.control.duty.rate_scale = 1.5;
       }},
  };
  for (const auto& [field, message, mutate] : cases) {
    auto cfg = two_node_paper_scenario(core::SledzigConfig{}, true, 0.5, 4.0,
                                       1.0, 0.2, 1);
    mutate(cfg);
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u) << field << "\n" << describe(errors);
    EXPECT_EQ(errors[0].field, field);
    EXPECT_EQ(errors[0].message, message);
  }
}

TEST(ScenarioValidate, RejectsErrorModelsThatBendTheCurvesTheWrongWay) {
  // None of these was checked: a width <= 0 inverts or degenerates the
  // logistic curves, so a run went to completion with ZigBee PRR 0, and a
  // preamble error above 1 is no probability.
  using Model = mac::SymbolErrorModel;
  const std::pair<const char*, void (*)(Model&)> cases[] = {
      {"error_model.payload_width_db",
       [](Model& m) { m.payload_width_db = common::Db{-0.8}; }},
      {"error_model.payload_width_db",
       [](Model& m) { m.payload_width_db = common::Db{0.0}; }},
      {"error_model.sensitivity_width_db",
       [](Model& m) { m.sensitivity_width_db = common::Db{-0.4}; }},
      {"error_model.preamble_width_db",
       [](Model& m) { m.preamble_width_db = common::Db{0.0}; }},
      {"error_model.preamble_max_error",
       [](Model& m) { m.preamble_max_error = 3.0; }},
      {"error_model.payload_midpoint_db",
       [](Model& m) {
         m.payload_midpoint_db =
             common::Db{std::numeric_limits<double>::quiet_NaN()};
       }},
      {"error_model.preamble_midpoint_db",
       [](Model& m) {
         m.preamble_midpoint_db =
             common::Db{std::numeric_limits<double>::infinity()};
       }},
  };
  for (const auto& [field, apply] : cases) {
    auto cfg = two_node_paper_scenario(core::SledzigConfig{}, true, 0.5, 4.0,
                                       1.0, 0.2, 1);
    apply(cfg.error_model);
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u) << field << "\n" << describe(errors);
    EXPECT_EQ(errors[0].field, field);
  }
}

TEST(ScenarioValidate, RunReplicationsValidatesBeforeFanOut) {
  ScenarioConfig cfg;  // empty topology + nothing else set
  cfg.duration_s = 0.0;
  EXPECT_THROW(run_replications(cfg, 4), std::invalid_argument);
}

TEST(EventQueue, CancelWhilePoppedDoesNotResurrectTheTimer) {
  // The crash/reboot pattern: a timer is popped, and the handler itself
  // bumps the token (the node dies mid-handling).  Any sibling timer still
  // in the heap with the pre-crash token must come out stale.
  EventQueue q;
  std::uint64_t token = 1;
  q.push(1.0, EventType::kTimer, 0, token);
  q.push(2.0, EventType::kTimer, 0, token);  // sibling, same arm generation
  const Event first = q.pop();
  ASSERT_EQ(first.token, token);
  ++token;  // crash during handling
  q.push(3.0, EventType::kTimer, 0, token);  // reboot re-arms
  const Event sibling = q.pop();
  EXPECT_NE(sibling.token, token) << "pre-crash sibling survived the bump";
  const Event rearmed = q.pop();
  EXPECT_EQ(rearmed.token, token);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ArrivalEpochOrphansWholeChainAcrossCrashRebootChurn) {
  // Arrival events carry the node's epoch in the same token field.  Crash
  // (bump), reboot (push with new epoch), crash again, reboot again — only
  // arrivals stamped with the final epoch may be processed.
  EventQueue q;
  std::uint64_t epoch = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    q.push(10.0 * cycle, EventType::kArrival, 0, epoch);
    q.push(10.0 * cycle + 5.0, EventType::kArrival, 0, epoch);
    ++epoch;  // crash: both pending arrivals orphaned
  }
  q.push(1000.0, EventType::kArrival, 0, epoch);  // final reboot's chain
  std::size_t live = 0;
  std::size_t stale = 0;
  while (!q.empty()) {
    const Event e = q.pop();
    (e.token == epoch ? live : stale)++;
  }
  EXPECT_EQ(live, 1u);
  EXPECT_EQ(stale, 100u);
}

TEST(SimEngine, HorizonInsideRetryBackoffCountsFrameInFlight) {
  // A mote with retries enabled against a strong interferer: losses are
  // common, so some replication ends with the head frame mid-retry-backoff
  // (its next CCA timer suppressed by the horizon).  That frame must land
  // in in_flight_at_end — not vanish, not count as retry_exhausted.
  auto cfg = two_node_paper_scenario(core::SledzigConfig{}, false, 1.0, 4.0,
                                     1.8, 0.35, 21);
  for (auto& z : cfg.zigbee) z.mac.max_frame_retries = 3;
  bool saw_in_flight_with_retries = false;
  for (std::uint64_t seed = 1; seed <= 40 && !saw_in_flight_with_retries;
       ++seed) {
    cfg.seed = seed;
    const auto r = run_scenario(cfg);
    expect_conservation(r, "horizon-in-backoff");
    const auto& z = r.zigbee[0];
    if (z.in_flight_at_end > 0 && z.retries > 0) {
      saw_in_flight_with_retries = true;
    }
  }
  EXPECT_TRUE(saw_in_flight_with_retries)
      << "no seed ended inside a retry backoff; weaken the geometry";
}

}  // namespace
}  // namespace sledzig::sim

// Tests for the dense-deployment fast path (DESIGN.md §15): the link
// cache, interference-graph pruning, segment-run delivery, the notify
// adjacency, and the multi-channel topology layer.
//
// The headline property is *exact equivalence*: with pruning inert (the
// fixed 30 dB floor never fires at office ranges) the fast path must
// reproduce the per-symbol reference path bit-for-bit — same digest, same
// event count — on every scenario shape we ship.  Active pruning is an
// approximation by construction, so it is validated statistically instead,
// with the engine's own cross-check armed.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "common/parallel.h"
#include "common/units.h"
#include "sim/arbiter.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/link_cache.h"

namespace sledzig::sim {
namespace {

/// Runs a scenario with the fast path fully on (the default) or fully off
/// (per-symbol reference, no pruning) and returns the trace digest.
std::uint64_t digest_of(ScenarioConfig cfg, bool fast) {
  cfg.fastpath.segment_runs = fast;
  cfg.fastpath.prune = fast;
  return run_scenario(cfg).trace_digest;
}

void expect_fast_matches_reference(const ScenarioConfig& cfg,
                                   const char* context) {
  EXPECT_EQ(digest_of(cfg, true), digest_of(cfg, false)) << context;
}

TEST(FastPath, TwoNodePaperScenarioIsBitIdentical) {
  for (const bool sledzig_on : {false, true}) {
    for (const double duty : {1.0, 0.5}) {
      const auto cfg = two_node_paper_scenario(
          core::SledzigConfig{}, sledzig_on, duty, /*d_wz_m=*/4.0,
          /*d_z_m=*/1.0, /*duration_s=*/3.0, /*seed=*/17);
      expect_fast_matches_reference(
          cfg, sledzig_on ? "sledzig on" : "sledzig off");
    }
  }
}

TEST(FastPath, MultiNodeGridWithJammerAndFaultsIsBitIdentical) {
  ScenarioConfig cfg;
  cfg.duration_s = 2.0;
  cfg.seed = 23;
  for (int i = 0; i < 3; ++i) {
    WifiNodeConfig ap;
    ap.tx = {3.0 * i, 0.0};
    ap.rx = {3.0 * i, 2.0};
    ap.traffic = {TrafficKind::kDutyCycle, 0.0, 0.4};
    cfg.wifi.push_back(ap);
  }
  for (int j = 0; j < 3; ++j) {
    ZigbeeNodeConfig mote;
    mote.tx = {1.5 + 3.0 * j, 1.0};
    mote.rx = {1.5 + 3.0 * j, 1.5};
    cfg.zigbee.push_back(mote);
  }
  JammerConfig jam;
  jam.pos = {4.0, 4.0};
  jam.mean_on_us = 3000.0;
  jam.mean_off_us = 40000.0;
  cfg.faults.jammers.push_back(jam);
  cfg.faults.random.crash_rate_per_s = 0.5;
  cfg.faults.random.mean_downtime_us = 200000.0;
  expect_fast_matches_reference(cfg, "grid + jammer + crashes");
}

TEST(FastPath, CampusScenarioIsBitIdentical) {
  const auto cfg = campus_scenario(/*ap_grid_x=*/2, /*ap_grid_y=*/2,
                                   /*sensors_per_ap=*/3, /*spacing_m=*/20.0,
                                   /*duration_s=*/1.0, /*seed=*/31);
  // At 20 m spacing nothing reaches the default prune floor, so even with
  // pruning armed the fast path must be exact here.
  expect_fast_matches_reference(cfg, "campus 2x2x3");
}

TEST(FastPath, ReplicationDigestsAreThreadCountInvariant) {
  // The replication runner shares one link cache and reuses per-worker
  // workspaces; neither may leak state between runs or threads.
  const auto cfg = campus_scenario(2, 2, 2, 20.0, /*duration_s=*/0.5,
                                   /*seed=*/41);
  constexpr std::size_t kReps = 8;
  std::vector<std::vector<std::uint64_t>> digests;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::ThreadPool pool(threads);
    const auto runs = run_replications(pool, cfg, kReps);
    std::vector<std::uint64_t> d;
    for (const auto& r : runs) d.push_back(r.trace_digest);
    digests.push_back(std::move(d));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(FastPath, ControlledRunsAreBitIdentical) {
  // Control-plane retunes (SledZig toggles, ZigBee channel hops) rewrite
  // links mid-run through the same writer as the build-time fill, so both
  // arms must still agree after every retune.
  auto ab = control_ab_scenario(/*controlled=*/true, /*duration_s=*/1.0,
                                /*seed=*/11);
  ab.metrics = nullptr;
  auto campus = campus_scenario(/*ap_grid_x=*/3, /*ap_grid_y=*/3,
                                /*sensors_per_ap=*/4, /*spacing_m=*/20.0,
                                /*duration_s=*/1.0, /*seed=*/31);
  campus.control.enabled = true;
  campus.control.sledzig.enabled = true;
  campus.control.hop.enabled = true;
  campus.control.duty.enabled = true;
  campus.control.duty.min_zigbee_prr = 0.9;
  campus.faults.random.surge_rate_per_s = 2.0;
  campus.faults.random.mean_surge_us = 40000.0;
  campus.metrics = nullptr;

  std::size_t hops = 0;
  std::size_t toggles = 0;
  for (const auto* cfg : {&ab, &campus}) {
    ScenarioConfig traced = *cfg;
    traced.record_trace = true;
    const auto r = run_scenario(traced);
    for (const auto& e : r.trace) {
      hops += e.type == TraceType::kControlHop ? 1 : 0;
      toggles += e.type == TraceType::kControlSledzig ? 1 : 0;
    }
    EXPECT_EQ(r.trace_digest, digest_of(*cfg, /*fast=*/false));
  }
  // Both retune paths must actually run for the comparison to mean much.
  EXPECT_GT(hops, 0u);
  EXPECT_GT(toggles, 0u);
}

TEST(FastPath, SetLinkKeepsIndexAndAudibilityInStep) {
  // Two nodes: points 0 and 1 are CCA points, 2 and 3 receiver points.
  ArbiterTables t;
  t.num_nodes = 2;
  t.power.assign(4 * 2, SegmentPower{});
  t.audible.assign(2 * 2, 0);
  t.bit_words = 1;
  t.nonzero_bits.assign(4, 0);
  t.cca_threshold_dbm.assign(2, common::Dbm{-62.0});
  const common::MilliWatt loud = common::to_mw(common::Dbm{-40.0});
  const common::MilliWatt quiet = common::to_mw(common::Dbm{-90.0});

  // Above the CCA threshold: the bit and audibility are set.
  t.set_link(0, 1, {loud, loud});
  EXPECT_EQ(t.nonzero_bits[0], 0b10u);
  EXPECT_EQ(t.audible[0 * 2 + 1], 1);
  // Nonzero but under the threshold: indexed, yet inaudible.
  t.set_link(0, 1, {quiet, quiet});
  EXPECT_EQ(t.nonzero_bits[0], 0b10u);
  EXPECT_EQ(t.audible[0 * 2 + 1], 0);
  // A zero write clears both.
  t.set_link(0, 1, {loud, loud});
  t.set_link(0, 1, SegmentPower{});
  EXPECT_EQ(t.power[0 * 2 + 1].payload_mw, common::MilliWatt{});
  EXPECT_EQ(t.nonzero_bits[0], 0u);
  EXPECT_EQ(t.audible[0 * 2 + 1], 0);

  // A receiver-point write moves its own bit and never audibility.
  t.audible.assign(2 * 2, 7);  // sentinel: any write would be 0 or 1
  t.set_link(2 + 1, 0, {loud, loud});
  EXPECT_EQ(t.nonzero_bits[3], 0b01u);
  t.set_link(2 + 0, 1, {quiet, quiet});
  t.set_link(2 + 0, 1, SegmentPower{});
  EXPECT_EQ(t.nonzero_bits[2], 0u);
  for (const char a : t.audible) EXPECT_EQ(a, 7);
}

TEST(FastPath, ActivePruningMatchesReferenceStatistically) {
  // A WiFi duty source far from one mote.  At 10 km both of the mote's
  // links from it (CCA point and receiver point) fall under the 30 dB
  // prune floor; at 5 km they are still live, so the test sits just past
  // the prune decision.  Physically the AP barely perturbs a -91 dBm
  // noise floor, so delivered rates with and without pruning must agree
  // to statistical noise.
  const auto scenario = [](double ap_x_m) {
    ScenarioConfig cfg;
    cfg.duration_s = 2.0;
    cfg.seed = 57;
    WifiNodeConfig ap;
    ap.tx = {ap_x_m, 0.0};
    ap.rx = {ap_x_m, 2.0};
    ap.traffic = {TrafficKind::kDutyCycle, 0.0, 0.8};
    cfg.wifi.push_back(ap);
    ZigbeeNodeConfig mote;
    mote.tx = {0.0, 0.0};
    mote.rx = {0.0, 0.5};
    cfg.zigbee.push_back(mote);
    return cfg;
  };
  // Node 1 (the mote) of T = 2 listens at CCA point 1 and receiver point
  // T + 1 = 3; the AP is transmitter 0.
  const auto near = LinkCache::build(scenario(5000.0));
  const auto far = LinkCache::build(scenario(10000.0));
  for (const std::size_t point : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(near->at(point, 0).state, LinkState::kLive) << point;
    EXPECT_EQ(far->at(point, 0).state, LinkState::kPruned) << point;
  }

  const ScenarioConfig cfg = scenario(10000.0);
  constexpr std::size_t kReps = 40;
  const auto mean_prr = [&](bool prune) {
    ScenarioConfig c = cfg;
    c.fastpath.prune = prune;
    c.fastpath.cross_check = prune;  // armed: a bad prune would throw
    const auto runs = run_replications(c, kReps);
    double sum = 0.0;
    for (const auto& r : runs) sum += r.zigbee[0].prr;
    return sum / static_cast<double>(kReps);
  };
  const double pruned = mean_prr(true);
  const double reference = mean_prr(false);
  EXPECT_GT(reference, 0.5);  // the link itself must be healthy
  EXPECT_NEAR(pruned, reference, 0.02);
}

TEST(FastPath, CrossChannelWifiCellsDoNotDefer) {
  // Two saturated BSSs 2 m apart: on one channel they share the medium
  // (airtime sum ~1); on channels 1 and 11 their bands are disjoint, the
  // links are structurally zero, and both fill their channel.
  const auto airtime_sum = [](unsigned ch_a, unsigned ch_b) {
    ScenarioConfig cfg;
    cfg.duration_s = 2.0;
    cfg.seed = 5;
    for (const unsigned ch : {ch_a, ch_b}) {
      WifiNodeConfig ap;
      ap.tx = {cfg.wifi.size() * 2.0, 0.0};
      ap.rx = {cfg.wifi.size() * 2.0, 1.0};
      ap.channel = ch;
      cfg.wifi.push_back(ap);
    }
    const auto r = run_scenario(cfg);
    return r.wifi[0].airtime_fraction + r.wifi[1].airtime_fraction;
  };
  EXPECT_LT(airtime_sum(6, 6), 1.2);
  EXPECT_GT(airtime_sum(1, 11), 1.5);
}

TEST(FastPath, OverlapChannelMappingMatchesThePaperLayout) {
  using core::OverlapChannel;
  EXPECT_EQ(overlapping_zigbee_channel(1, OverlapChannel::kCh1), 11u);
  EXPECT_EQ(overlapping_zigbee_channel(1, OverlapChannel::kCh4), 14u);
  EXPECT_EQ(overlapping_zigbee_channel(6, OverlapChannel::kCh1), 16u);
  EXPECT_EQ(overlapping_zigbee_channel(6, OverlapChannel::kCh4), 19u);
  EXPECT_EQ(overlapping_zigbee_channel(11, OverlapChannel::kCh1), 21u);
  EXPECT_EQ(overlapping_zigbee_channel(11, OverlapChannel::kCh4), 24u);
  // The legacy sentinel is channel 6.
  EXPECT_EQ(overlapping_zigbee_channel(0, OverlapChannel::kCh2), 17u);
}

TEST(FastPath, ChannelValidationRejectsOutOfRangeChannels) {
  ScenarioConfig cfg;
  cfg.wifi.push_back(WifiNodeConfig{});
  cfg.wifi[0].channel = 14;  // only 1..13 modelled (20 MHz plan)
  cfg.zigbee.push_back(ZigbeeNodeConfig{});
  cfg.zigbee[0].channel = 5;  // 802.15.4 2.4 GHz band starts at 11
  const auto errs = cfg.validate();
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_EQ(errs[0].field, "wifi[0].channel");
  EXPECT_EQ(errs[1].field, "zigbee[0].channel");
}

TEST(FastPath, CampusGeneratorShapesAndValidates) {
  const auto cfg = campus_scenario(3, 2, 4, 25.0, 1.0, /*seed=*/7);
  EXPECT_EQ(cfg.wifi.size(), 6u);
  EXPECT_EQ(cfg.zigbee.size(), 24u);
  EXPECT_TRUE(cfg.validate().empty());
  for (const auto& ap : cfg.wifi) {
    EXPECT_TRUE(ap.channel == 1 || ap.channel == 6 || ap.channel == 11);
  }
  for (const auto& mote : cfg.zigbee) {
    EXPECT_GE(mote.channel, 11u);
    EXPECT_LE(mote.channel, 26u);
  }
}

TEST(FastPath, LinkCacheZeroesDisjointAndKeepsLegacyLinks) {
  ScenarioConfig cfg;
  cfg.duration_s = 1.0;
  WifiNodeConfig a;
  a.channel = 1;
  WifiNodeConfig b;
  b.tx = {2.0, 0.0};
  b.rx = {2.0, 1.0};
  b.channel = 11;
  cfg.wifi.push_back(a);
  cfg.wifi.push_back(b);
  const auto cache = LinkCache::build(cfg);
  // Disjoint bands: structurally silent both ways.
  EXPECT_EQ(cache->at(0, 1).state, LinkState::kZero);
  EXPECT_EQ(cache->at(1, 0).state, LinkState::kZero);
  // Own receive link: live (and never prunable).
  EXPECT_EQ(cache->at(2, 0).state, LinkState::kLive);
  EXPECT_EQ(cache->at(3, 1).state, LinkState::kLive);
}

TEST(FastPath, EventQueueStorageRecyclesWithoutLeakingState) {
  EventQueue q;
  q.push(3.0, EventType::kArrival, 1);
  q.push(1.0, EventType::kTimer, 2);
  q.push(2.0, EventType::kTxEnd, 3);
  EXPECT_EQ(q.pop().node, 2u);
  auto storage = q.release();
  EXPECT_TRUE(q.empty());

  EventQueue q2(std::move(storage));
  EXPECT_TRUE(q2.empty());  // recycled capacity, no recycled events
  q2.push(5.0, EventType::kArrival, 7);
  q2.push(4.0, EventType::kArrival, 8);
  EXPECT_EQ(q2.pop().node, 8u);
  EXPECT_EQ(q2.pop().node, 7u);
  EXPECT_TRUE(q2.empty());
}

}  // namespace
}  // namespace sledzig::sim

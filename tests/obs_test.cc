// Tests for the observability layer (src/obs): registry semantics, trace
// rendering, profiling hooks — and the two contracts the rest of the repo
// leans on: golden metrics are exact and run-stable, and attaching any obs
// sink never perturbs a digest-checked result.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coex/experiment.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace sledzig::obs {
namespace {

TEST(Metrics, CounterHistogramBasics) {
  Registry reg;
  auto c = reg.counter("c");
  c.inc();
  c.add(41);
  constexpr double kBounds[] = {1.0, 10.0, 100.0};
  auto h = reg.histogram("h", kBounds);
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(10.0);   // bucket 1 (<= 10, inclusive upper bound)
  h.observe(50.0);   // bucket 2
  h.observe(1e9);    // overflow bucket
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 42u);
  const auto* hd = snap.histogram("h");
  ASSERT_NE(hd, nullptr);
  ASSERT_EQ(hd->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hd->counts[0], 1u);
  EXPECT_EQ(hd->counts[1], 1u);
  EXPECT_EQ(hd->counts[2], 1u);
  EXPECT_EQ(hd->counts[3], 1u);
  EXPECT_EQ(hd->total, 4u);
  // Never-registered names read as zero/null, not as errors.
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(Metrics, SameNameSharesTheMetricAndBoundsMustMatch) {
  Registry reg;
  auto a = reg.counter("shared");
  auto b = reg.counter("shared");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.snapshot().counter("shared"), 2u);
  constexpr double kBounds[] = {1.0, 2.0};
  (void)reg.histogram("hist", kBounds);
  constexpr double kOther[] = {1.0, 3.0};
  EXPECT_THROW((void)reg.histogram("hist", kOther), std::invalid_argument);
}

TEST(Metrics, ParallelWritesSumExactlyForAnyThreadCount) {
  // The shared cells must sum to the same exact integers whether one thread
  // did all the work or many shared it.
  constexpr std::size_t kItems = 10000;
  std::vector<std::string> jsons;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Registry reg;
    auto c = reg.counter("work.items");
    constexpr double kBounds[] = {100.0, 1000.0, 5000.0};
    auto h = reg.histogram("work.index", kBounds);
    common::ThreadPool pool(threads);
    pool.for_each_index(kItems, [&](std::size_t i) {
      c.inc();
      h.observe(static_cast<double>(i));
    });
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("work.items"), kItems);
    jsons.push_back(snap.to_json());
  }
  EXPECT_EQ(jsons[0], jsons[1]);
}

TEST(Metrics, ResetZeroesEverything) {
  Registry reg;
  reg.counter("c").add(5);
  constexpr double kBounds[] = {1.0};
  reg.histogram("h", kBounds).observe(0.5);
  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 0u);
  const auto* hd = snap.histogram("h");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->total, 0u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;  // shadow memory swamps the RSS reading
#else
constexpr bool kSanitized = false;
#endif

/// Resident set size of this process in kB (VmRSS in /proc/self/status),
/// or -1 when it cannot be read.
long vm_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(Metrics, ShortLivedWriterThreadsLeaveNothingBehind) {
  // run_campaign builds a fresh ThreadPool per call, so a registry that kept
  // state per writing thread would grow with every call.  Each pool runs one
  // batch whose two items wait for each other to start, so the worker
  // thread, not only the caller, writes the counter before it exits.
  constexpr std::uint64_t kPools = 2000;
  Registry reg;
  const Counter items = reg.counter("items");
  const auto run_one_pool = [&items] {
    common::ThreadPool pool(2);
    std::latch both_started(2);
    pool.for_each_index(2, [&](std::size_t) {
      both_started.arrive_and_wait();
      items.inc();
    });
  };
  run_one_pool();  // warms the allocator and the thread-stack cache
  const long rss_before_kb = vm_rss_kb();
  for (std::uint64_t p = 1; p < kPools; ++p) run_one_pool();
  const long rss_after_kb = vm_rss_kb();
  EXPECT_EQ(reg.snapshot().counter("items"), 2 * kPools);
  if (!kSanitized) {
    ASSERT_GT(rss_before_kb, 0);
    EXPECT_LT(rss_after_kb - rss_before_kb, 2 * 1024)
        << "kB of RSS growth over " << kPools << " pools";
  }
}

TEST(Metrics, RssiMeasurementsObserveOncePerCall) {
  // The coex RSSI chains resolve their histogram handles once; every call
  // must still land exactly one observation in the global registry.
  constexpr std::uint64_t kCalls = 3;
  const auto total = [](const char* name) -> std::uint64_t {
    const auto snap = Registry::global().snapshot();
    const auto* h = snap.histogram(name);
    return h == nullptr ? 0 : h->total;
  };
  const std::uint64_t wifi_before = total("coex.rssi.wifi_at_zigbee_dbm");
  const std::uint64_t zigbee_before = total("coex.rssi.zigbee_dbm");
  for (std::uint64_t seed = 0; seed < kCalls; ++seed) {
    coex::measure_wifi_rssi_at_zigbee(core::SledzigConfig{},
                                      coex::Scheme::kSledzig, 15.0, 1.0, seed);
    coex::measure_zigbee_rssi(31, 1.0, seed);
  }
  EXPECT_EQ(total("coex.rssi.wifi_at_zigbee_dbm") - wifi_before, kCalls);
  EXPECT_EQ(total("coex.rssi.zigbee_dbm") - zigbee_before, kCalls);
}

TEST(Trace, ChromeJsonCarriesTracksSpansAndInstants) {
  TraceLog log;
  log.set_track_name(0, "wifi0");
  log.complete("tx", 0, 100, 250);
  log.instant("delivered", 0, 250);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].phase, 'X');
  EXPECT_EQ(log.events()[0].dur_us, 150u);
  EXPECT_EQ(log.events()[1].phase, 'i');
  const std::string json = log.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("wifi0"), std::string::npos);
  std::ostringstream jsonl;
  log.write_jsonl(jsonl);
  const std::string lines = jsonl.str();
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
}

TEST(Trace, ControlCharactersInNamesAreEscaped) {
  const std::string name = "a\nb\"c\x01";
  const std::string escaped = R"("a\nb\"c\u0001")";
  TraceLog log;
  log.set_track_name(0, name);
  log.complete(name, 0, 100, 250);
  const std::string json = log.chrome_json();
  EXPECT_NE(json.find("\"args\": {\"name\": " + escaped + "}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\": " + escaped + ", \"ph\": \"X\""),
            std::string::npos)
      << json;
  std::ostringstream jsonl;
  log.write_jsonl(jsonl);
  const std::string lines = jsonl.str();
  EXPECT_EQ(lines.rfind("{\"name\": " + escaped + ", ", 0), 0u) << lines;
  for (const std::string& out : {json, lines}) {
    EXPECT_EQ(out.find("a\nb"), std::string::npos) << "raw newline";
    EXPECT_EQ(out.find('\x01'), std::string::npos) << "raw control byte";
  }
}

TEST(Profile, ScopeAndReportAreSafeWhereverEnabled) {
  // Callable whether or not SLEDZIG_PROFILE is set; the report is textual,
  // never a crash.  (Wall-clock values are unasserted by design.)
  {
    SLEDZIG_PROF_SCOPE("obs_test.scope");
  }
  std::ostringstream report;
  profile_report(report);
  SUCCEED() << report.str().size();
}

/// The repo's reference scenario (Fig 4 geometry), short horizon.
sim::ScenarioConfig paper_scenario() {
  return sim::two_node_paper_scenario(core::SledzigConfig{}, true,
                                      /*wifi_duty_ratio=*/1.0, /*d_wz_m=*/4.0,
                                      /*d_z_m=*/1.0, /*duration_s=*/1.0,
                                      /*seed=*/11);
}

/// Every flushed frame and attempt counter equals its NodeStats sum over
/// the run's nodes, and the counters obey the same conservation identity
/// as NodeStats.
void expect_frame_counters_match(const Snapshot& snap,
                                 const sim::SimResult& r) {
  sim::NodeStats sum;
  for (const auto* side : {&r.wifi, &r.zigbee}) {
    for (const auto& n : *side) {
      sum.generated += n.generated;
      sum.delivered += n.delivered;
      sum.queue_dropped += n.queue_dropped;
      sum.cca_dropped += n.cca_dropped;
      sum.retry_exhausted += n.retry_exhausted;
      sum.lost_to_crash += n.lost_to_crash;
      sum.in_flight_at_end += n.in_flight_at_end;
      sum.sent += n.sent;
      sum.retries += n.retries;
    }
  }
  EXPECT_EQ(snap.counter("sim.frames.generated"), sum.generated);
  EXPECT_EQ(snap.counter("sim.frames.delivered"), sum.delivered);
  EXPECT_EQ(snap.counter("sim.frames.queue_dropped"), sum.queue_dropped);
  EXPECT_EQ(snap.counter("sim.frames.cca_dropped"), sum.cca_dropped);
  EXPECT_EQ(snap.counter("sim.frames.retry_exhausted"), sum.retry_exhausted);
  EXPECT_EQ(snap.counter("sim.frames.lost_to_crash"), sum.lost_to_crash);
  EXPECT_EQ(snap.counter("sim.frames.in_flight_at_end"),
            sum.in_flight_at_end);
  EXPECT_EQ(snap.counter("sim.tx.attempts"), sum.sent);
  EXPECT_EQ(snap.counter("sim.tx.retries"), sum.retries);
  EXPECT_EQ(snap.counter("sim.frames.generated"),
            snap.counter("sim.frames.delivered") +
                snap.counter("sim.frames.queue_dropped") +
                snap.counter("sim.frames.cca_dropped") +
                snap.counter("sim.frames.retry_exhausted") +
                snap.counter("sim.frames.lost_to_crash") +
                snap.counter("sim.frames.in_flight_at_end"));
}

TEST(GoldenMetrics, TwoNodeScenarioCountersMatchNodeStatsExactly) {
  Registry reg;
  auto cfg = paper_scenario();
  cfg.metrics = &reg;
  const auto r = sim::run_scenario(cfg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("sim.runs"), 1u);
  EXPECT_EQ(snap.counter("sim.events"), r.events_processed);
  expect_frame_counters_match(snap, r);
}

/// The paper scenario under every fault family: a crash that aborts the
/// saturated WiFi burst, a ZigBee mute window spanning that outage (so the
/// mote's muted attempts burn retries), a deaf window, a jammer on the
/// mote's receiver and a traffic surge.  Two mote crashes inside the mute
/// window (nothing on air) and a last WiFi crash without reboot make the
/// crash, reboot and abort counts differ, so a counter read from the wrong
/// TraceType shows.
sim::ScenarioConfig fault_heavy_scenario() {
  auto cfg = paper_scenario();
  cfg.record_trace = true;
  cfg.zigbee[0].mac.max_frame_retries = 3;
  cfg.faults.timed = {
      {sim::FaultKind::kCrash, /*node=*/0, 3.0e5, 2.0e5, 4.0},
      {sim::FaultKind::kMuteOn, /*node=*/1, 1.0e5, 3.0e5, 4.0},
      {sim::FaultKind::kDeafOn, /*node=*/1, 6.0e5, 1.0e5, 4.0},
      {sim::FaultKind::kSurgeOn, /*node=*/1, 8.0e5, 1.0e5, 3.0},
      {sim::FaultKind::kCrash, /*node=*/1, 2.0e5, 5.0e4, 4.0},
      {sim::FaultKind::kCrash, /*node=*/1, 3.5e5, 5.0e4, 4.0},
      {sim::FaultKind::kCrash, /*node=*/0, 9.5e5, 0.0, 4.0},
  };
  sim::JammerConfig jam;
  jam.pos = cfg.zigbee[0].rx;
  jam.mean_on_us = 2000.0;
  jam.mean_off_us = 20000.0;
  cfg.faults.jammers.push_back(jam);
  return cfg;
}

std::uint64_t count_trace(const sim::SimResult& r, sim::TraceType type) {
  return static_cast<std::uint64_t>(std::count_if(
      r.trace.begin(), r.trace.end(),
      [type](const sim::TraceEvent& e) { return e.type == type; }));
}

void expect_event_counters_sum(const Snapshot& snap) {
  EXPECT_EQ(snap.counter("sim.events"),
            snap.counter("sim.events.arrival") +
                snap.counter("sim.events.timer") +
                snap.counter("sim.events.tx_end") +
                snap.counter("sim.events.fault") +
                snap.counter("sim.events.control"));
}

TEST(GoldenMetrics, FaultCountersMatchTheRecordedTrace) {
  Registry reg;
  auto cfg = fault_heavy_scenario();
  cfg.metrics = &reg;
  const auto r = sim::run_scenario(cfg);
  const auto snap = reg.snapshot();
  using sim::TraceType;
  // The scenario exercises every family it claims to.
  EXPECT_GT(count_trace(r, TraceType::kTxAborted), 0u);
  EXPECT_GT(count_trace(r, TraceType::kTxMuted), 0u);
  EXPECT_GT(count_trace(r, TraceType::kRetry), 0u);
  EXPECT_EQ(count_trace(r, TraceType::kDeaf), 2u);
  EXPECT_EQ(count_trace(r, TraceType::kSurge), 2u);
  EXPECT_GT(count_trace(r, TraceType::kJam), 0u);

  EXPECT_EQ(snap.counter("sim.faults.crashes"),
            count_trace(r, TraceType::kNodeCrash));
  EXPECT_EQ(snap.counter("sim.faults.reboots"),
            count_trace(r, TraceType::kNodeReboot));
  EXPECT_EQ(snap.counter("sim.faults.jam_bursts"),
            count_trace(r, TraceType::kJam));
  EXPECT_EQ(snap.counter("sim.faults.tx_aborted"),
            count_trace(r, TraceType::kTxAborted));
  EXPECT_EQ(snap.counter("sim.faults.tx_muted"),
            count_trace(r, TraceType::kTxMuted));
  EXPECT_GT(snap.counter("sim.events.fault"), 0u);
  EXPECT_EQ(snap.counter("sim.events"), r.events_processed);
  expect_event_counters_sum(snap);
  // Crashes destroy queued frames, so the identity's crash term is live.
  EXPECT_GT(snap.counter("sim.frames.lost_to_crash"), 0u);
  expect_frame_counters_match(snap, r);
}

TEST(GoldenMetrics, ControlCountersMatchTheRecordedTrace) {
  Registry reg;
  auto cfg = sim::control_ab_scenario(/*controlled=*/true, /*duration_s=*/2.0,
                                      /*seed=*/3);
  cfg.metrics = &reg;
  cfg.record_trace = true;
  const auto r = sim::run_scenario(cfg);
  const auto snap = reg.snapshot();
  std::uint64_t actions = 0;
  for (const auto& e : r.trace) {
    if (e.type == sim::TraceType::kControlEpoch) {
      actions += static_cast<std::uint64_t>(e.aux);
    }
  }
  EXPECT_GT(actions, 0u);
  EXPECT_EQ(snap.counter("sim.control.actions"), actions);
  EXPECT_EQ(snap.counter("sim.events.control"),
            count_trace(r, sim::TraceType::kControlEpoch));
  EXPECT_EQ(snap.counter("sim.events"), r.events_processed);
  expect_event_counters_sum(snap);
}

TEST(GoldenMetrics, SnapshotJsonIsBitIdenticalAcrossRunsAndThreadCounts) {
  // Same scenario, same seed: every run must flush the same exact integers
  // regardless of the replication pool width.
  std::vector<std::string> jsons;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Registry reg;
    auto cfg = paper_scenario();
    cfg.metrics = &reg;
    common::ThreadPool pool(threads);
    (void)sim::run_replications(pool, cfg, 6);
    jsons.push_back(reg.snapshot().to_json());
  }
  ASSERT_EQ(jsons.size(), 2u);
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_NE(jsons[0].find("sim.frames.generated"), std::string::npos);
}

TEST(DigestInvariance, ObsSinksNeverPerturbTheTraceDigest) {
  // The PR-2 determinism contract: trace digests are a pure function of
  // (config, seed).  Attaching metrics, detaching them, or recording spans
  // must leave the digest bit-identical.
  auto detached = paper_scenario();
  detached.metrics = nullptr;
  const auto base = sim::run_scenario(detached);

  Registry reg;
  auto with_metrics = paper_scenario();
  with_metrics.metrics = &reg;
  const auto metered = sim::run_scenario(with_metrics);

  auto with_spans = paper_scenario();
  with_spans.metrics = &reg;
  with_spans.record_trace = true;
  const auto spanned = sim::run_scenario(with_spans);
  const TraceLog spans = sim::render_spans(spanned);

  EXPECT_EQ(metered.trace_digest, base.trace_digest);
  EXPECT_EQ(spanned.trace_digest, base.trace_digest);
  EXPECT_EQ(metered.events_processed, base.events_processed);
  EXPECT_EQ(spanned.events_processed, base.events_processed);
  // The span log actually recorded the run (in virtual time).
  EXPECT_GT(spans.size(), 0u);
  for (const auto& e : spans.events()) {
    EXPECT_LE(e.ts_us, 1'100'000u) << e.name;  // horizon + tail tx
  }
}

std::size_t count_named(const TraceLog& log, const std::string& name,
                        char phase) {
  return static_cast<std::size_t>(std::count_if(
      log.events().begin(), log.events().end(), [&](const TraceEvent& e) {
        return e.name == name && e.phase == phase;
      }));
}

TEST(SpanRendering, EverySpanAndInstantComesFromOneTraceRecord) {
  const auto r = sim::run_scenario(fault_heavy_scenario());
  const TraceLog log = sim::render_spans(r);
  using sim::TraceType;
  const auto n = [&r](TraceType t) { return count_trace(r, t); };
  const auto n_aux = [&r](TraceType t, std::int32_t aux) {
    return static_cast<std::uint64_t>(
        std::count_if(r.trace.begin(), r.trace.end(), [&](const auto& e) {
          return e.type == t && e.aux == aux;
        }));
  };
  EXPECT_EQ(count_named(log, "csma", 'X'),
            n(TraceType::kTxStart) + n(TraceType::kTxMuted) +
                n(TraceType::kCcaDrop));
  EXPECT_EQ(count_named(log, "tx", 'X'),
            n(TraceType::kTxDelivered) + n(TraceType::kTxLost) +
                n(TraceType::kTxAborted));
  const std::pair<const char*, std::uint64_t> instants[] = {
      {"arrival", n(TraceType::kArrival)},
      {"queue_drop", n(TraceType::kQueueDrop)},
      {"cca_drop", n(TraceType::kCcaDrop)},
      {"tx_muted", n(TraceType::kTxMuted)},
      {"delivered", n(TraceType::kTxDelivered)},
      {"lost", n(TraceType::kTxLost)},
      {"tx_aborted", n(TraceType::kTxAborted)},
      {"retry", n(TraceType::kRetry)},
      {"crash", n(TraceType::kNodeCrash)},
      {"reboot", n(TraceType::kNodeReboot)},
      {"jam", n(TraceType::kJam)},
      {"mute_on", n_aux(TraceType::kMute, 1)},
      {"mute_off", n_aux(TraceType::kMute, 0)},
      {"deaf_on", n_aux(TraceType::kDeaf, 1)},
      {"deaf_off", n_aux(TraceType::kDeaf, 0)},
      {"surge_on", n_aux(TraceType::kSurge, 1)},
      {"surge_off", n_aux(TraceType::kSurge, 0)},
  };
  std::size_t total = count_named(log, "csma", 'X') +
                      count_named(log, "tx", 'X');
  for (const auto& [name, expected] : instants) {
    EXPECT_EQ(count_named(log, name, 'i'), expected) << name;
    total += expected;
  }
  EXPECT_EQ(log.size(), total) << "an event with no trace record";
  // A span's start is recorded before its end, never clamped.  A tx span
  // opens at its node's last kTxStart; a csma span at the arrival,
  // completion, drop or retry that put the head frame into CSMA.
  std::map<std::uint32_t, double> last_tx_start;
  std::set<std::pair<std::uint32_t, double>> csma_entries;
  for (const auto& e : r.trace) {
    EXPECT_LE(e.since_us, e.time_us);
    switch (e.type) {
      case TraceType::kTxStart:
      case TraceType::kTxMuted:
      case TraceType::kCcaDrop:
        EXPECT_TRUE(csma_entries.count({e.node, e.since_us}))
            << "csma span of node " << e.node << " at " << e.time_us;
        break;
      case TraceType::kTxDelivered:
      case TraceType::kTxLost:
      case TraceType::kTxAborted:
        EXPECT_EQ(e.since_us, last_tx_start.at(e.node)) << e.time_us;
        break;
      default:
        break;
    }
    if (e.type == TraceType::kTxStart) last_tx_start[e.node] = e.time_us;
    if (e.type == TraceType::kArrival || e.type == TraceType::kTxDelivered ||
        e.type == TraceType::kTxLost || e.type == TraceType::kTxMuted ||
        e.type == TraceType::kCcaDrop || e.type == TraceType::kRetry) {
      csma_entries.insert({e.node, e.time_us});
    }
  }
  const std::string json = log.chrome_json();
  std::vector<std::string> tracks;
  for (std::size_t i = 0; i < r.wifi.size(); ++i) {
    tracks.push_back("wifi" + std::to_string(i));
  }
  for (std::size_t j = 0; j < r.zigbee.size(); ++j) {
    tracks.push_back("zigbee" + std::to_string(j));
  }
  for (const auto& track : tracks) {
    EXPECT_NE(json.find("\"args\": {\"name\": \"" + track + "\"}"),
              std::string::npos)
        << track;
  }
}

TEST(SpanRendering, ReplicationsRenderLikeSingleRunsForAnyThreadCount) {
  auto cfg = fault_heavy_scenario();
  cfg.metrics = nullptr;
  constexpr std::size_t kReps = 4;
  std::vector<std::string> single;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    auto one = cfg;
    one.seed = common::derive_seed(cfg.seed, rep);
    single.push_back(sim::render_spans(sim::run_scenario(one)).chrome_json());
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::ThreadPool pool(threads);
    const auto reps = sim::run_replications(pool, cfg, kReps);
    ASSERT_EQ(reps.size(), kReps);
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      EXPECT_EQ(sim::render_spans(reps[rep]).chrome_json(), single[rep])
          << "threads " << threads << ", rep " << rep;
    }
  }
}

}  // namespace
}  // namespace sledzig::obs

// Tests for the dense-deployment engine paths (DESIGN.md §15): the link
// cache, interference-graph pruning, segment-run delivery, the notify
// adjacency, and the multi-channel topology layer.
//
// Segment-run delivery is checked two ways.  Directly, against the
// per-symbol scan it replaced, over randomised interferer sets: same
// verdict, same RNG draws.  End to end, against trace digests recorded
// while the engine could still run that per-symbol scan with pruning off;
// both arms produced these digests bit for bit.  Active pruning is an
// approximation by construction, so it is validated statistically
// against an unpruned copy of the link cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/arbiter.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "sim/link_cache.h"
#include "zigbee/chips.h"

namespace sledzig::sim {
namespace {

void expect_digest(const ScenarioConfig& cfg, std::uint64_t expected,
                   const char* context) {
  const std::uint64_t got = run_scenario(cfg).trace_digest;
  EXPECT_EQ(got, expected) << context << std::hex << ": got 0x" << got;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;  // shadow memory swamps the RSS reading
#else
constexpr bool kSanitized = false;
#endif

/// Peak resident set size of this process in kB (VmHWM in
/// /proc/self/status), or -1 when it cannot be read.
long vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

/// The per-symbol reference: resolve the worst interferer of every 16 us
/// symbol by scanning the whole unfiltered ledger, zero-power entries
/// included (a payload segment displaces a preamble hit only at strictly
/// higher power), and draw one uniform per symbol until one fails.
bool per_symbol_scan(const ZigbeeReception& rx,
                     const std::vector<RelevantTx>& ledger,
                     common::Rng& rng) {
  const double symbol_us = zigbee::kSymbolDurationUs;
  const auto num_symbols =
      static_cast<std::size_t>((rx.end_us - rx.start_us) / symbol_us);
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const double s0 = rx.start_us + static_cast<double>(s) * symbol_us;
    const double s1 = s0 + symbol_us;
    common::MilliWatt worst_mw{};
    const RelevantTx* worst = nullptr;
    bool preamble_seg = false;
    for (const auto& x : ledger) {
      if (std::min(s1, x.payload_start_us) > std::max(s0, x.start_us) &&
          x.preamble_mw > worst_mw) {
        worst_mw = x.preamble_mw;
        preamble_seg = true;
        worst = &x;
      }
      if (std::min(s1, x.end_us) > std::max(s0, x.payload_start_us) &&
          x.payload_mw > worst_mw) {
        worst_mw = x.payload_mw;
        preamble_seg = false;
        worst = &x;
      }
    }
    const double p = worst == nullptr ? rx.p_err_idle
                     : preamble_seg   ? worst->p_err_preamble
                                      : worst->p_err_payload;
    if (rng.uniform() < p) return false;
  }
  return true;
}

/// Verdicts and uniform() draws over a run of randomised frames.
struct OracleTally {
  std::size_t delivered = 0;
  std::size_t lost = 0;
  std::size_t draws = 0;
};

/// Scores one frame from one seed twice: the oracle over the whole
/// `ledger`, zigbee_symbols_survive over `staged`.  Both must reach the
/// same verdict after the same number of draws.
void expect_oracle_agrees(const ZigbeeReception& rx,
                          const std::vector<RelevantTx>& ledger,
                          const std::vector<RelevantTx>& staged,
                          std::uint64_t seed, DeliveryScratch& scratch,
                          OracleTally& tally) {
  common::Rng ref_rng(seed), rng(seed);
  const bool expected = per_symbol_scan(rx, ledger, ref_rng);
  ASSERT_EQ(zigbee_symbols_survive(rx, staged, scratch, rng), expected);
  // Same number of uniform() draws: both streams end in the same state.
  ASSERT_TRUE(rng.engine() == ref_rng.engine());
  common::Rng count_rng(seed);
  while (!(count_rng.engine() == ref_rng.engine())) {
    count_rng.uniform();
    ++tally.draws;
  }
  ++(expected ? tally.delivered : tally.lost);
}

TEST(FastPath, SegmentRunsMatchThePerSymbolScan) {
  // Randomised frames built to hit the exactness argument's edges: times
  // on symbol edges and at the frame's start and end, equal start times,
  // equal powers with different error probabilities, frames that are not
  // a whole number of symbols, zero-power and non-overlapping entries.
  constexpr double kSym = zigbee::kSymbolDurationUs;
  common::Rng gen(20240607);
  const double powers_mw[] = {0.0, 1e-9, 1e-9, 4e-9, 1e-8};
  const double p_scales[] = {0.002, 0.01, 0.05, 0.3};
  OracleTally tally;
  std::vector<RelevantTx> ledger, staged;
  DeliveryScratch scratch;
  constexpr std::size_t kFrames = 20000;
  for (std::size_t f = 0; f < kFrames; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const double p_scale = p_scales[gen.uniform_int(0, 3)];
    ZigbeeReception rx;
    rx.start_us = kSym * static_cast<double>(gen.uniform_int(0, 40)) +
                  (gen.uniform() < 0.5 ? 0.0 : gen.uniform(0.0, kSym));
    rx.end_us = rx.start_us +
                kSym * static_cast<double>(gen.uniform_int(0, 60)) +
                (gen.uniform() < 0.7 ? 0.0 : gen.uniform(0.0, kSym));
    rx.p_err_idle = gen.uniform() < 0.3 ? 0.0 : gen.uniform(0.0, p_scale);

    // An instant of interest: a symbol edge of the frame, its start or
    // end, an earlier entry's start, or anywhere around the frame.
    const auto instant = [&]() {
      switch (gen.uniform_int(0, 4)) {
        case 0:
          return rx.start_us +
                 kSym * static_cast<double>(gen.uniform_int(-4, 64));
        case 1:
          return rx.start_us;
        case 2:
          return rx.end_us;
        case 3:
          if (!ledger.empty()) {
            return ledger[static_cast<std::size_t>(gen.uniform_int(
                              0, static_cast<std::int64_t>(ledger.size()) -
                                     1))]
                .start_us;
          }
          [[fallthrough]];
        default:
          return gen.uniform(rx.start_us - 400.0, rx.end_us + 50.0);
      }
    };
    ledger.clear();
    const auto n = gen.uniform_int(0, 10);
    for (std::int64_t i = 0; i < n; ++i) {
      RelevantTx x{};
      x.start_us = instant();
      // ZigBee-like (no preamble segment), a WiFi preamble, or a
      // preamble ending on an instant of interest.
      const auto shape = gen.uniform_int(0, 2);
      x.payload_start_us = shape == 0   ? x.start_us
                           : shape == 1 ? x.start_us + 20.0
                                        : std::max(x.start_us, instant());
      x.end_us = gen.uniform() < 0.5
                     ? std::max(x.payload_start_us, instant())
                     : x.payload_start_us + gen.uniform(1.0, 600.0);
      x.payload_mw = common::MilliWatt{powers_mw[gen.uniform_int(0, 4)]};
      x.preamble_mw = gen.uniform() < 0.5
                          ? x.payload_mw
                          : common::MilliWatt{powers_mw[gen.uniform_int(0, 4)]};
      x.p_err_payload = gen.uniform(0.0, p_scale);
      x.p_err_preamble = gen.uniform(0.0, p_scale);
      ledger.push_back(x);
    }
    // The ledger is in start order; ties keep their arrival order.
    std::stable_sort(ledger.begin(), ledger.end(),
                     [](const RelevantTx& a, const RelevantTx& b) {
                       return a.start_us < b.start_us;
                     });
    // The engine stages only entries with some nonzero power.
    staged.clear();
    for (const auto& x : ledger) {
      if (x.payload_mw > common::MilliWatt{} ||
          x.preamble_mw > common::MilliWatt{}) {
        staged.push_back(x);
      }
    }

    ASSERT_NO_FATAL_FAILURE(expect_oracle_agrees(rx, ledger, staged,
                                                 gen.engine()(), scratch,
                                                 tally));
  }
  // Both verdicts must be common for the comparison to mean much.
  EXPECT_GT(tally.delivered, kFrames / 5);
  EXPECT_GT(tally.lost, kFrames / 5);
  EXPECT_GT(tally.draws, 10 * kFrames);
}

TEST(FastPath, DenseSegmentRunsMatchThePerSymbolScan) {
  // Frames at campus density: 20-48 entries starting up to 4 ms before
  // the frame, staged as the engine stages them.  Ends land on earlier
  // entries' ends and on a few symbols inside the frame, so one symbol
  // often holds two or more boundaries and a straddling symbol must pick
  // among three or more segments.  Powers repeat, so the rank decides
  // between equal-power segments with different error probabilities.
  constexpr double kSym = zigbee::kSymbolDurationUs;
  common::Rng gen(20261018);
  const double powers_mw[] = {0.0, 1e-9, 1e-9, 4e-9, 4e-9, 1e-8};
  const double p_scales[] = {2e-4, 1e-3, 4e-3};
  OracleTally tally;
  std::size_t multi_boundary_frames = 0;
  std::vector<RelevantTx> ledger, staged;
  std::vector<double> inside;
  DeliveryScratch scratch;
  constexpr std::size_t kFrames = 20000;
  for (std::size_t f = 0; f < kFrames; ++f) {
    SCOPED_TRACE("dense frame " + std::to_string(f));
    const double p_scale = p_scales[gen.uniform_int(0, 2)];
    ZigbeeReception rx;
    rx.start_us = 4000.0 + gen.uniform(0.0, 1000.0);
    rx.end_us = rx.start_us +
                kSym * static_cast<double>(gen.uniform_int(60, 130)) +
                (gen.uniform() < 0.7 ? 0.0 : gen.uniform(0.0, kSym));
    rx.p_err_idle = gen.uniform() < 0.3 ? 0.0 : gen.uniform(0.0, p_scale);
    // Three symbols per frame collect the in-frame ends.
    const std::int64_t hot[] = {gen.uniform_int(0, 59), gen.uniform_int(0, 59),
                                gen.uniform_int(0, 59)};
    const auto in_hot_symbol = [&]() {
      return rx.start_us +
             kSym * (static_cast<double>(hot[gen.uniform_int(0, 2)]) +
                     gen.uniform());
    };
    const auto pick_earlier_end = [&](double fallback) {
      if (ledger.empty()) return fallback;
      return ledger[static_cast<std::size_t>(gen.uniform_int(
                        0, static_cast<std::int64_t>(ledger.size()) - 1))]
          .end_us;
    };

    ledger.clear();
    const auto n = gen.uniform_int(20, 48);
    for (std::int64_t i = 0; i < n; ++i) {
      RelevantTx x{};
      x.start_us = gen.uniform() < 0.2
                       ? in_hot_symbol()
                       : gen.uniform(rx.start_us - 4000.0, rx.end_us);
      // ZigBee-like (no preamble segment), a WiFi preamble, or a
      // preamble ending inside a hot symbol.
      const auto shape = gen.uniform_int(0, 2);
      x.payload_start_us = shape == 0   ? x.start_us
                           : shape == 1 ? x.start_us + 20.0
                                        : std::max(x.start_us, in_hot_symbol());
      const double own_end = x.payload_start_us + gen.uniform(200.0, 4000.0);
      switch (gen.uniform_int(0, 3)) {
        case 0:
          x.end_us = std::max(x.payload_start_us, pick_earlier_end(own_end));
          break;
        case 1:
          x.end_us = std::max(x.payload_start_us, in_hot_symbol());
          break;
        default:
          x.end_us = own_end;
      }
      x.payload_mw = common::MilliWatt{powers_mw[gen.uniform_int(0, 5)]};
      x.preamble_mw = gen.uniform() < 0.5
                          ? x.payload_mw
                          : common::MilliWatt{powers_mw[gen.uniform_int(0, 5)]};
      x.p_err_payload = gen.uniform(0.0, p_scale);
      x.p_err_preamble = gen.uniform(0.0, p_scale);
      ledger.push_back(x);
    }
    std::stable_sort(ledger.begin(), ledger.end(),
                     [](const RelevantTx& a, const RelevantTx& b) {
                       return a.start_us < b.start_us;
                     });
    staged.clear();
    inside.clear();
    for (const auto& x : ledger) {
      if (x.end_us <= rx.start_us) continue;
      if (x.payload_mw > common::MilliWatt{} ||
          x.preamble_mw > common::MilliWatt{}) {
        staged.push_back(x);
      }
      for (const double v : {x.start_us, x.payload_start_us, x.end_us}) {
        if (v > rx.start_us && v < rx.end_us) inside.push_back(v);
      }
    }
    // Does some symbol hold two distinct boundaries?
    std::sort(inside.begin(), inside.end());
    inside.erase(std::unique(inside.begin(), inside.end()), inside.end());
    for (std::size_t i = 1; i < inside.size(); ++i) {
      if (std::floor((inside[i] - rx.start_us) / kSym) ==
          std::floor((inside[i - 1] - rx.start_us) / kSym)) {
        ++multi_boundary_frames;
        break;
      }
    }

    ASSERT_NO_FATAL_FAILURE(expect_oracle_agrees(rx, ledger, staged,
                                                 gen.engine()(), scratch,
                                                 tally));
  }
  EXPECT_GT(tally.delivered, kFrames / 5);
  EXPECT_GT(tally.lost, kFrames / 20);
  EXPECT_GT(multi_boundary_frames, kFrames / 2);
  EXPECT_GT(tally.draws, 50 * kFrames);
}

TEST(FastPath, TwoNodePaperScenarioIsBitIdentical) {
  const std::uint64_t expected[2][2] = {
      {0xb7bbe1d5bb913a62ull, 0x4cfd8e5491200517ull},   // SledZig off
      {0x8553a2c2ff72a558ull, 0xff114aa0559a678bull}};  // SledZig on
  for (const bool sledzig_on : {false, true}) {
    for (const double duty : {1.0, 0.5}) {
      const auto cfg = two_node_paper_scenario(
          core::SledzigConfig{}, sledzig_on, duty, /*d_wz_m=*/4.0,
          /*d_z_m=*/1.0, /*duration_s=*/3.0, /*seed=*/17);
      expect_digest(cfg, expected[sledzig_on ? 1 : 0][duty == 1.0 ? 0 : 1],
                    sledzig_on ? "sledzig on" : "sledzig off");
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
  expect_digest(cfg, 0xdb409278eecf44e8ull, "grid + jammer + crashes");
}

TEST(FastPath, CampusScenarioIsBitIdentical) {
  const auto cfg = campus_scenario(/*ap_grid_x=*/2, /*ap_grid_y=*/2,
                                   /*sensors_per_ap=*/3, /*spacing_m=*/20.0,
                                   /*duration_s=*/1.0, /*seed=*/31);
  // At 20 m spacing nothing reaches the prune floor, so this digest is
  // the unpruned per-symbol one as well.
  expect_digest(cfg, 0x9baaf7990779d476ull, "campus 2x2x3");
}

TEST(FastPath, DenseCampusIsBitIdentical) {
  // The 1100-node campus, where a ZigBee frame stages a few dozen
  // interferers and most of its symbols see several boundaries; the
  // digests above stop at 45 nodes and a handful of interferers.
  const auto cfg = campus_scenario(/*ap_grid_x=*/10, /*ap_grid_y=*/10,
                                   /*sensors_per_ap=*/10, /*spacing_m=*/20.0,
                                   /*duration_s=*/0.1, /*seed=*/1);
  expect_digest(cfg, 0xf3796e98eabaa250ull, "campus 10x10x10");
}

TEST(FastPath, LongHorizonLedgerIsBitIdentical) {
  // Over a 64 s horizon the arbiter retires most of the run's ledger, and
  // crashes cut emissions short on top: every query must still see what
  // it saw when nothing was ever dropped.
  auto cfg = campus_scenario(/*ap_grid_x=*/3, /*ap_grid_y=*/3,
                             /*sensors_per_ap=*/4, /*spacing_m=*/20.0,
                             /*duration_s=*/64.0, /*seed=*/1);
  expect_digest(cfg, 0x51321de14dbc9651ull, "campus 3x3x4, 64 s");
  cfg.faults.random.crash_rate_per_s = 20.0;
  cfg.invariants.enabled = true;
  expect_digest(cfg, 0x7a485a8fdccdf3c1ull, "campus 3x3x4, 64 s, crashes");
}

TEST(FastPath, LedgerMemoryIsFlatOverVirtualTime) {
  // A ledger that kept every transmission of the run grew the peak RSS of
  // this 45-node campus by about 10 MB between a 4 s and a 64 s horizon;
  // one that retires what no query can reach holds it flat.
  const auto run = [](double duration_s) {
    return run_scenario(campus_scenario(/*ap_grid_x=*/3, /*ap_grid_y=*/3,
                                        /*sensors_per_ap=*/4,
                                        /*spacing_m=*/20.0, duration_s,
                                        /*seed=*/1));
  };
  run(4.0);
  const long short_kb = vm_hwm_kb();
  const auto long_run = run(64.0);
  const long long_kb = vm_hwm_kb();
  EXPECT_GT(long_run.events_processed, 500'000u);
  if (!kSanitized) {
    ASSERT_GT(short_kb, 0);
    EXPECT_LT(long_kb - short_kb, 2 * 1024)
        << "kB of peak RSS growth from a 4 s to a 64 s horizon";
  }
}

TEST(FastPath, FaultedMemoryIsFlatOverVirtualTime) {
  // A fault schedule expanded for the whole horizon and queued at the
  // start grew the peak RSS of this campus at 20 crashes/s by 4.8 MB
  // between a 4 s and a 64 s horizon; one pending action per fault
  // process holds it flat.
  const auto run = [](double duration_s) {
    auto cfg = campus_scenario(/*ap_grid_x=*/3, /*ap_grid_y=*/3,
                               /*sensors_per_ap=*/4, /*spacing_m=*/20.0,
                               duration_s, /*seed=*/1);
    cfg.faults.random.crash_rate_per_s = 20.0;
    return run_scenario(cfg);
  };
  run(4.0);
  const long short_kb = vm_hwm_kb();
  const auto long_run = run(64.0);
  const long long_kb = vm_hwm_kb();
  EXPECT_GT(long_run.events_processed, 200'000u);
  if (!kSanitized) {
    ASSERT_GT(short_kb, 0);
    EXPECT_LT(long_kb - short_kb, 2 * 1024)
        << "kB of peak RSS growth from a 4 s to a 64 s faulted horizon";
  }
}

TEST(FastPath, ReplicationDigestsAreThreadCountInvariant) {
  // The replication runner shares one link cache across the fan-out; it
  // may not leak state between runs or threads.
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
  // links mid-run through the same writer as the build-time fill, and
  // segment-run delivery must read the retuned tables exactly as the
  // per-symbol scan did.
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
  // Both runs above arm hops, which keeps every node in one component.
  // Without hops the campus keeps its three channel components, so a
  // SledZig toggle retunes links stored one block per component.
  auto blocks = campus_scenario(/*ap_grid_x=*/3, /*ap_grid_y=*/3,
                                /*sensors_per_ap=*/4, /*spacing_m=*/20.0,
                                /*duration_s=*/2.0, /*seed=*/31);
  blocks.control.enabled = true;
  blocks.control.sledzig.enabled = true;
  blocks.control.duty.enabled = true;
  blocks.faults.random.surge_rate_per_s = 2.0;
  blocks.faults.random.mean_surge_us = 40000.0;
  blocks.metrics = nullptr;
  ASSERT_EQ(LinkCache::build(blocks)->num_comps, 3u);

  std::size_t hops = 0;
  std::size_t toggles = 0;
  const std::pair<const ScenarioConfig*, std::uint64_t> runs[] = {
      {&ab, 0x9a6e201303ece269ull},
      {&campus, 0x6ddc3c814da0b25bull},
      {&blocks, 0x4921267277d87b87ull}};
  for (const auto& [cfg, expected] : runs) {
    ScenarioConfig traced = *cfg;
    traced.record_trace = true;
    const auto r = run_scenario(traced);
    std::size_t run_toggles = 0;
    for (const auto& e : r.trace) {
      hops += e.type == TraceType::kControlHop ? 1 : 0;
      run_toggles += e.type == TraceType::kControlSledzig ? 1 : 0;
    }
    toggles += run_toggles;
    if (cfg == &blocks) {
      EXPECT_GT(run_toggles, 0u) << "the multi-component run never toggled";
    }
    EXPECT_EQ(r.trace_digest, expected) << std::hex << r.trace_digest;
  }
  // Both retune paths must actually run for the comparison to mean much.
  EXPECT_GT(hops, 0u);
  EXPECT_GT(toggles, 0u);
}

TEST(FastPath, SetLinkKeepsIndexAndAudibilityInStep) {
  // Two nodes: points 0 and 1 are CCA points, 2 and 3 receiver points.
  ArbiterTables t(2);
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

TEST(FastPath, TablesHoldOneBlockPerComponent) {
  // Components of 3, 1 and 70 nodes, interleaved in global order, so the
  // 70-node block's rows span two bit words.
  constexpr std::size_t kNodes = 74;
  std::vector<std::uint32_t> comp(kNodes, 2);
  for (const std::size_t n : {5, 20, 73}) comp[n] = 0;
  comp[10] = 1;
  ArbiterTables t(comp);
  ASSERT_EQ(t.blocks.size(), 3u);
  EXPECT_EQ(t.blocks[0].size, 3u);
  EXPECT_EQ(t.blocks[1].size, 1u);
  EXPECT_EQ(t.blocks[2].size, 70u);
  EXPECT_EQ(t.power.size(), 2u * (3 * 3 + 1 * 1 + 70 * 70));
  EXPECT_EQ(t.nonzero_bits.size(), 2u * (3 * 1 + 1 * 1 + 70 * 2));
  EXPECT_EQ(t.audible.size(), 3u * 3 + 1 * 1 + 70 * 70);
  // No table is T x T.
  EXPECT_LT(t.power.size(), 2 * kNodes * kNodes);
  EXPECT_LT(t.audible.size(), kNodes * kNodes);
  // Local ids rank members in ascending global order.
  EXPECT_EQ(t.local[5], 0u);
  EXPECT_EQ(t.local[20], 1u);
  EXPECT_EQ(t.local[73], 2u);
  EXPECT_EQ(t.local[10], 0u);
  EXPECT_EQ(t.local[11], 9u);
  const auto c0 = t.component(0);
  EXPECT_EQ(std::vector<std::uint32_t>(c0.begin(), c0.end()),
            (std::vector<std::uint32_t>{5, 20, 73}));

  // A distinct value at every stored (point, tx) pair: loud and quiet
  // alternate around the CCA threshold, and every seventh is zero.
  t.cca_threshold_dbm.assign(kNodes, common::Dbm{-62.0});
  const common::MilliWatt threshold = common::to_mw(common::Dbm{-62.0});
  const auto value = [](std::size_t point, std::size_t tx) {
    const std::size_t k = point * kNodes + tx;
    if (k % 7 == 3) return SegmentPower{};
    const double mw = 1e-12 * static_cast<double>(k + 1) * (k % 2 ? 1e9 : 1.0);
    return SegmentPower{common::MilliWatt{mw}, common::MilliWatt{2.0 * mw}};
  };
  for (std::size_t p = 0; p < 2 * kNodes; ++p) {
    for (std::size_t tx = 0; tx < kNodes; ++tx) {
      if (t.stored(p, tx)) t.set_link(p, tx, value(p, tx));
    }
  }
  const Arbiter arb(t, 0.0);
  for (std::uint32_t l = 0; l < kNodes; ++l) {
    const LinkRow rx = arb.rx_row(l);
    const LinkRow cca = arb.cca_row(l);
    const char* heard = arb.audible_row(l);
    for (std::uint32_t tx = 0; tx < kNodes; ++tx) {
      SCOPED_TRACE("listener " + std::to_string(l) + ", tx " +
                   std::to_string(tx));
      if (comp[l] != comp[tx]) {
        // Across components: 0 mW, unindexed and inaudible.
        EXPECT_EQ(arb.rx_power(l, tx).payload_mw, common::MilliWatt{});
        EXPECT_EQ(arb.cca_power(l, tx).preamble_mw, common::MilliWatt{});
        EXPECT_FALSE(arb.rx_nonzero(l, tx));
        EXPECT_FALSE(arb.cca_nonzero(l, tx));
        EXPECT_FALSE(arb.audible(l, tx));
        continue;
      }
      const SegmentPower want_rx = value(kNodes + l, tx);
      const SegmentPower want_cca = value(l, tx);
      const bool rx_on = want_rx.payload_mw > common::MilliWatt{};
      const bool cca_on = want_cca.payload_mw > common::MilliWatt{};
      const bool loud = want_cca.payload_mw >= threshold;
      const std::uint32_t col = t.local[tx];
      EXPECT_EQ(arb.rx_power(l, tx).payload_mw, want_rx.payload_mw);
      EXPECT_EQ(arb.rx_power(l, tx).preamble_mw, want_rx.preamble_mw);
      EXPECT_EQ(arb.cca_power(l, tx).payload_mw, want_cca.payload_mw);
      EXPECT_EQ(arb.cca_power(l, tx).preamble_mw, want_cca.preamble_mw);
      EXPECT_EQ(arb.rx_nonzero(l, tx), rx_on);
      EXPECT_EQ(arb.cca_nonzero(l, tx), cca_on);
      EXPECT_EQ(arb.audible(l, tx), loud);
      EXPECT_EQ(rx.power[col].payload_mw, want_rx.payload_mw);
      EXPECT_EQ(cca.power[col].preamble_mw, want_cca.preamble_mw);
      EXPECT_EQ(rx.nonzero(col), rx_on);
      EXPECT_EQ(cca.nonzero(col), cca_on);
      EXPECT_EQ(heard[col] != 0, loud);
    }
  }
}

TEST(FastPath, SetLinkAcrossComponentsIsZeroOrAnError) {
  // Nodes 0 and 2 share a component; node 1 is alone.  T = 3, so node
  // 2's receiver point is 3 + 2 = 5.
  ArbiterTables t(std::vector<std::uint32_t>{0, 1, 0});
  t.cca_threshold_dbm.assign(3, common::Dbm{-62.0});
  const ArbiterTables before = t;
  t.set_link(0, 1, SegmentPower{});
  t.set_link(5, 1, SegmentPower{});
  EXPECT_EQ(t.nonzero_bits, before.nonzero_bits);
  EXPECT_EQ(t.audible, before.audible);
  const common::MilliWatt loud = common::to_mw(common::Dbm{-40.0});
  try {
    t.set_link(5, 1, {loud, loud});
    FAIL() << "nonzero power across components was stored";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("listening point 5 "), std::string::npos) << what;
    EXPECT_NE(what.find("(tx 1)"), std::string::npos) << what;
  }
  EXPECT_EQ(t.nonzero_bits, before.nonzero_bits);
}

TEST(FastPath, CacheThatSplitsACoupledPairFailsTheRun) {
  // A hand-built cache whose components split the AP from the mote would
  // drop their coupled energy, since no ledger scan crosses components:
  // the table fill refuses it, naming the first such live link it meets.
  ScenarioConfig cfg = two_node_paper_scenario(
      core::SledzigConfig{}, /*sledzig_on=*/true, /*wifi_duty_ratio=*/0.5,
      /*d_wz_m=*/4.0, /*d_z_m=*/1.0, /*duration_s=*/0.2, /*seed=*/3);
  auto cache = std::make_shared<LinkCache>(*LinkCache::build(cfg));
  ASSERT_EQ(cache->num_comps, 1u);
  cache->comp = {0, 1};
  cache->num_comps = 2;
  // The fill walks points in order: the first live link across the split.
  std::string point, tx;
  for (std::size_t p = 0; p < 2 * cache->num_total && point.empty(); ++p) {
    for (auto k = cache->coupled_off[p]; k < cache->coupled_off[p + 1]; ++k) {
      const CoupledLink& e = cache->coupled[k];
      if (e.state == LinkState::kLive &&
          cache->comp[p % cache->num_total] != cache->comp[e.tx]) {
        point = std::to_string(p);
        tx = std::to_string(e.tx);
        break;
      }
    }
  }
  ASSERT_FALSE(point.empty());
  cfg.link_cache = cache;
  try {
    run_scenario(cfg);
    FAIL() << "a cache that splits a coupled pair ran";
  } catch (const std::invalid_argument& e) {
    FAIL() << "rejected as an invalid config instead: " << e.what();
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("across coupling components"), std::string::npos)
        << what;
    EXPECT_NE(what.find("listening point " + point + " "), std::string::npos)
        << what;
    EXPECT_NE(what.find("(tx " + tx + ")"), std::string::npos) << what;
  }
  // A component list that misses a node cannot size the tables: that
  // cache is rebuilt, like one whose node counts differ.
  cache->comp = {0};
  ScenarioConfig fresh = cfg;
  fresh.link_cache = nullptr;
  EXPECT_EQ(run_scenario(cfg).trace_digest, run_scenario(fresh).trace_digest);
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

  // The unpruned arm: a copy of the cache with every pruned link
  // relabelled live, so the AP's drawn powers reach the tables.  Pruned
  // links are filled under the prune-epsilon check, so a bad prune would
  // throw in the pruned arm.
  const ScenarioConfig cfg = scenario(10000.0);
  auto unpruned = std::make_shared<LinkCache>(*far);
  for (auto& link : unpruned->coupled) {
    if (link.state == LinkState::kPruned) link.state = LinkState::kLive;
  }
  constexpr std::size_t kReps = 40;
  const auto mean_prr = [&](std::shared_ptr<const LinkCache> cache) {
    ScenarioConfig c = cfg;
    c.link_cache = std::move(cache);
    const auto runs = run_replications(c, kReps);
    double sum = 0.0;
    for (const auto& r : runs) sum += r.zigbee[0].prr;
    return sum / static_cast<double>(kReps);
  };
  const double pruned = mean_prr(far);
  const double reference = mean_prr(unpruned);
  EXPECT_GT(reference, 0.5);  // the link itself must be healthy
  EXPECT_NEAR(pruned, reference, 0.02);
}

TEST(FastPath, LoudPrunedLinkFailsTheTableFill) {
  // A pruned link is held as exactly 0 mW, which is sound only while its
  // drawn power stays under the listener's prune epsilon.  Relabel the
  // AP's loud link at the mote's receiver point as pruned: the fill must
  // refuse it, naming the listening point and the transmitter.
  ScenarioConfig cfg = two_node_paper_scenario(
      core::SledzigConfig{}, /*sledzig_on=*/true, /*wifi_duty_ratio=*/0.5,
      /*d_wz_m=*/4.0, /*d_z_m=*/1.0, /*duration_s=*/0.2, /*seed=*/3);
  auto cache = std::make_shared<LinkCache>(*LinkCache::build(cfg));
  // T = 2: the mote (node 1) receives at point T + 1 = 3; the AP is tx 0.
  const std::size_t point = 3;
  const std::uint32_t tx = 0;
  ASSERT_EQ(cache->at(point, tx).state, LinkState::kLive);
  for (auto k = cache->coupled_off[point]; k < cache->coupled_off[point + 1];
       ++k) {
    if (cache->coupled[k].tx == tx) {
      cache->coupled[k].state = LinkState::kPruned;
    }
  }
  ASSERT_EQ(cache->at(point, tx).state, LinkState::kPruned);
  cfg.link_cache = cache;
  try {
    run_scenario(cfg);
    FAIL() << "a loud pruned link passed the table fill";
  } catch (const std::invalid_argument& e) {
    FAIL() << "rejected as an invalid config instead: " << e.what();
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("listening point 3 "), std::string::npos) << what;
    EXPECT_NE(what.find("(tx 0)"), std::string::npos) << what;
  }
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

}  // namespace
}  // namespace sledzig::sim

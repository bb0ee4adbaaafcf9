// Discrete-event workloads: `campus_sim` (one long run of an 1100-node
// campus per op) and `campaign_sweep` (thousands of tiny runs through the
// campaign runner and its fsync'd result store).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "campaign/result_store.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "coex/inband.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/link_cache.h"

namespace perfbench {

namespace {

using namespace sledzig;

constexpr std::uint64_t kCampusDomain = 3;
constexpr std::uint64_t kCampaignDomain = 4;

/// The per-node conservation identity every run must satisfy.
bool conserved(const sim::SimResult& r) {
  const auto ok = [](const sim::NodeStats& n) {
    return n.generated == n.delivered + n.queue_dropped + n.cca_dropped +
                              n.retry_exhausted + n.lost_to_crash +
                              n.in_flight_at_end;
  };
  return std::all_of(r.wifi.begin(), r.wifi.end(), ok) &&
         std::all_of(r.zigbee.begin(), r.zigbee.end(), ok);
}

// --- campus_sim ------------------------------------------------------------

// campus_scenario(10, 10, 10, 20 m): 100 APs on channels 1/6/11 and 1000
// ZigBee sensors.  The horizon gives about 10^6 events per run.
constexpr double kCampusHorizonS = 4.0;

double counter(const obs::Snapshot& s, const char* name) {
  return static_cast<double>(s.counter(name));
}

}  // namespace

Report run_campus_sim(const Options& opts) {
  Report report;
  const auto t0 = Clock::now();
  sim::ScenarioConfig cfg = sim::campus_scenario(
      10, 10, 10, 20.0, kCampusHorizonS,
      common::derive_seed(opts.seed, kCampusDomain));
  cfg.link_cache = sim::LinkCache::build(cfg);
  report.setup_s = seconds_between(t0, Clock::now());
  if (opts.setup_only) return report;
  const double rss_after_cache = vm_rss_mb();

  // Every op re-runs the same seeded scenario, so each digest must repeat
  // the first one.
  std::uint64_t digest = 0;
  double rss_after_run = 0.0;
  auto run = [&](const sim::ScenarioConfig& c, double* host_s) {
    const auto s = Clock::now();
    const sim::SimResult r = sim::run_scenario(c);
    *host_s = seconds_between(s, Clock::now());
    if (rss_after_run == 0.0) rss_after_run = vm_rss_mb();
    const auto passes = [&](const sim::SimResult& x) {
      return conserved(x) && x.trace_digest == digest;
    };
    if (++report.attempted == 1) {
      digest = r.trace_digest;
      // Self-check on the first result: a broken frame identity and a
      // changed digest must both fail.
      sim::SimResult broken = r;
      broken.zigbee.at(0).delivered += 1;
      sim::SimResult other = r;
      other.trace_digest ^= 1;
      report.checks_ok = passes(r) && !passes(broken) && !passes(other);
      report.notes.emplace_back("self_check",
                                report.checks_ok ? "pass" : "FAIL");
    }
    if (!passes(r)) {
      ++report.failed;
      std::fprintf(stderr, "perfbench: campus_sim run %zu failed its checks\n",
                   report.attempted);
    }
    return r;
  };

  // Untraced: the end-to-end numbers.
  const auto loop_start = Clock::now();
  while (report.ops < 2 ||
         seconds_between(loop_start, Clock::now()) <
             (opts.trace ? opts.seconds / 2 : opts.seconds)) {
    double host_s = 0.0;
    const auto r = run(cfg, &host_s);
    report.op_ms.push_back(host_s * 1e3);
    report.busy_s += host_s;
    report.sim_events += r.events_processed;
    report.sim_host_s += host_s;
    if (++report.ops == 2) report.peak_rss_mb = vm_hwm_mb();
  }
  if (!opts.trace) return report;

  // Traced: registry snapshot per run, cache build timed on its own.
  std::vector<double> build_s;
  for (int i = 0; i < 3; ++i) {
    const auto s = Clock::now();
    const auto cache = sim::LinkCache::build(cfg);
    build_s.push_back(seconds_between(s, Clock::now()));
  }
  obs::Registry reg;
  sim::ScenarioConfig traced = cfg;
  traced.metrics = &reg;
  std::vector<double> run_ms;
  double events = 0, arrival = 0, timer = 0, tx_end = 0, stale = 0,
         attempts = 0, delivered = 0;
  const auto traced_start = Clock::now();
  while (run_ms.size() < 2 ||
         seconds_between(traced_start, Clock::now()) < opts.seconds / 2) {
    reg.reset();
    double host_s = 0.0;
    run(traced, &host_s);
    run_ms.push_back(host_s * 1e3);
    const auto snap = reg.snapshot();
    events += counter(snap, "sim.events");
    arrival += counter(snap, "sim.events.arrival");
    timer += counter(snap, "sim.events.timer");
    tx_end += counter(snap, "sim.events.tx_end");
    stale += counter(snap, "sim.timer.stale");
    attempts += counter(snap, "sim.tx.attempts");
    delivered += counter(snap, "sim.frames.delivered");
  }
  const double n = static_cast<double>(run_ms.size());
  auto& L = report.layers;
  L["sim.link_cache.build_s"] = {median(build_s), "s"};
  L["sim.run_s"] = {median(run_ms) * 1e-3, "s"};
  L["sim.events"] = {events / n, "count/op"};
  L["sim.events.arrival"] = {arrival / n, "count/op"};
  L["sim.events.timer"] = {timer / n, "count/op"};
  L["sim.events.tx_end"] = {tx_end / n, "count/op"};
  L["sim.timer.stale"] = {stale / n, "count/op"};
  L["sim.tx.attempts"] = {attempts / n, "count/op"};
  L["sim.frames.delivered"] = {delivered / n, "count/op"};
  L["sim.delivered_per_attempt"] = {attempts > 0 ? delivered / attempts : 0.0,
                                    "ratio"};
  L["sim.link_cache.coupled_links"] = {
      static_cast<double>(cfg.link_cache->coupled.size()), "count"};
  L["sim.link_cache.components"] = {
      static_cast<double>(cfg.link_cache->num_comps), "count"};
  L["rss.after_cache_mb"] = {rss_after_cache, "MB"};
  L["rss.after_run_mb"] = {rss_after_run, "MB"};
  add_trace_overhead(run_ms, &report);
  return report;
}

// --- campaign_sweep --------------------------------------------------------

namespace {

// Shipped specs: a Fig-16 grid (SledZig on/off x (modulation, rate) pairs
// swept jointly x WiFi duty ratio on two_node) and the control_ab
// controlled/static cells.
const char* const kSpecFiles[] = {"fig16_joint.json", "control_ab.json"};

struct Campaign {
  std::string text;  // spec file contents (re-parsed by the traced loop)
  campaign::CampaignSpec spec;
  std::size_t queue_capacity = 0;  // largest over the cells
  std::uint64_t digest = 0;  // store digest of the first run_campaign pass
  bool have_digest = false;
};

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Parses a spec and reseeds it from the workload seed.
campaign::CampaignSpec parse_spec(const std::string& text,
                                  const std::string& name,
                                  std::uint64_t seed) {
  campaign::CampaignSpec spec;
  std::vector<sim::ConfigError> errors;
  if (!campaign::campaign_from_text(text, &spec, &errors)) {
    throw std::runtime_error(name + ": " + sim::describe(errors));
  }
  spec.seed = seed;
  return spec;
}

/// Set-up: parse every spec, resolve every cell, and probe each distinct
/// PHY configuration once (this also fills the in-band memo), so an invalid
/// spec fails here with a message instead of inside a pool worker.
std::vector<Campaign> load_campaigns(const Options& opts) {
  std::vector<Campaign> out;
  std::set<std::tuple<int, int, int, bool>> probed;
  for (std::size_t i = 0; i < std::size(kSpecFiles); ++i) {
    Campaign c;
    c.text = read_file(opts.spec_dir + "/" + kSpecFiles[i]);
    c.spec = parse_spec(c.text, kSpecFiles[i],
                        common::derive_seed(opts.seed, kCampaignDomain, i));
    for (std::size_t cell = 0; cell < campaign::cell_count(c.spec); ++cell) {
      sim::ScenarioConfig cfg;
      std::vector<sim::ConfigError> errors;
      const std::string where = std::string(kSpecFiles[i]) + " cell " +
                                std::to_string(cell) + " (" +
                                campaign::cell_label(c.spec, cell) + ")";
      if (!campaign::cell_scenario(c.spec, cell, 0, &cfg, &errors)) {
        throw std::runtime_error(where + ": " + sim::describe(errors));
      }
      c.queue_capacity = std::max(c.queue_capacity, cfg.queue_capacity);
      for (const bool on : {false, true}) {
        const auto key = std::make_tuple(static_cast<int>(cfg.sledzig.modulation),
                                         static_cast<int>(cfg.sledzig.rate),
                                         static_cast<int>(cfg.sledzig.channel), on);
        if (!probed.insert(key).second) continue;
        try {
          coex::measure_inband_offsets(cfg.sledzig, on);
        } catch (const std::exception& e) {
          throw std::runtime_error(where + ": PHY probe failed: " + e.what());
        }
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// A store record's frame accounting must close: whatever the terminal
/// buckets do not cover is frames in flight at the horizon, at most one
/// queue (plus the frame in service) per node.
bool record_ok(const campaign::ResultRecord& rec, std::size_t queue_capacity) {
  for (const char* tech : {"wifi", "zigbee"}) {
    const auto* t = rec.metrics.find(tech);
    if (t == nullptr) return false;
    auto num = [&](const char* key) {
      const auto* v = t->find(key);
      return v != nullptr && v->is_number() ? v->as_number() : -1.0;
    };
    const double in_flight =
        num("generated") - num("delivered") - num("queue_dropped") -
        num("cca_dropped") - num("retry_exhausted") - num("lost_to_crash");
    if (num("nodes") < 0 || in_flight < 0 ||
        in_flight > num("nodes") * static_cast<double>(queue_capacity + 1)) {
      return false;
    }
  }
  return true;
}

struct StoreCheck {
  std::size_t bad_records = 0;
  std::uint64_t events = 0;
};

/// Checks every record of a finished store.  With `exact`, rep 0 of every
/// cell is also re-run directly: records omit in_flight_at_end, so only a
/// direct run can check the exact per-node identity, and its record must
/// equal the stored one.
StoreCheck check_store(const std::string& path, const Campaign& c,
                       std::uint64_t campaign_hash, bool exact) {
  campaign::ScanResult scanned;
  std::string err;
  if (!campaign::scan_store(path, campaign_hash, &scanned, &err)) {
    throw std::runtime_error("scan_store: " + err);
  }
  StoreCheck out;
  for (const auto& rec : scanned.records) {
    if (!record_ok(rec, c.queue_capacity)) ++out.bad_records;
    if (const auto* e = rec.metrics.find("events"); e && e->is_number()) {
      out.events += static_cast<std::uint64_t>(e->as_number());
    }
    if (!exact || rec.rep != 0) continue;
    sim::ScenarioConfig cfg;
    std::vector<sim::ConfigError> errors;
    if (!campaign::cell_scenario(c.spec, rec.cell, 0, &cfg, &errors)) {
      throw std::runtime_error(sim::describe(errors));
    }
    const sim::SimResult direct = sim::run_scenario(cfg);
    if (!conserved(direct) || campaign::result_to_json(direct) != rec.metrics) {
      ++out.bad_records;
    }
  }
  return out;
}

/// Items of one run_campaign pass that failed their checks: all of them
/// when the store is incomplete or its digest differs from the first
/// pass's, else the bad records plus any item that did not run.
std::size_t failed_items(const campaign::RunnerReport& rr,
                         std::size_t bad_records,
                         std::uint64_t expected_digest) {
  if (!rr.complete || rr.digest != expected_digest) return rr.items_total;
  return bad_records + (rr.items_total - rr.items_run);
}

/// A fresh, empty directory for one pass's stores.
std::string fresh_dir(const Options& opts, std::size_t pass) {
  const std::string dir = opts.work_dir + "/campaign_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(pass);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The traced campaign loop: the same public calls run_campaign makes, with the
/// LinkCache built here and handed to run_scenario, each wrapped in a span.
/// Returns the store digest, which must equal run_campaign's.
std::uint64_t traced_campaign(const Campaign& c, const Options& opts,
                              const std::string& store, Tracer& tr,
                              std::uint64_t* next_op, double* parse_ms,
                              double* scan_ms, std::size_t* failed) {
  // Like run_campaign: parse, pre-resolve every cell, scan the (empty)
  // store for resumable items, then run the items.
  const auto p0 = Clock::now();
  const campaign::CampaignSpec spec =
      parse_spec(c.text, "spec", c.spec.seed);
  for (std::size_t cell = 0; cell < campaign::cell_count(spec); ++cell) {
    sim::ScenarioConfig probe;
    std::vector<sim::ConfigError> errors;
    if (!campaign::cell_scenario(spec, cell, 0, &probe, &errors)) {
      throw std::runtime_error(sim::describe(errors));
    }
  }
  *parse_ms += seconds_between(p0, Clock::now()) * 1e3;
  const std::uint64_t hash = campaign::campaign_hash(spec);
  const std::size_t items = campaign::cell_count(spec) * spec.replications;

  std::string err;
  const auto r0 = Clock::now();
  campaign::ScanResult resumed;
  if (!campaign::scan_store(store, hash, &resumed, &err)) {
    throw std::runtime_error("scan_store: " + err);
  }
  *scan_ms += seconds_between(r0, Clock::now()) * 1e3;
  campaign::ResultStoreWriter writer(store);
  if (!writer.open(&err)) throw std::runtime_error("store: " + err);
  std::mutex append_mutex;
  std::size_t bad = 0;
  const std::uint64_t first_op = *next_op;
  *next_op += items;
  common::ThreadPool pool(opts.threads);
  pool.for_each_index(items, [&](std::size_t k) {
    const std::uint64_t op = first_op + k;
    const auto start = Clock::now();
    sim::ScenarioConfig config;
    std::vector<sim::ConfigError> errors;
    const bool resolved = tr.span(op, "campaign.cell_scenario", [&] {
      return campaign::cell_scenario(spec, k / spec.replications,
                                     k % spec.replications, &config, &errors);
    });
    if (!resolved) throw std::runtime_error(sim::describe(errors));
    config.link_cache = tr.span(op, "sim.link_cache.build",
                                [&] { return sim::LinkCache::build(config); });
    const sim::SimResult result =
        tr.span(op, "sim.run", [&] { return sim::run_scenario(config); });
    campaign::ResultRecord record;
    record.campaign = hash;
    record.cell = k / spec.replications;
    record.rep = k % spec.replications;
    record.metrics = tr.span(op, "campaign.result_to_json",
                             [&] { return campaign::result_to_json(result); });
    const auto wait0 = Clock::now();
    std::lock_guard<std::mutex> lock(append_mutex);
    tr.add(op, "campaign.store_wait", wait0, Clock::now());
    if (!conserved(result)) ++bad;
    std::string append_err;
    const bool appended = tr.span(
        op, "campaign.store_append", [&] { return writer.append(record, &append_err); });
    if (!appended) throw std::runtime_error("append: " + append_err);
    tr.add(op, "op", start, Clock::now());
  });
  *failed += bad;

  const auto s0 = Clock::now();
  campaign::ScanResult scanned;
  if (!campaign::scan_store(store, hash, &scanned, &err)) {
    throw std::runtime_error("scan_store: " + err);
  }
  const std::uint64_t digest = campaign::store_digest(hash, scanned.records);
  *scan_ms += seconds_between(s0, Clock::now()) * 1e3;
  return digest;
}

}  // namespace

Report run_campaign_sweep(const Options& opts) {
  Report report;
  const auto t0 = Clock::now();
  std::vector<Campaign> campaigns = load_campaigns(opts);
  report.setup_s = seconds_between(t0, Clock::now());
  if (opts.setup_only) return report;

  // One pass = every shipped campaign through run_campaign, each against a
  // fresh store.  An op is one campaign item; its latency is the pass's
  // host time per item (run_campaign does not expose per-item times).
  std::size_t pass = 0;
  auto run_pass = [&] {
    const std::string dir = fresh_dir(opts, pass++);
    double host_s = 0.0;
    std::size_t items = 0;
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      Campaign& c = campaigns[i];
      campaign::RunnerOptions ro;
      ro.store_path = dir + "/store_" + std::to_string(i) + ".jsonl";
      ro.threads = opts.threads;
      campaign::RunnerReport rr;
      std::vector<sim::ConfigError> errors;
      const auto s = Clock::now();
      const bool ok = campaign::run_campaign(c.spec, ro, &rr, &errors);
      const double dt = seconds_between(s, Clock::now());
      if (!ok) throw std::runtime_error("run_campaign: " + sim::describe(errors));
      host_s += dt;
      items += rr.items_run;
      report.attempted += rr.items_total;
      const StoreCheck sc =
          check_store(ro.store_path, c, rr.campaign, !c.have_digest);
      if (!c.have_digest) {
        c.digest = rr.digest;
        c.have_digest = true;
      }
      const std::size_t bad = failed_items(rr, sc.bad_records, c.digest);
      if (bad > 0) {
        std::fprintf(stderr, "perfbench: campaign %s: %zu items failed\n",
                     c.spec.name.c_str(), bad);
      }
      report.failed += bad;
      report.sim_events += sc.events;
      report.sim_host_s += dt;
    }
    std::filesystem::remove_all(dir);
    return std::make_pair(host_s, items);
  };

  // Self-check: a store record whose frame accounting does not close, a
  // run with a broken identity and a pass with a changed digest must all
  // be caught.
  {
    sim::SimResult r;
    r.wifi.resize(1);
    r.zigbee.resize(1);
    r.zigbee[0].generated = 5;
    r.zigbee[0].delivered = 5;
    campaign::ResultRecord rec;
    rec.metrics = campaign::result_to_json(r);
    const bool good_record = record_ok(rec, 64);
    rec.metrics.find("zigbee")->set("delivered", campaign::JsonValue(9.0));
    sim::SimResult broken = r;
    broken.zigbee[0].delivered = 4;
    campaign::RunnerReport rr;
    rr.items_total = rr.items_run = 4;
    rr.complete = true;
    rr.digest = 7;
    report.checks_ok = good_record && !record_ok(rec, 64) && conserved(r) &&
                       !conserved(broken) && failed_items(rr, 0, 7) == 0 &&
                       failed_items(rr, 0, 8) == 4;
    report.notes.emplace_back("self_check", report.checks_ok ? "pass" : "FAIL");
  }

  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto loop_start = Clock::now();
  while (report.ops == 0 ||
         seconds_between(loop_start, Clock::now()) < untraced_s) {
    const auto [host_s, items] = run_pass();
    report.op_ms.push_back(host_s * 1e3 / static_cast<double>(items));
    report.ops += items;
    report.busy_s += host_s;
    // Every run_campaign call starts a fresh pool, and the metrics registry
    // keeps a shard per thread it has seen, so RSS creeps up pass by pass.
    if (report.op_ms.size() == 100) report.peak_rss_mb = vm_hwm_mb();
  }
  if (!opts.trace) return report;

  // Traced: the span-instrumented loop, checked against run_campaign's
  // digests from the untraced passes above.
  Tracer tr(true);
  const auto before = obs::Registry::global().snapshot();
  std::uint64_t next_op = 0;
  double parse_ms = 0.0, scan_ms = 0.0;
  std::size_t traced_items = 0;
  std::vector<double> traced_item_ms;
  const auto traced_start = Clock::now();
  while (traced_item_ms.empty() ||
         seconds_between(traced_start, Clock::now()) < opts.seconds / 2) {
    const std::string dir = fresh_dir(opts, pass++);
    const auto s = Clock::now();
    std::size_t items = 0;
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      const Campaign& c = campaigns[i];
      const std::size_t n = campaign::cell_count(c.spec) * c.spec.replications;
      report.attempted += n;
      std::size_t bad = 0;
      const std::uint64_t digest = traced_campaign(
          c, opts, dir + "/store_" + std::to_string(i) + ".jsonl", tr,
          &next_op, &parse_ms, &scan_ms, &bad);
      if (digest != c.digest) bad = n;
      if (bad > 0) {
        std::fprintf(stderr,
                     "perfbench: traced campaign %s: %zu items failed\n",
                     c.spec.name.c_str(), bad);
      }
      report.failed += bad;
      items += n;
    }
    traced_item_ms.push_back(seconds_between(s, Clock::now()) * 1e3 /
                             static_cast<double>(items));
    traced_items += items;
    std::filesystem::remove_all(dir);
  }
  const auto after = obs::Registry::global().snapshot();
  add_layer_times(tr, &report);
  add_trace_overhead(traced_item_ms, &report);
  const double n = static_cast<double>(traced_items);
  auto& L = report.layers;
  // Once-per-campaign work, amortised per item.
  L["campaign.parse_ms"] = {parse_ms / n, "ms"};
  L["campaign.scan_digest_ms"] = {scan_ms / n, "ms"};
  L["parallel.tasks"] = {static_cast<double>(after.counter("parallel.tasks") -
                                             before.counter("parallel.tasks")) /
                             n,
                         "count/op"};
  L["parallel.batches"] = {
      static_cast<double>(after.counter("parallel.batches") -
                          before.counter("parallel.batches")) /
          n,
      "count/op"};
  if (!tr.write_jsonl(opts.work_dir + "/spans_campaign_sweep.jsonl")) {
    report.notes.emplace_back("span_dump", "failed");
  }
  return report;
}

}  // namespace perfbench

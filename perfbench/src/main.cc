// perfbench: runs one benchmark workload and prints its result line.
//
//   perfbench --workload phy_link --seed 1 --seconds 10 --trace 0
//
// Normally started by perfbench/run.py, which builds this binary, takes the
// set-up median over several cold processes and checks the metric names
// against BENCHMARK.json.  The last stdout line is the result object; the
// line before it records the environment the numbers were taken in.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "phy_link|zigbee_coex|campus_sim|campaign_sweep --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--spec-dir DIR] "
               "[--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else if (arg == "--spec-dir") {
      o.spec_dir = v;
    } else if (arg == "--work-dir") {
      o.work_dir = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = parse(argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  // Only campaign_sweep fans out; the other workloads run on this thread.
  // It takes 2 threads: with a worker on every core of a shared host, its
  // pass times swung about twice as much.
  opts.threads =
      opts.workload == "campaign_sweep" ? std::max(1u, std::min(hw, 2u)) : 1;

  Report r;
  try {
    std::filesystem::create_directories(opts.work_dir);
    if (opts.workload == "phy_link") {
      r = perfbench::run_phy_link(opts);
    } else if (opts.workload == "zigbee_coex") {
      r = perfbench::run_zigbee_coex(opts);
    } else if (opts.workload == "campus_sim") {
      r = perfbench::run_campus_sim(opts);
    } else if (opts.workload == "campaign_sweep") {
      r = perfbench::run_campaign_sweep(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opts.setup_only) {
    std::printf("{\"setup_s\": %s}\n", json_number(r.setup_s).c_str());
    return 0;
  }

  // Latency tail: p90 only when at least 10 samples lie beyond it.
  const std::size_t n = r.op_ms.size();
  const bool have_p90 = n >= 100;
  const double p90 = have_p90 ? perfbench::quantile(r.op_ms, 0.9) : 0.0;
  const double events_per_s =
      r.sim_host_s > 0.0 ? static_cast<double>(r.sim_events) / r.sim_host_s
                         : 0.0;
  const double error_rate =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0;

  std::string info = "{\"info\": {";
  info += "\"workload\": " + json_string(opts.workload);
  info += ", \"seed\": " + std::to_string(opts.seed);
  info += ", \"seconds\": " + json_number(opts.seconds);
  info += ", \"trace\": " + std::string(opts.trace ? "1" : "0");
  info += ", \"nproc\": " + std::to_string(hw);
  info += ", \"threads\": " + std::to_string(opts.threads);
  info += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  info += ", \"SLEDZIG_OBS\": " +
          std::string(sledzig::obs::kEnabled ? "\"ON\"" : "\"OFF\"");
  info += ", \"SLEDZIG_NATIVE\": " +
          std::string(PERFBENCH_NATIVE ? "\"ON\"" : "\"OFF\"");
  info += ", \"compiler\": " + json_string(__VERSION__);
  info += ", \"untraced_ops\": " + std::to_string(r.ops);
  info += ", \"latency_ms_p90\": " +
          (have_p90 ? json_number(p90) : std::string("null"));
  info += ", \"sim_events_per_s\": " + json_number(events_per_s);
  info += ", \"error_rate\": " + json_number(error_rate);
  for (const auto& [k, v] : r.notes) {
    info += ", " + json_string(k) + ": " + json_string(v);
  }
  info += "}}";
  std::printf("%s\n", info.c_str());

  std::map<std::string, Metric> metrics;
  if (opts.trace) {
    metrics = r.layers;
    if (have_p90) metrics["latency_ms_p90"] = {p90, "ms"};
    if (r.sim_host_s > 0.0) metrics["sim_events_per_s"] = {events_per_s, "1/s"};
    metrics["error_rate"] = {error_rate, "ratio"};
  } else {
    const double verified =
        static_cast<double>(r.ops - std::min(r.ops, r.failed));
    metrics["throughput_ops_s"] = {
        r.busy_s > 0.0 ? verified / r.busy_s : 0.0, "1/s"};
    metrics["latency_ms_p50"] = {perfbench::median(r.op_ms), "ms"};
    metrics["setup_s"] = {r.setup_s, "s"};
    metrics["peak_rss_mb"] = {
        r.peak_rss_mb > 0.0 ? r.peak_rss_mb : perfbench::vm_hwm_mb(), "MB"};
  }
  const bool correct = r.checks_ok && r.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", r.attempted, r.failed,
      metrics_json(metrics).c_str());
  return 0;
}

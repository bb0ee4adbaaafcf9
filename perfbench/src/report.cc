#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

void Tracer::add(std::uint64_t op, const char* name, Clock::time_point start,
                 Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({op, name, ns(start), ns(end)});
}

std::map<std::string, std::vector<double>> Tracer::self_ms_per_op() const {
  std::lock_guard<std::mutex> lock(mu_);
  struct OpTimes {
    double root_ms = -1.0;
    std::map<std::string, double> layer_ms;
  };
  std::unordered_map<std::uint64_t, OpTimes> ops;
  for (const auto& s : spans_) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    auto& o = ops[s.op];
    if (s.name == "op") {
      o.root_ms = ms;
    } else {
      o.layer_ms[s.name] += ms;
    }
  }
  std::set<std::string> names;
  for (const auto& [id, o] : ops) {
    for (const auto& [name, ms] : o.layer_ms) names.insert(name);
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [id, o] : ops) {
    if (o.root_ms < 0.0) continue;
    double covered = 0.0;
    for (const auto& name : names) {
      const auto it = o.layer_ms.find(name);
      const double ms = it == o.layer_ms.end() ? 0.0 : it->second;
      out[name].push_back(ms);
      covered += ms;
    }
    out["op"].push_back(o.root_ms);
    out["op.self"].push_back(o.root_ms - covered);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  for (const auto& s : spans_) {
    f << "{\"op\":" << s.op << ",\"name\":\"" << s.name
      << "\",\"parent\":" << (s.name == "op" ? "null" : "\"op\"")
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
  return static_cast<bool>(f);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

double proc_status_kb(const std::string& key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double vm_hwm_mb() { return proc_status_kb("VmHWM") / 1024.0; }
double vm_rss_mb() { return proc_status_kb("VmRSS") / 1024.0; }

void add_layer_times(const Tracer& tracer, Report* report) {
  const auto per_op = tracer.self_ms_per_op();
  const auto op_it = per_op.find("op");
  if (op_it == per_op.end() || op_it->second.empty()) return;
  const double op_total =
      std::accumulate(op_it->second.begin(), op_it->second.end(), 0.0);
  for (const auto& [name, values] : per_op) {
    if (name == "op") continue;
    const double total = std::accumulate(values.begin(), values.end(), 0.0);
    report->layers[name + "_ms"] = {median(values), "ms"};
    report->layers[name + "_share"] = {100.0 * total / op_total, "%"};
  }
}

void add_trace_overhead(const std::vector<double>& traced_op_ms,
                        Report* report) {
  const double untraced = median(report->op_ms);
  const double traced = median(traced_op_ms);
  report->layers["op.untraced_ms"] = {untraced, "ms"};
  report->layers["op.traced_ms"] = {traced, "ms"};
  report->layers["trace.overhead_pct"] = {
      untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0, "%"};
}

}  // namespace perfbench

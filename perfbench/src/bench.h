// Shared pieces of the repository benchmark: options, the in-memory span
// tracer, the per-run report and small statistics helpers.
//
// Every workload drives the library only through its public headers.  Spans
// are recorded by this benchmark around each public call it makes (never
// inside the library), kept in memory, and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run set-up only and report its host time (run.py takes the median
  /// over several cold processes).
  bool setup_only = false;
  /// Directory holding the shipped campaign specs.
  std::string spec_dir = "perfbench/campaigns";
  /// Scratch directory inside the checkout: campaign stores, span dumps.
  std::string work_dir = ".bench_build/perfbench/work";
  /// Threads the workload runs on: 2 for campaign_sweep (at most nproc),
  /// 1 otherwise.
  std::size_t threads = 1;
};

/// One measured value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// False when a self-check failed: a deliberately corrupted output was
  /// not recognised as a failure, so the checks themselves are broken.
  bool checks_ok = true;
  double setup_s = 0.0;
  /// Host time of every untraced op, milliseconds.
  std::vector<double> op_ms;
  /// Untraced ops completed and the host time they took.
  std::size_t ops = 0;
  double busy_s = 0.0;
  /// VmHWM once the untraced loop has done a fixed amount of work, so the
  /// figure does not grow with how many ops a faster build fits in a run
  /// (0: take VmHWM at the end).
  double peak_rss_mb = 0.0;
  /// Simulated events and host time inside run_scenario / run_campaign.
  std::uint64_t sim_events = 0;
  double sim_host_s = 0.0;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, Metric> layers;
  /// Free-form facts printed on the info line (never part of the result).
  std::vector<std::pair<std::string, std::string>> notes;
};

/// In-memory span log.  Spans of one op share the op id; a layer span's
/// parent is its op's root span, so a layer's self time is its own duration
/// and the op's self time is what no layer span covers.
class Tracer {
 public:
  struct Span {
    std::uint64_t op = 0;
    std::string name;  // "op" for the root span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Times fn() as span `name` of op `op` when tracing is on; otherwise
  /// just calls it.
  template <typename Fn>
  decltype(auto) span(std::uint64_t op, const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    const auto t0 = Clock::now();
    struct Closer {
      Tracer* tracer;
      std::uint64_t op;
      const char* name;
      Clock::time_point t0;
      ~Closer() { tracer->add(op, name, t0, Clock::now()); }
    } closer{this, op, name, t0};
    return fn();
  }

  /// Records a span measured by the caller (thread-safe).
  void add(std::uint64_t op, const char* name, Clock::time_point start,
           Clock::time_point end);

  /// Per-layer self time, one value per op that has a root span, in ms
  /// (ops that never entered the layer contribute 0).
  std::map<std::string, std::vector<double>> self_ms_per_op() const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// Closed loop on the calling thread: calls op(k) for k = first, first+1,
/// ... until `seconds` of host time have passed.  Returns each op's host
/// time in ms.
template <typename Op>
std::vector<double> closed_loop(double seconds, std::size_t first, Op&& op) {
  std::vector<double> op_ms;
  const auto start = Clock::now();
  for (std::size_t k = first;; ++k) {
    const auto t0 = Clock::now();
    op(k);
    const auto t1 = Clock::now();
    op_ms.push_back(seconds_between(t0, t1) * 1e3);
    if (seconds_between(start, t1) >= seconds) break;
  }
  return op_ms;
}

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Resident-set figures from /proc/self/status, MiB (0 when unavailable).
double vm_hwm_mb();
double vm_rss_mb();

/// Adds `<layer>_ms` (median self time per op) and `<layer>_share` (share
/// of total op time, %) for every traced layer, plus `op.self_ms`.
void add_layer_times(const Tracer& tracer, Report* report);

/// Adds the traced-minus-untraced op time as `trace.overhead_pct`, given
/// the traced ops' host times.
void add_trace_overhead(const std::vector<double>& traced_op_ms,
                        Report* report);

/// Workload entry points (phy_workloads.cc, sim_workloads.cc).
Report run_phy_link(const Options& opts);
Report run_zigbee_coex(const Options& opts);
Report run_campus_sim(const Options& opts);
Report run_campaign_sweep(const Options& opts);

}  // namespace perfbench

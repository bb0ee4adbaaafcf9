// Deterministic, near-zero-overhead metrics registry (DESIGN.md §13).
//
// Counters and fixed-bucket histograms.  Every counter and every histogram
// bucket is one relaxed-atomic cell in a fixed-capacity array owned by the
// registry, so a write is one relaxed fetch_add on the metric's own cell —
// no locks, and no per-thread state to create on a thread's first write or
// to keep after it exits.  Because every value is an integer sum, a
// quiescent snapshot is bit-identical for any thread count whenever the
// same work items ran — the same index-addressed contract as
// common::parallel.
//
// Determinism rules (enforced by tools/sledzig_analyzer and the
// digest-invariance tests in tests/sim_test.cc):
//   * metrics are observational only — nothing digest-checked may ever read
//     them back into a result path;
//   * counter and histogram values are exact integers;
//   * snapshots iterate name-sorted, so to_json() is a stable string.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sledzig::obs {

/// The observability layer is always compiled in; benchmark reports print
/// this next to the other build settings.
inline constexpr bool kEnabled = true;

/// Aggregated view of one histogram at snapshot time.
struct HistogramData {
  std::string name;
  /// Ascending bucket upper bounds; an implicit +inf bucket follows.
  std::vector<double> upper_bounds;
  /// counts[b] = observations with value <= upper_bounds[b] (and greater
  /// than the previous bound); counts.back() is the overflow bucket.
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
};

/// Point-in-time aggregate of a Registry, name-sorted within each kind.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramData> histograms;

  /// Value lookups; zero / nullptr when the name was never registered.
  std::uint64_t counter(std::string_view name) const;
  const HistogramData* histogram(std::string_view name) const;

  /// Deterministic JSON rendering (sorted keys, fixed float format).
  std::string to_json() const;
};

class Registry;

/// Monotone counter handle.  Copyable POD; add() is thread-safe and
/// wait-free (one relaxed atomic add on the counter's cell).  A
/// default-constructed handle is valid and discards all updates.
class Counter {
 public:
  void add(std::uint64_t delta) const;
  void inc() const { add(1); }

 private:
  friend class Registry;
  Registry* registry_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Fixed-bucket histogram handle.  Bucket bounds are set at registration
/// and immutable afterwards; observe() is one binary search plus one
/// relaxed fetch_add.
class Histogram {
 public:
  void observe(double value) const;

 private:
  friend class Registry;
  Registry* registry_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Metric registry.  Handle creation (counter()/histogram()) takes a mutex
/// and may allocate; handles themselves are cheap PODs meant to be resolved
/// once and reused on hot paths.  Registering the same name twice returns
/// the same metric (histogram bounds must match the first registration).
///
/// Lifetime contract: a Registry must outlive every thread that still
/// writes through its handles.  The process-wide global() registry
/// trivially satisfies this; short-lived registries (golden-snapshot
/// tests) must not hand handles to detached threads.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(std::string_view name);
  Histogram histogram(std::string_view name,
                      std::span<const double> upper_bounds);

  /// Reads every cell.  Values written strictly before the call are fully
  /// included; concurrent writers may or may not be.  Quiescent snapshots
  /// (all producers joined) are exact and deterministic.
  Snapshot snapshot() const;

  /// Zeroes every counter and bucket.  Caller must be quiescent:
  /// concurrent writers race with the wipe.
  void reset();

  /// Process-wide registry most subsystems tally into.
  static Registry& global();

 private:
  friend class Counter;
  friend class Histogram;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sledzig::obs

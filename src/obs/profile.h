// Wall-clock profiling hooks (DESIGN.md §13).
//
// The ONLY place in src/ allowed to read a clock — and even here the reads
// are gated at run time by the SLEDZIG_PROFILE environment variable
// (unset/"0" ⇒ a scope costs one relaxed bool load).  Timings accumulate
// into process-wide sites and are rendered by profile_report(); they are
// strictly observational — nothing digest-checked may ever read them.
//
// Usage, one line at the top of a hot function:
//
//     void Engine::run() {
//       SLEDZIG_PROF_SCOPE("sim.run");
//       ...
//     }
//
//     SLEDZIG_PROFILE=1 ./build/bench/bench_sim_scaling
//     # then obs::profile_report(std::cerr) in the binary's epilogue.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>

namespace sledzig::obs {

/// True when SLEDZIG_PROFILE is set to anything but "" or "0".  Read once
/// at first call, then a relaxed atomic load.
bool profiling_enabled();

/// One accumulation site, usually a function-local static created by
/// SLEDZIG_PROF_SCOPE.  Registers itself into a process-wide list on
/// construction; sites are never unregistered (they live for the process).
class ProfSite {
 public:
  explicit ProfSite(const char* name);
  void add(std::uint64_t ns) {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  const char* name() const { return name_; }
  std::uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  const ProfSite* next() const { return next_; }

 private:
  const char* name_;
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> calls_{0};
  ProfSite* next_ = nullptr;
};

/// RAII scope: samples the clock only when profiling_enabled().
class ProfScope {
 public:
  explicit ProfScope(ProfSite& site);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfSite* site_;           // nullptr when profiling is off
  std::uint64_t start_ = 0;  // steady_clock ns
};

/// Renders every registered site (name, calls, total ms, mean µs), sorted
/// by name for stable output.
void profile_report(std::ostream& out);

// Two-level indirection so __LINE__ expands before pasting.
#define SLEDZIG_PROF_CONCAT2(a, b) a##b
#define SLEDZIG_PROF_CONCAT(a, b) SLEDZIG_PROF_CONCAT2(a, b)

/// Function-local site + scope.  The `static` lives in this header macro;
/// sites are append-only registration, not mutable result state.
#define SLEDZIG_PROF_SCOPE(name_literal)                                   \
  static ::sledzig::obs::ProfSite SLEDZIG_PROF_CONCAT(sledzig_prof_site_,  \
                                                      __LINE__){           \
      name_literal};                                                       \
  ::sledzig::obs::ProfScope SLEDZIG_PROF_CONCAT(sledzig_prof_scope_,       \
                                                __LINE__)(                 \
      SLEDZIG_PROF_CONCAT(sledzig_prof_site_, __LINE__))

}  // namespace sledzig::obs

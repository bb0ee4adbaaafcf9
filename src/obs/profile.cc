#include "obs/profile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string_view>
#include <vector>

namespace sledzig::obs {

namespace {

/// Head of the intrusive site list; push-only via CAS, so registration from
/// static initialisers on multiple threads is safe.
// lint: allow(static-state): append-only profiling site list (atomic)
std::atomic<ProfSite*> g_sites{nullptr};

/// -1 = not yet read, else 0/1.  Profiling is observational only, so the
/// one-time env read cannot perturb any result path.
// lint: allow(static-state): memoised SLEDZIG_PROFILE flag (atomic)
std::atomic<int> g_profiling{-1};

std::uint64_t now_ns() {
  // lint: allow(wall-clock): profiling gate — never feeds a result path
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // lint: allow(wall-clock): profiling gate — observational only
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ProfSite::ProfSite(const char* name) : name_(name) {
  ProfSite* head = g_sites.load(std::memory_order_acquire);
  do {
    next_ = head;
  } while (!g_sites.compare_exchange_weak(head, this,
                                          std::memory_order_release,
                                          std::memory_order_acquire));
}

bool profiling_enabled() {
  int state = g_profiling.load(std::memory_order_relaxed);
  if (state < 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) — read-only env access
    const char* env = std::getenv("SLEDZIG_PROFILE");
    state = (env != nullptr && env[0] != '\0' &&
             !(env[0] == '0' && env[1] == '\0'))
                ? 1
                : 0;
    g_profiling.store(state, std::memory_order_relaxed);
  }
  return state == 1;
}

ProfScope::ProfScope(ProfSite& site)
    : site_(profiling_enabled() ? &site : nullptr) {
  if (site_ != nullptr) start_ = now_ns();
}

ProfScope::~ProfScope() {
  if (site_ != nullptr) site_->add(now_ns() - start_);
}

void profile_report(std::ostream& out) {
  std::vector<const ProfSite*> sites;
  for (const ProfSite* s = g_sites.load(std::memory_order_acquire);
       s != nullptr; s = s->next()) {
    sites.push_back(s);
  }
  std::sort(sites.begin(), sites.end(),
            [](const ProfSite* a, const ProfSite* b) {
              return std::string_view(a->name()) < std::string_view(b->name());
            });
  out << "profile sites (" << sites.size() << "):\n";
  for (const ProfSite* s : sites) {
    const std::uint64_t calls = s->calls();
    const double total_ms = static_cast<double>(s->total_ns()) * 1e-6;
    const double mean_us =
        calls == 0 ? 0.0
                   : static_cast<double>(s->total_ns()) * 1e-3 /
                         static_cast<double>(calls);
    char line[160];
    std::snprintf(line, sizeof line, "  %-32s %10llu calls %12.3f ms  %10.3f us/call\n",
                  s->name(), static_cast<unsigned long long>(calls), total_ms,
                  mean_us);
    out << line;
  }
}

}  // namespace sledzig::obs

#include "obs/metrics.h"

#if SLEDZIG_OBS_ENABLED

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

namespace sledzig::obs {

namespace {

// Cell space geometry: fixed arrays of atomically-published block pointers.
// A writer never touches a structure another thread mutates — registration
// fills new slots under the registry mutex and publishes them with a
// release store; the writer's acquire load synchronises with exactly that
// store.
constexpr std::size_t kBlockBits = 6;
constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;
constexpr std::size_t kMaxBlocks = 64;
constexpr std::size_t kMaxCells = kBlockSize * kMaxBlocks;
constexpr std::size_t kMaxHistograms = 256;

/// Monotone registry ids: a thread-local cache entry keyed by a uid can
/// never be revived for a different Registry, so a stale cached shard
/// pointer is unreachable (only matched, never dereferenced) after its
/// registry dies.
// lint: allow(static-state): process-wide monotone id source (atomic)
std::atomic<std::uint64_t> g_next_registry_uid{1};

/// Per-thread shard cache: one fast slot for the registry this thread wrote
/// last, plus an ordered-map fallback for the (rare) multi-registry case.
/// Entries for destroyed registries go stale but are matched by uid only,
/// never dereferenced.  Single writer per instance by construction.
struct TlsShardCache {
  std::uint64_t uid = 0;
  void* shard = nullptr;
  std::map<std::uint64_t, void*> others;
};
// lint: allow(static-state): per-thread shard cache, one writer by construction
thread_local TlsShardCache tls_shard_cache;

template <typename T, std::size_t N>
void ensure_blocks(std::array<std::atomic<std::atomic<T>*>, N>& blocks,
                   std::vector<std::unique_ptr<std::atomic<T>[]>>& owned,
                   std::size_t cells_needed) {
  const std::size_t blocks_needed =
      (cells_needed + kBlockSize - 1) >> kBlockBits;
  for (std::size_t b = 0; b < blocks_needed; ++b) {
    if (blocks[b].load(std::memory_order_relaxed) != nullptr) continue;
    auto block = std::make_unique<std::atomic<T>[]>(kBlockSize);
    blocks[b].store(block.get(), std::memory_order_release);
    owned.push_back(std::move(block));
  }
}

template <typename T, std::size_t N>
std::atomic<T>& cell_at(
    const std::array<std::atomic<std::atomic<T>*>, N>& blocks,
    std::uint32_t id) {
  auto* block = blocks[id >> kBlockBits].load(std::memory_order_acquire);
  return block[id & (kBlockSize - 1)];
}

}  // namespace

struct Registry::Impl {
  struct Shard {
    std::array<std::atomic<std::atomic<std::uint64_t>*>, kMaxBlocks>
        counter_blocks{};
    std::array<std::atomic<std::atomic<double>*>, kMaxBlocks> gauge_blocks{};
    std::array<std::atomic<std::atomic<std::uint64_t>*>, kMaxBlocks>
        hist_blocks{};
    // Owned storage behind the published pointers.
    std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> owned_u64;
    std::vector<std::unique_ptr<std::atomic<double>[]>> owned_f64;
  };

  struct HistDesc {
    std::vector<double> bounds;    // ascending upper bounds
    std::uint32_t first_cell = 0;  // start of this histogram's bucket cells
  };

  mutable std::mutex mutex;
  std::map<std::string, std::uint32_t, std::less<>> counter_ids;
  std::map<std::string, std::uint32_t, std::less<>> gauge_ids;
  std::map<std::string, std::uint32_t, std::less<>> hist_ids;
  /// Fixed-capacity so observe() never reads a container another thread is
  /// growing; slot [id] is written once (under the mutex) before any handle
  /// carrying that id exists, and handle hand-off to another thread is
  /// itself a synchronisation point.
  std::unique_ptr<HistDesc[]> hists =
      std::make_unique<HistDesc[]>(kMaxHistograms);
  std::uint32_t num_counters = 0;
  std::uint32_t num_gauges = 0;
  std::uint32_t num_hists = 0;
  std::uint32_t num_hist_cells = 0;
  std::vector<std::unique_ptr<Shard>> shards;
  std::uint64_t uid = g_next_registry_uid.fetch_add(1);

  // ---- shard management ----

  void grow_shard(Shard& s) const {
    ensure_blocks(s.counter_blocks, s.owned_u64, num_counters);
    ensure_blocks(s.gauge_blocks, s.owned_f64, num_gauges);
    ensure_blocks(s.hist_blocks, s.owned_u64, num_hist_cells);
  }

  void grow_all_shards() {
    for (auto& s : shards) grow_shard(*s);
  }

  Shard& shard_for() {
    TlsShardCache& cache = tls_shard_cache;
    if (cache.uid == uid) return *static_cast<Shard*>(cache.shard);
    Shard* shard = nullptr;
    if (const auto it = cache.others.find(uid); it != cache.others.end()) {
      shard = static_cast<Shard*>(it->second);
    } else {
      std::scoped_lock lock(mutex);
      auto fresh = std::make_unique<Shard>();
      grow_shard(*fresh);
      shard = fresh.get();
      shards.push_back(std::move(fresh));
    }
    if (cache.uid != 0) cache.others.emplace(cache.uid, cache.shard);
    cache.others.erase(uid);
    cache.uid = uid;
    cache.shard = shard;
    return *shard;
  }

  // ---- hot-path updates ----

  void bump_counter(std::uint32_t id, std::uint64_t delta) {
    cell_at(shard_for().counter_blocks, id)
        .fetch_add(delta, std::memory_order_relaxed);
  }

  void record_gauge(std::uint32_t id, double value) {
    auto& c = cell_at(shard_for().gauge_blocks, id);
    double cur = c.load(std::memory_order_relaxed);
    while (value > cur &&
           !c.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  void observe_hist(std::uint32_t id, double value) {
    const HistDesc& desc = hists[id];
    const auto it =
        std::lower_bound(desc.bounds.begin(), desc.bounds.end(), value);
    const auto bucket = static_cast<std::uint32_t>(it - desc.bounds.begin());
    cell_at(shard_for().hist_blocks, desc.first_cell + bucket)
        .fetch_add(1, std::memory_order_relaxed);
  }

  // ---- aggregation (mutex held by caller) ----

  std::uint64_t sum_u64(bool hist_space, std::uint32_t id) const {
    std::uint64_t total = 0;
    for (const auto& s : shards) {
      const auto& blocks = hist_space ? s->hist_blocks : s->counter_blocks;
      auto* block = blocks[id >> kBlockBits].load(std::memory_order_acquire);
      if (block == nullptr) continue;
      total += block[id & (kBlockSize - 1)].load(std::memory_order_relaxed);
    }
    return total;
  }

  double max_f64(std::uint32_t id) const {
    double best = 0.0;
    for (const auto& s : shards) {
      auto* block =
          s->gauge_blocks[id >> kBlockBits].load(std::memory_order_acquire);
      if (block == nullptr) continue;
      best = std::max(
          best, block[id & (kBlockSize - 1)].load(std::memory_order_relaxed));
    }
    return best;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter Registry::counter(std::string_view name) {
  std::scoped_lock lock(impl_->mutex);
  auto it = impl_->counter_ids.find(name);
  if (it == impl_->counter_ids.end()) {
    if (impl_->num_counters >= kMaxCells) {
      throw std::length_error("obs::Registry: counter space exhausted");
    }
    it = impl_->counter_ids.emplace(std::string(name), impl_->num_counters++)
             .first;
    impl_->grow_all_shards();
  }
  Counter handle;
  handle.registry_ = this;
  handle.id_ = it->second;
  return handle;
}

Gauge Registry::gauge(std::string_view name) {
  std::scoped_lock lock(impl_->mutex);
  auto it = impl_->gauge_ids.find(name);
  if (it == impl_->gauge_ids.end()) {
    if (impl_->num_gauges >= kMaxCells) {
      throw std::length_error("obs::Registry: gauge space exhausted");
    }
    it = impl_->gauge_ids.emplace(std::string(name), impl_->num_gauges++)
             .first;
    impl_->grow_all_shards();
  }
  Gauge handle;
  handle.registry_ = this;
  handle.id_ = it->second;
  return handle;
}

Histogram Registry::histogram(std::string_view name,
                              std::span<const double> upper_bounds) {
  if (upper_bounds.empty() ||
      !std::is_sorted(upper_bounds.begin(), upper_bounds.end())) {
    throw std::invalid_argument(
        "obs::Registry: histogram bounds must be non-empty and ascending");
  }
  std::scoped_lock lock(impl_->mutex);
  auto it = impl_->hist_ids.find(name);
  if (it == impl_->hist_ids.end()) {
    const std::size_t cells = upper_bounds.size() + 1;  // +overflow bucket
    if (impl_->num_hists >= kMaxHistograms ||
        impl_->num_hist_cells + cells > kMaxCells) {
      throw std::length_error("obs::Registry: histogram space exhausted");
    }
    Impl::HistDesc& desc = impl_->hists[impl_->num_hists];
    desc.bounds.assign(upper_bounds.begin(), upper_bounds.end());
    desc.first_cell = impl_->num_hist_cells;
    impl_->num_hist_cells += static_cast<std::uint32_t>(cells);
    it = impl_->hist_ids.emplace(std::string(name), impl_->num_hists++).first;
    impl_->grow_all_shards();
  } else {
    const Impl::HistDesc& desc = impl_->hists[it->second];
    if (desc.bounds.size() != upper_bounds.size() ||
        !std::equal(desc.bounds.begin(), desc.bounds.end(),
                    upper_bounds.begin())) {
      throw std::invalid_argument(
          "obs::Registry: histogram re-registered with different bounds");
    }
  }
  Histogram handle;
  handle.registry_ = this;
  handle.id_ = it->second;
  return handle;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::scoped_lock lock(impl_->mutex);
  snap.counters.reserve(impl_->counter_ids.size());
  for (const auto& [name, id] : impl_->counter_ids) {
    snap.counters.emplace_back(name, impl_->sum_u64(false, id));
  }
  snap.gauges.reserve(impl_->gauge_ids.size());
  for (const auto& [name, id] : impl_->gauge_ids) {
    snap.gauges.emplace_back(name, impl_->max_f64(id));
  }
  snap.histograms.reserve(impl_->hist_ids.size());
  for (const auto& [name, id] : impl_->hist_ids) {
    const Impl::HistDesc& desc = impl_->hists[id];
    HistogramData h;
    h.name = name;
    h.upper_bounds = desc.bounds;
    h.counts.resize(desc.bounds.size() + 1);
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      h.counts[b] = impl_->sum_u64(
          true, desc.first_cell + static_cast<std::uint32_t>(b));
      h.total += h.counts[b];
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Registry::reset() {
  std::scoped_lock lock(impl_->mutex);
  for (auto& shard : impl_->shards) {
    for (auto& block : shard->owned_u64) {
      for (std::size_t i = 0; i < kBlockSize; ++i) {
        block[i].store(0, std::memory_order_relaxed);
      }
    }
    for (auto& block : shard->owned_f64) {
      for (std::size_t i = 0; i < kBlockSize; ++i) {
        block[i].store(0.0, std::memory_order_relaxed);
      }
    }
  }
}

Registry& Registry::global() {
  // Magic-static init is thread-safe; the registry synchronises internally.
  // lint: allow(static-state): process-wide metrics registry, created once
  static Registry registry;
  return registry;
}

void Counter::add(std::uint64_t delta) const {
  if (registry_ == nullptr) return;
  registry_->impl_->bump_counter(id_, delta);
}

void Gauge::record(double value) const {
  if (registry_ == nullptr) return;
  registry_->impl_->record_gauge(id_, value);
}

void Histogram::observe(double value) const {
  if (registry_ == nullptr) return;
  registry_->impl_->observe_hist(id_, value);
}

}  // namespace sledzig::obs

#else  // !SLEDZIG_OBS_ENABLED

namespace sledzig::obs {

Registry& Registry::global() {
  // lint: allow(static-state): stateless stub instance
  static Registry registry;
  return registry;
}

}  // namespace sledzig::obs

#endif  // SLEDZIG_OBS_ENABLED

// ---- Snapshot helpers (compiled in both modes) ----

namespace sledzig::obs {

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_json_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double Snapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const HistogramData* Snapshot::histogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, counters[i].first);
    out += ": ";
    out += std::to_string(counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, gauges[i].first);
    out += ": ";
    append_json_double(out, gauges[i].second);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramData& h = histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, h.name);
    out += ": {\"upper_bounds\": [";
    for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
      if (b != 0) out += ", ";
      append_json_double(out, h.upper_bounds[b]);
    }
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) out += ", ";
      out += std::to_string(h.counts[b]);
    }
    out += "], \"total\": ";
    out += std::to_string(h.total);
    out += "}";
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace sledzig::obs

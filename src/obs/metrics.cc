#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "obs/json_string.h"

namespace sledzig::obs {

namespace {

constexpr std::uint32_t kMaxCells = 4096;  // per kind: counters, buckets
constexpr std::uint32_t kMaxHistograms = 256;

}  // namespace

/// Both cell arrays exist from construction and never move, so a handle
/// writes its cell with no synchronisation beyond the relaxed add itself.
/// Registration fills the name maps and hists[] under the mutex before the
/// handle carrying the new id exists, and handing a handle to another
/// thread is itself a synchronisation point.
struct Registry::Impl {
  struct HistDesc {
    std::vector<double> bounds;    // ascending upper bounds
    std::uint32_t first_cell = 0;  // start of this histogram's bucket cells
  };

  mutable std::mutex mutex;
  std::map<std::string, std::uint32_t, std::less<>> counter_ids;
  std::map<std::string, std::uint32_t, std::less<>> hist_ids;
  std::array<HistDesc, kMaxHistograms> hists;
  std::uint32_t num_hist_cells = 0;
  std::array<std::atomic<std::uint64_t>, kMaxCells> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxCells> buckets{};
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter Registry::counter(std::string_view name) {
  std::scoped_lock lock(impl_->mutex);
  auto it = impl_->counter_ids.find(name);
  if (it == impl_->counter_ids.end()) {
    const auto id = static_cast<std::uint32_t>(impl_->counter_ids.size());
    if (id >= kMaxCells) {
      throw std::length_error("obs::Registry: counter space exhausted");
    }
    it = impl_->counter_ids.emplace(std::string(name), id).first;
  }
  Counter handle;
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
    const auto id = static_cast<std::uint32_t>(impl_->hist_ids.size());
    const std::size_t cells = upper_bounds.size() + 1;  // +overflow bucket
    if (id >= kMaxHistograms || impl_->num_hist_cells + cells > kMaxCells) {
      throw std::length_error("obs::Registry: histogram space exhausted");
    }
    Impl::HistDesc& desc = impl_->hists[id];
    desc.bounds.assign(upper_bounds.begin(), upper_bounds.end());
    desc.first_cell = impl_->num_hist_cells;
    impl_->num_hist_cells += static_cast<std::uint32_t>(cells);
    it = impl_->hist_ids.emplace(std::string(name), id).first;
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
    snap.counters.emplace_back(
        name, impl_->counters[id].load(std::memory_order_relaxed));
  }
  snap.histograms.reserve(impl_->hist_ids.size());
  for (const auto& [name, id] : impl_->hist_ids) {
    const Impl::HistDesc& desc = impl_->hists[id];
    HistogramData h;
    h.name = name;
    h.upper_bounds = desc.bounds;
    h.counts.resize(desc.bounds.size() + 1);
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      h.counts[b] = impl_->buckets[desc.first_cell + b].load(
          std::memory_order_relaxed);
      h.total += h.counts[b];
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Registry::reset() {
  std::scoped_lock lock(impl_->mutex);
  for (auto& cell : impl_->counters) cell.store(0, std::memory_order_relaxed);
  for (auto& cell : impl_->buckets) cell.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  // Magic-static init is thread-safe; the registry synchronises internally.
  // lint: allow(static-state): process-wide metrics registry, created once
  static Registry registry;
  return registry;
}

void Counter::add(std::uint64_t delta) const {
  if (registry_ == nullptr) return;
  registry_->impl_->counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

void Histogram::observe(double value) const {
  if (registry_ == nullptr) return;
  Registry::Impl& impl = *registry_->impl_;
  const Registry::Impl::HistDesc& desc = impl.hists[id_];
  const auto it =
      std::lower_bound(desc.bounds.begin(), desc.bounds.end(), value);
  impl.buckets[desc.first_cell + (it - desc.bounds.begin())].fetch_add(
      1, std::memory_order_relaxed);
}

// ---- JSON rendering ----

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
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

namespace {

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

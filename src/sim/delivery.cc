#include "sim/delivery.h"

#include <algorithm>
#include <cstddef>

#include "zigbee/chips.h"

namespace sledzig::sim {

bool zigbee_symbols_survive(const ZigbeeReception& rx,
                            std::span<const RelevantTx> interferers,
                            DeliveryScratch& scratch, common::Rng& rng) {
  // Exactness (DESIGN.md §15).  Every interferer time inside the boundary
  // range is a boundary, so a pair [a, c) overlaps the segment
  // [b_k, b_k+1) iff a <= b_k and c >= b_k+1, and folding each pair, in
  // staging order with the per-symbol scan's strict >, over exactly those
  // segments leaves every segment the pair that scan would pick inside it.
  // A symbol window overlaps a pair iff the pair covers a segment the
  // window touches, so the scan's pick for the window is the best, by
  // (power desc, rank asc), of the touched segments' picks.
  const double symbol_us = zigbee::kSymbolDurationUs;
  const auto num_symbols =
      static_cast<std::size_t>((rx.end_us - rx.start_us) / symbol_us);
  if (num_symbols == 0) return true;
  // The range reaches the last symbol's end, computed as the loop below
  // computes it, so floating-point overshoot past rx.end_us stays inside.
  const double last_s0 =
      rx.start_us + static_cast<double>(num_symbols - 1) * symbol_us;
  const double end_us = std::max(rx.end_us, last_s0 + symbol_us);

  auto& b = scratch.bounds;
  b.clear();
  b.push_back(rx.start_us);
  for (const auto& e : interferers) {
    for (const double v : {e.start_us, e.payload_start_us, e.end_us}) {
      if (v > rx.start_us && v < end_us) b.push_back(v);
    }
  }
  b.push_back(end_us);
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  const std::size_t num_segments = b.size() - 1;

  auto& w = scratch.worst;
  w.assign(num_segments, {common::MilliWatt{}, rx.p_err_idle, UINT32_MAX});
  std::uint32_t rank = 0;
  std::size_t first = 0;  // first segment at or after the entry's start
  for (const auto& e : interferers) {
    // Entries are start-ordered, so `first` only moves forward.
    while (first < num_segments && b[first] < e.start_us) ++first;
    std::size_t k = first;
    for (; k < num_segments && b[k + 1] <= e.payload_start_us; ++k) {
      if (e.preamble_mw > w[k].mw) {
        w[k] = {e.preamble_mw, e.p_err_preamble, rank};
      }
    }
    for (; k < num_segments && b[k + 1] <= e.end_us; ++k) {
      if (e.payload_mw > w[k].mw) {
        w[k] = {e.payload_mw, e.p_err_payload, rank + 1};
      }
    }
    rank += 2;
  }

  std::size_t k = 0;  // the segment holding the symbol's start
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const double s0 = rx.start_us + static_cast<double>(s) * symbol_us;
    const double s1 = s0 + symbol_us;
    while (b[k + 1] <= s0) ++k;
    const DeliveryScratch::Worst* best = &w[k];
    // A symbol straddling boundaries also touches the segments after k.
    for (std::size_t m = k + 1; b[m] < s1; ++m) {
      if (w[m].mw > best->mw ||
          (w[m].mw == best->mw && w[m].rank < best->rank)) {
        best = &w[m];
      }
    }
    if (rng.uniform() < best->p) return false;
  }
  return true;
}

}  // namespace sledzig::sim

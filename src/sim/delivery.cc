#include "sim/delivery.h"

#include <algorithm>
#include <cstddef>

#include "zigbee/chips.h"

namespace sledzig::sim {

bool zigbee_symbols_survive(const ZigbeeReception& rx,
                            std::span<const RelevantTx> interferers,
                            std::vector<double>& bounds, common::Rng& rng) {
  // Exactness: between consecutive boundary times (every interferer's
  // start, payload start and end, clamped to the frame) each interval
  // endpoint used by the per-symbol overlap tests is either <= the
  // segment's left edge or >= its right edge, so every symbol fully inside
  // a segment reaches the identical worst-interferer verdict — compute it
  // once and reuse it.  Symbols that straddle a boundary fall back to the
  // per-symbol scan.
  const double symbol_us = zigbee::kSymbolDurationUs;
  const auto num_symbols =
      static_cast<std::size_t>((rx.end_us - rx.start_us) / symbol_us);

  auto& b = bounds;
  b.clear();
  b.push_back(rx.start_us);
  for (const auto& e : interferers) {
    for (const double v : {e.start_us, e.payload_start_us, e.end_us}) {
      if (v > rx.start_us && v < rx.end_us) b.push_back(v);
    }
  }
  b.push_back(rx.end_us);
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());

  // The per-symbol scan over one window: ledger order, strict-> comparisons,
  // so the tracked probability is exactly that of the worst (interferer,
  // segment) pair.  Entries are start-ordered, so once one starts at/after
  // the window nothing later can overlap it and the scan stops early.
  const auto window_p = [&](double w0, double w1) {
    common::MilliWatt worst_mw{};
    double p = rx.p_err_idle;
    for (const auto& e : interferers) {
      if (e.start_us >= w1) break;
      if (std::min(w1, e.payload_start_us) > std::max(w0, e.start_us) &&
          e.preamble_mw > worst_mw) {
        worst_mw = e.preamble_mw;
        p = e.p_err_preamble;
      }
      if (std::min(w1, e.end_us) > std::max(w0, e.payload_start_us) &&
          e.payload_mw > worst_mw) {
        worst_mw = e.payload_mw;
        p = e.p_err_payload;
      }
    }
    return p;
  };

  std::size_t bi = 0;
  double seg_p = 0.0;
  bool seg_valid = false;
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const double s0 = rx.start_us + static_cast<double>(s) * symbol_us;
    const double s1 = s0 + symbol_us;
    while (bi + 2 < b.size() && b[bi + 1] <= s0) {
      ++bi;
      seg_valid = false;
    }
    double p;
    if (s1 <= b[bi + 1]) {
      if (!seg_valid) {
        seg_p = window_p(b[bi], b[bi + 1]);
        seg_valid = true;
      }
      p = seg_p;
    } else {
      p = window_p(s0, s1);  // straddles a boundary (or FP end overshoot)
    }
    if (rng.uniform() < p) return false;
  }
  return true;
}

}  // namespace sledzig::sim

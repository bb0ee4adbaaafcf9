#include "sim/arbiter.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"

namespace sledzig::sim {

ArbiterTables::ArbiterTables(std::size_t n)
    : num_nodes(n),
      power(2 * n * n),
      audible(n * n, 0),
      cca_noise_mw(n),
      cca_threshold_dbm(n),
      bit_words((n + 63) / 64),
      comp(n, 0) {
  nonzero_bits.assign(2 * n * bit_words, 0);
}

void ArbiterTables::set_link(std::size_t point, std::size_t tx,
                             const SegmentPower& sp) {
  power[point * num_nodes + tx] = sp;
  const std::uint64_t bit = std::uint64_t{1} << (tx & 63);
  std::uint64_t& word = nonzero_bits[point * bit_words + (tx >> 6)];
  if (sp.payload_mw > common::MilliWatt{} ||
      sp.preamble_mw > common::MilliWatt{}) {
    word |= bit;
  } else {
    word &= ~bit;
  }
  if (point < num_nodes) {
    audible[point * num_nodes + tx] =
        sp.payload_mw >= common::to_mw(cca_threshold_dbm[point]) ? 1 : 0;
  }
}

Arbiter::Arbiter(ArbiterTables tables) : tables_(std::move(tables)) {
  by_comp_.resize(std::max<std::size_t>(1, tables_.num_comps));
}

// NOLINTBEGIN(bugprone-easily-swappable-parameters)
std::uint32_t Arbiter::begin_tx(std::uint32_t node, NodeKind kind,
                                double start_us, double payload_start_us,
                                double end_us) {
  // NOLINTEND(bugprone-easily-swappable-parameters)
  const auto id = static_cast<std::uint32_t>(txs_.size());
  txs_.push_back(
      Transmission{node, kind, start_us, payload_start_us, end_us, true});
  active_.push_back(id);
  by_comp_[tables_.comp[node]].push_back(id);
  max_duration_us_ = std::max(max_duration_us_, end_us - start_us);
  return id;
}

void Arbiter::end_tx(std::uint32_t tx_id) {
  txs_[tx_id].active = false;
  active_.erase(std::remove(active_.begin(), active_.end(), tx_id),
                active_.end());
}

void Arbiter::abort_tx(std::uint32_t tx_id, double now_us) {
  auto& x = txs_[tx_id];
  if (!x.active) return;
  x.aborted = true;
  x.end_us = std::max(x.start_us, now_us);
  // Truncating can only shrink the payload window; clamp its start too so
  // the segment arithmetic in zigbee_cca_busy stays non-negative.
  x.payload_start_us = std::min(x.payload_start_us, x.end_us);
  end_tx(tx_id);
}

bool Arbiter::busy_at(std::uint32_t listener, double t_us) const {
  for (const auto id : active_) {
    const auto& x = txs_[id];
    if (x.node == listener) continue;
    if (!audible(listener, x.node)) continue;
    if (x.start_us <= t_us && t_us < x.end_us) return true;
  }
  return false;
}

std::pair<const std::uint32_t*, const std::uint32_t*> Arbiter::overlap_ids(
    std::uint32_t listener, double t0_us, double t1_us) const {
  // Starts are sorted but ends are not (transmissions overlap), so scan
  // back by the longest duration seen: any transmission overlapping t0
  // must have started within that window.
  const auto& v = by_comp_[tables_.comp[listener]];
  const double lo_start = t0_us - max_duration_us_;
  const auto lo = std::lower_bound(
      v.begin(), v.end(), lo_start,
      [this](std::uint32_t id, double t) { return txs_[id].start_us < t; });
  const auto hi = std::upper_bound(
      lo, v.end(), t1_us,
      [this](double t, std::uint32_t id) { return t < txs_[id].start_us; });
  return {v.data() + (lo - v.begin()), v.data() + (hi - v.begin())};
}

bool Arbiter::zigbee_cca_busy(std::uint32_t listener, double t0_us,
                              double t1_us) const {
  const double window = t1_us - t0_us;
  if (window <= 0.0) return false;
  double energy = 0.0;  // mW * us
  const auto [lo, hi] = overlap_ids(listener, t0_us, t1_us);
  for (const std::uint32_t* it = lo; it != hi; ++it) {
    const auto& x = txs_[*it];
    if (x.node == listener) continue;
    // Zero-power links (pruned or channel-disjoint) contribute exactly
    // 0.0 mW*us; skip them without touching the (cache-cold at campus
    // scale) power table.
    if (!cca_nonzero(listener, x.node)) continue;
    const double pre =
        std::max(0.0, std::min(t1_us, x.payload_start_us) -
                          std::max(t0_us, x.start_us));
    const double pay = std::max(
        0.0, std::min(t1_us, x.end_us) - std::max(t0_us, x.payload_start_us));
    // Ledger entries that ended before the window (the scan looks back by
    // the longest duration seen) contribute exactly nothing — skip them
    // before the power-table read, which is the expensive part.
    if (pre <= 0.0 && pay <= 0.0) continue;
    const auto& p = cca_power(listener, x.node);
    energy += pre * p.preamble_mw.value() + pay * p.payload_mw.value();
  }
  const common::Dbm avg_dbm = common::to_dbm(
      common::MilliWatt{energy / window} + tables_.cca_noise_mw[listener]);
  return avg_dbm >= tables_.cca_threshold_dbm[listener];
}

}  // namespace sledzig::sim

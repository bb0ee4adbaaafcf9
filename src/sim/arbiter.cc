#include "sim/arbiter.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/units.h"

namespace sledzig::sim {

ArbiterTables::ArbiterTables(std::size_t n)
    : ArbiterTables(std::vector<std::uint32_t>(n, 0)) {}

ArbiterTables::ArbiterTables(std::vector<std::uint32_t> node_comp)
    : num_nodes(node_comp.size()),
      cca_noise_mw(num_nodes),
      cca_threshold_dbm(num_nodes),
      comp(std::move(node_comp)),
      local(num_nodes),
      members(num_nodes) {
  const std::size_t num_comps =
      comp.empty() ? 1 : std::size_t{*std::max_element(comp.begin(),
                                                       comp.end())} + 1;
  blocks.resize(num_comps);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    local[n] = static_cast<std::uint32_t>(blocks[comp[n]].size++);
  }
  std::size_t first = 0, power_size = 0, bits_size = 0, pairs_size = 0;
  for (Block& b : blocks) {
    b.words = (b.size + 63) / 64;
    b.first = first;
    b.power = power_size;
    b.bits = bits_size;
    b.pairs = pairs_size;
    first += b.size;
    power_size += 2 * b.size * b.size;
    bits_size += 2 * b.size * b.words;
    pairs_size += b.size * b.size;
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    members[blocks[comp[n]].first + local[n]] = static_cast<std::uint32_t>(n);
  }
  power.resize(power_size);
  nonzero_bits.assign(bits_size, 0);
  audible.assign(pairs_size, 0);
}

void ArbiterTables::set_link(std::size_t point, std::size_t tx,
                             const SegmentPower& sp) {
  const bool nonzero = sp.payload_mw > common::MilliWatt{} ||
                       sp.preamble_mw > common::MilliWatt{};
  if (!stored(point, tx)) {
    if (!nonzero) return;
    throw std::logic_error(
        "nonzero power across coupling components at listening point " +
        std::to_string(point) + " (tx " + std::to_string(tx) + ")");
  }
  const Block& b = blocks[comp[tx]];
  const std::size_t r = block_row(point);
  const std::uint32_t col = local[tx];
  power[b.power + r * b.size + col] = sp;
  const std::uint64_t bit = std::uint64_t{1} << (col & 63);
  std::uint64_t& word = nonzero_bits[b.bits + r * b.words + (col >> 6)];
  if (nonzero) {
    word |= bit;
  } else {
    word &= ~bit;
  }
  if (point < num_nodes) {
    audible[b.pairs + r * b.size + col] =
        sp.payload_mw >= common::to_mw(cca_threshold_dbm[point]) ? 1 : 0;
  }
}

Arbiter::Arbiter(ArbiterTables tables, double max_cca_us)
    : tables_(std::move(tables)), max_cca_us_(max_cca_us) {
  ledgers_.resize(tables_.blocks.size());
}

// NOLINTBEGIN(bugprone-easily-swappable-parameters)
std::uint32_t Arbiter::begin_tx(std::uint32_t node, double start_us,
                                double payload_start_us, double end_us) {
  // NOLINTEND(bugprone-easily-swappable-parameters)
  max_duration_us_ = std::max(max_duration_us_, end_us - start_us);
  // Retire the front while it ended by the cutoff, after which every later
  // query window opens (DESIGN.md §15).
  Ledger& l = ledgers_[tables_.comp[node]];
  const double cutoff = start_us - std::max(max_duration_us_, max_cca_us_);
  while (l.head < l.txs.size() && l.txs[l.head].end_us <= cutoff) ++l.head;
  // Erase once the prefix outgrows what the erase moves: O(1) amortised.
  if (l.head > 0 && 2 * l.head >= l.txs.size()) {
    l.txs.erase(l.txs.begin(),
                l.txs.begin() + static_cast<std::ptrdiff_t>(l.head));
    l.first_id += static_cast<std::uint32_t>(l.head);
    l.head = 0;
  }
  const auto id = static_cast<std::uint32_t>(l.first_id + l.txs.size());
  l.txs.push_back(Transmission{node, tables_.local[node], start_us,
                               payload_start_us, end_us});
  return id;
}

void Arbiter::abort_tx(std::uint32_t node, std::uint32_t tx_id,
                       double now_us) {
  Ledger& l = ledgers_[tables_.comp[node]];
  Transmission& x = l.txs[tx_id - l.first_id];
  x.end_us = std::max(x.start_us, now_us);
  // Truncating can only shrink the payload window; clamp its start too so
  // the segment arithmetic in zigbee_cca_busy stays non-negative.
  x.payload_start_us = std::min(x.payload_start_us, x.end_us);
}

bool Arbiter::busy_at(std::uint32_t listener, double t_us) const {
  // Anything on air at t started within the longest duration of it; other
  // components are never audible (0 mW); and any() ignores scan order.
  const auto live = ledgers_[tables_.comp[listener]].live();
  const char* heard = audible_row(listener);
  const double lo_start = t_us - max_duration_us_;
  for (auto it = live.rbegin(); it != live.rend() && it->start_us >= lo_start;
       ++it) {
    if (it->start_us <= t_us && t_us < it->end_us && it->node != listener &&
        heard[it->local] != 0) {
      return true;
    }
  }
  return false;
}

std::span<const Transmission> Arbiter::overlapping(std::uint32_t listener,
                                                   double t0_us,
                                                   double t1_us) const {
  // Starts are sorted but ends are not (transmissions overlap), so scan
  // back by the longest duration seen: any transmission overlapping t0
  // must have started within that window.
  const auto v = ledgers_[tables_.comp[listener]].live();
  const double lo_start = t0_us - max_duration_us_;
  const auto lo = std::lower_bound(
      v.begin(), v.end(), lo_start,
      [](const Transmission& x, double t) { return x.start_us < t; });
  const auto hi = std::upper_bound(
      lo, v.end(), t1_us,
      [](double t, const Transmission& x) { return t < x.start_us; });
  return {lo, hi};
}

bool Arbiter::zigbee_cca_busy(std::uint32_t listener, double t0_us,
                              double t1_us) const {
  const double window = t1_us - t0_us;
  if (window <= 0.0) return false;
  double energy = 0.0;  // mW * us
  const LinkRow row = cca_row(listener);
  for (const Transmission& x : overlapping(listener, t0_us, t1_us)) {
    if (x.node == listener) continue;
    // Zero-power links (pruned or channel-disjoint) contribute exactly
    // 0.0 mW*us; skip them without touching the (cache-cold at campus
    // scale) power table.
    if (!row.nonzero(x.local)) continue;
    const double pre =
        std::max(0.0, std::min(t1_us, x.payload_start_us) -
                          std::max(t0_us, x.start_us));
    const double pay = std::max(
        0.0, std::min(t1_us, x.end_us) - std::max(t0_us, x.payload_start_us));
    // Ledger entries that ended before the window (the scan looks back by
    // the longest duration seen) contribute exactly nothing — skip them
    // before the power-table read, which is the expensive part.
    if (pre <= 0.0 && pay <= 0.0) continue;
    const SegmentPower& p = row.power[x.local];
    energy += pre * p.preamble_mw.value() + pay * p.payload_mw.value();
  }
  const common::Dbm avg_dbm = common::to_dbm(
      common::MilliWatt{energy / window} + tables_.cca_noise_mw[listener]);
  return avg_dbm >= tables_.cca_threshold_dbm[listener];
}

}  // namespace sledzig::sim

#include "sledzig/significant_bits.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sledzig/gf2_rows.h"
#include "wifi/convolutional.h"
#include "wifi/interleaver.h"
#include "wifi/puncture.h"
#include "wifi/qam.h"
#include "wifi/subcarriers.h"

namespace sledzig::core {

std::vector<int> SledzigConfig::forced_subcarrier_set() const {
  if (!window_offsets_hz.empty()) {
    std::vector<int> all;
    for (double offset : window_offsets_hz) {
      const auto subs =
          window_data_subcarriers(plan(), offset, window_bandwidth_hz);
      all.insert(all.end(), subs.begin(), subs.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  }
  if (width != wifi::ChannelWidth::k20MHz) {
    throw std::invalid_argument(
        "SledzigConfig: wide channels need explicit window_offsets_hz");
  }
  if (extra_channels.empty()) {
    return forced_data_subcarriers(channel, forced_count());
  }
  std::vector<OverlapChannel> all;
  all.push_back(channel);
  all.insert(all.end(), extra_channels.begin(), extra_channels.end());
  return forced_data_subcarriers(all);
}

std::size_t significant_bits_per_symbol(const SledzigConfig& cfg) {
  return cfg.forced_subcarrier_set().size() *
         wifi::significant_bits(cfg.modulation).size();
}

std::vector<SignificantBit> significant_bits_for_symbol(
    const SledzigConfig& cfg, std::size_t symbol) {
  const auto& plan = cfg.plan();
  const auto subcarriers = cfg.forced_subcarrier_set();
  const auto specs = wifi::significant_bits(cfg.modulation);
  // Gather convention: QAM-input bit j reads pre-interleaver position perm[j].
  const auto perm = wifi::interleaver_table(cfg.modulation, plan);
  const std::size_t n_bpsc = wifi::bits_per_subcarrier(cfg.modulation);
  const std::size_t n_cbps = wifi::coded_bits_per_symbol(cfg.modulation, plan);

  std::vector<SignificantBit> bits;
  bits.reserve(subcarriers.size() * specs.size());
  for (int logical : subcarriers) {
    const int pos = plan.data_position(logical);
    if (pos < 0) {
      throw std::logic_error("significant_bits: non-data subcarrier chosen");
    }
    for (const auto& spec : specs) {
      // Post-interleaver index within the symbol, traced to the interleaver
      // input, then through the puncturer to the encoder step.
      const std::size_t j =
          static_cast<std::size_t>(pos) * n_bpsc + spec.offset_in_group;
      const std::size_t punctured_in_symbol = perm[j];
      const std::size_t punctured_global = symbol * n_cbps + punctured_in_symbol;
      const std::size_t coded =
          wifi::punctured_to_coded_index(cfg.rate, punctured_global);
      SignificantBit bit;
      bit.punctured_pos = punctured_global;
      bit.value = spec.value;
      bit.step = coded / 2;
      bit.branch = static_cast<unsigned>(coded % 2);
      bits.push_back(bit);
    }
  }
  std::sort(bits.begin(), bits.end(), [](const auto& a, const auto& b) {
    return std::tie(a.step, a.branch) < std::tie(b.step, b.branch);
  });
  return bits;
}

namespace {

/// Chooses one unknown stream position per equation of a cluster by GF(2)
/// forward elimination, preferring each equation's own tap positions in the
/// paper's offset order.  Kept equations and their positions are appended
/// to `plan`; an equation left without an independent unknown counts as
/// unforced.  Every equation has step < payload_end, so every tap it has
/// at or after payload_begin is forcible.
void solve_cluster_positions(std::span<const Equation> eqs,
                             std::size_t payload_begin, Gf2Rows& rows,
                             ConstraintPlan& plan) {
  // Paper-preferred offsets per generator: a single forces x_n first, and a
  // twin's g0 equation forces x_{n-5} (Algorithm 1 of the paper); the
  // remaining taps are fallbacks (g0 lacks x_{n-1}/x_{n-4}, g1 lacks
  // x_{n-4}/x_{n-5}).
  static constexpr unsigned kSingleOffsets[2][5] = {{0, 5, 2, 3, 6},
                                                    {0, 1, 2, 3, 6}};
  static constexpr unsigned kTwinOffsets[2][5] = {{5, 0, 2, 3, 6},
                                                  {1, 0, 2, 3, 6}};
  // Columns are stream positions from the cluster's first tap on.
  const std::size_t first = eqs.front().step;
  const std::size_t base = first >= 6 ? first - 6 : 0;
  rows.reset(eqs.back().step - base + 1);

  for (std::size_t e = 0; e < eqs.size(); ++e) {
    const Equation& eq = eqs[e];
    for (unsigned o = 0; o <= 6 && o <= eq.step; ++o) {
      const std::size_t pos = eq.step - o;
      if (wifi::taps(eq.branch, o) && pos >= payload_begin) {
        rows.set(pos - base);
      }
    }
    rows.reduce(eq.step);
    // Pick a pivot: the equation's own taps in preference order first, then
    // the highest remaining set position.  Twins are adjacent in step order.
    const bool twin = (e > 0 && eqs[e - 1].step == eq.step) ||
                      (e + 1 < eqs.size() && eqs[e + 1].step == eq.step);
    std::size_t pivot = Gf2Rows::kNone;
    for (unsigned o : (twin ? kTwinOffsets : kSingleOffsets)[eq.branch]) {
      if (o <= eq.step && rows.test(eq.step - o - base)) {
        pivot = eq.step - o - base;
        break;
      }
    }
    if (pivot == Gf2Rows::kNone) pivot = rows.highest();
    if (pivot == Gf2Rows::kNone) {
      rows.drop();
      plan.unforced_steps.push_back(eq.step);
      continue;
    }
    rows.keep(eq.step, pivot);
    plan.equations.push_back(eq);
    plan.positions.push_back(base + pivot);
  }
}

/// Fills the counters of a plan whose equations, unforced steps and
/// per-symbol counts cover [payload_begin, payload_end).
void count_plan(ConstraintPlan& plan) {
  const std::size_t symbols =
      (plan.payload_end + plan.symbol_steps - 1) / plan.symbol_steps;
  plan.num_singles = plan.symbol_singles * symbols;
  plan.num_twins = plan.symbol_twins * symbols;
  // Every significant bit of those symbols is a kept equation, an unforced
  // one, or past payload_end.
  plan.num_unforced_tail =
      (plan.num_singles + 2 * plan.num_twins) - plan.equations.size() -
      plan.unforced_steps.size();
  // Equations near the stream head (or the SERVICE field) simply lack room
  // for an unknown; anything else is a genuine rank collision.
  const auto& steps = plan.unforced_steps;
  plan.num_unforced_head = static_cast<std::size_t>(
      std::lower_bound(steps.begin(), steps.end(), plan.payload_begin + 7) -
      steps.begin());
  plan.num_collisions = steps.size() - plan.num_unforced_head;
}

}  // namespace

ConstraintPlan build_constraint_plan(const SledzigConfig& cfg,
                                     std::size_t payload_begin,
                                     std::size_t payload_end) {
  if (payload_end < payload_begin) {
    throw std::invalid_argument("build_constraint_plan: bad payload bounds");
  }
  const std::size_t dbps =
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate, cfg.plan());
  const std::size_t n_cbps =
      wifi::coded_bits_per_symbol(cfg.modulation, cfg.plan());
  // N_CBPS is a whole number of puncture periods in every 802.11 mode, so
  // symbol s repeats symbol 0's significant bits N_CBPS punctured positions
  // and N_DBPS encoder steps later.
  const auto mask = wifi::puncture_mask(cfg.rate);
  const auto kept = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  if (n_cbps % kept != 0 || n_cbps / kept * mask.size() != 2 * dbps) {
    throw std::logic_error(
        "build_constraint_plan: N_CBPS is not whole puncture periods");
  }
  // Steps < payload_end live in symbols < ceil(payload_end / dbps).
  const std::size_t num_symbols = (payload_end + dbps - 1) / dbps;
  const auto pattern = significant_bits_for_symbol(cfg, 0);

  ConstraintPlan plan;
  plan.payload_begin = payload_begin;
  plan.payload_end = payload_end;
  plan.symbol_steps = dbps;

  // Count singles/twins (runs of equal steps) per symbol.
  for (std::size_t i = 0; i < pattern.size();) {
    std::size_t run = 1;
    while (i + run < pattern.size() && pattern[i + run].step == pattern[i].step) {
      ++run;
    }
    if (run > 2) {
      throw std::logic_error("build_constraint_plan: >2 outputs per step");
    }
    ++(run == 1 ? plan.symbol_singles : plan.symbol_twins);
    i += run;
  }

  // Equations up to the tail region.
  std::vector<Equation> equations;
  equations.reserve(num_symbols * pattern.size());
  for (std::size_t s = 0; s < num_symbols; ++s) {
    for (const auto& bit : pattern) {
      const std::size_t step = bit.step + s * dbps;
      if (step >= payload_end) break;  // the pattern is in step order
      equations.push_back(Equation{step, bit.branch, bit.value});
    }
  }

  // Cluster equations whose 7-bit tap windows can interact, then choose the
  // unknowns cluster by cluster.
  plan.equations.reserve(equations.size());
  plan.positions.reserve(equations.size());
  Gf2Rows rows;
  for (std::size_t i = 0; i < equations.size();) {
    std::size_t end = i + 1;
    while (end < equations.size() &&
           equations[end].step <= equations[end - 1].step + 6) {
      ++end;
    }
    solve_cluster_positions(
        std::span<const Equation>(equations).subspan(i, end - i),
        payload_begin, rows, plan);
    i = end;
    const std::size_t size = plan.equations.size();
    if (size > (plan.cluster_ends.empty() ? 0 : plan.cluster_ends.back())) {
      plan.cluster_ends.push_back(size);
    }
  }
  count_plan(plan);
  return plan;
}

std::size_t extra_bits_before(const ConstraintPlan& plan,
                              std::size_t payload_end) {
  return static_cast<std::size_t>(
      std::partition_point(plan.equations.begin(), plan.equations.end(),
                           [&](const Equation& eq) {
                             return eq.step < payload_end;
                           }) -
      plan.equations.begin());
}

void truncate_constraint_plan(ConstraintPlan& plan, std::size_t payload_end) {
  if (payload_end < plan.payload_begin || payload_end > plan.payload_end) {
    throw std::invalid_argument("truncate_constraint_plan: bad payload end");
  }
  const std::size_t kept = extra_bits_before(plan, payload_end);
  plan.equations.resize(kept);
  plan.positions.resize(kept);
  // Clusters that start before the cut stay; the one it splits ends there.
  auto& ends = plan.cluster_ends;
  auto split = std::upper_bound(ends.begin(), ends.end(), kept);
  const std::size_t start = split == ends.begin() ? 0 : *(split - 1);
  if (split != ends.end() && start < kept) *split++ = kept;
  ends.erase(split, ends.end());
  auto& steps = plan.unforced_steps;
  steps.erase(std::lower_bound(steps.begin(), steps.end(), payload_end),
              steps.end());
  plan.payload_end = payload_end;
  count_plan(plan);
}

}  // namespace sledzig::core

// Oracle tests for the WiFi/SledZig frame-path kernels (`perf` label).
//
// The `ref` namespace holds verbatim copies of the straightforward
// implementations these kernels replaced: the exhaustive max-log soft
// demapper, the per-(state, input) Viterbi add-compare-select with a
// steps x 64 survivor table, the constraint-plan builder that walks
// every OFDM symbol through the interleaver and solves each cluster over
// byte-per-bit rows, and the receiver's scalar preamble scans (the STF
// autocorrelation that recomputed every window's products, and the LTF
// cross-correlation with the library complex multiply), the depuncturer
// that grew its output one push_back at a time, the serial scrambler LFSR,
// and the SledZig encoder that built one nested plan per sizing trial.  The
// production kernels must reproduce them bit for bit (memcmp on doubles),
// including on the edge inputs that decide ties, sentinels, overflow and
// saturation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <map>
#include <numbers>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "channel/impairments.h"
#include "channel/medium.h"
#include "common/dsp.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/units.h"
#include "sledzig/channels.h"
#include "sledzig/encoder.h"
#include "sledzig/gf2_rows.h"
#include "sledzig/significant_bits.h"
#include "wifi/convolutional.h"
#include "wifi/phy_params.h"
#include "wifi/preamble.h"
#include "wifi/puncture.h"
#include "wifi/qam.h"
#include "wifi/receiver.h"
#include "wifi/scrambler.h"
#include "wifi/signal_field.h"
#include "wifi/transmitter.h"

namespace sledzig {
namespace {

namespace ref {

// --- Exhaustive max-log soft demapper ------------------------------------

std::vector<double> qam_demap_soft(common::Cplx point, wifi::Modulation m) {
  const std::size_t n_bpsc = wifi::bits_per_subcarrier(m);
  struct Entry {
    common::Cplx point;
    unsigned label;
  };
  static const auto tables = [] {
    std::array<std::vector<Entry>, 5> all;
    for (const auto mod :
         {wifi::Modulation::kBpsk, wifi::Modulation::kQpsk,
          wifi::Modulation::kQam16, wifi::Modulation::kQam64,
          wifi::Modulation::kQam256}) {
      const std::size_t bits = wifi::bits_per_subcarrier(mod);
      auto& table = all[static_cast<std::size_t>(mod)];
      for (unsigned v = 0; v < (1u << bits); ++v) {
        common::Bits group(bits);
        for (std::size_t i = 0; i < bits; ++i) {
          group[i] = static_cast<common::Bit>((v >> i) & 1u);
        }
        table.push_back(Entry{wifi::qam_map_point(group, mod), v});
      }
    }
    return all;
  }();
  const auto& table = tables[static_cast<std::size_t>(m)];
  std::vector<double> min0(n_bpsc, 1e300), min1(n_bpsc, 1e300);
  for (const auto& e : table) {
    const double d = std::norm(point - e.point);
    for (std::size_t i = 0; i < n_bpsc; ++i) {
      if ((e.label >> i) & 1u) {
        min1[i] = std::min(min1[i], d);
      } else {
        min0[i] = std::min(min0[i], d);
      }
    }
  }
  std::vector<double> llrs(n_bpsc);
  for (std::size_t i = 0; i < n_bpsc; ++i) llrs[i] = min0[i] - min1[i];
  return llrs;
}

// --- Per-(state, input) Viterbi ------------------------------------------

struct Branch {
  std::uint8_t next;
  std::uint8_t a, b;
};

std::array<std::array<Branch, 2>, wifi::kNumStates> trellis() {
  std::array<std::array<Branch, 2>, wifi::kNumStates> out{};
  for (unsigned s = 0; s < wifi::kNumStates; ++s) {
    for (unsigned in = 0; in < 2; ++in) {
      const auto r = wifi::encode_step(s, static_cast<common::Bit>(in));
      out[s][in] =
          Branch{static_cast<std::uint8_t>(r.next_state), r.out_a, r.out_b};
    }
  }
  return out;
}

template <typename Metric, typename FillTables>
common::Bits viterbi_sweep(std::size_t steps, Metric inf, bool terminated,
                           FillTables&& fill_tables) {
  const auto tr = trellis();
  std::array<Metric, wifi::kNumStates> metric;
  std::array<Metric, wifi::kNumStates> next_metric;
  metric.fill(inf);
  metric[0] = Metric{};
  std::vector<std::uint8_t> survivor(steps * wifi::kNumStates, 0);
  for (std::size_t t = 0; t < steps; ++t) {
    next_metric.fill(inf);
    Metric ca[2], cb[2];
    fill_tables(t, ca, cb);
    std::uint8_t* surv_t = survivor.data() + t * wifi::kNumStates;
    for (unsigned s = 0; s < wifi::kNumStates; ++s) {
      if (metric[s] >= inf) continue;
      for (unsigned in = 0; in < 2; ++in) {
        const Branch& br = tr[s][in];
        const Metric cost = (metric[s] + ca[br.a]) + cb[br.b];
        if (cost < next_metric[br.next]) {
          next_metric[br.next] = cost;
          surv_t[br.next] = static_cast<std::uint8_t>((in << 6) | s);
        }
      }
    }
    metric.swap(next_metric);
  }
  unsigned state = 0;
  if (!terminated) {
    Metric best = inf;
    for (unsigned s = 0; s < wifi::kNumStates; ++s) {
      if (metric[s] < best) {
        best = metric[s];
        state = s;
      }
    }
  }
  common::Bits decoded(steps);
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint8_t packed = survivor[t * wifi::kNumStates + state];
    decoded[t] = static_cast<common::Bit>(packed >> 6);
    state = packed & 0x3fu;
  }
  return decoded;
}

/// Marks an erased (punctured) position in a hard-decision stream.
constexpr std::int8_t kErased = -1;

/// Hamming-metric Viterbi over hard decisions: 0, 1 or kErased per coded
/// bit.
common::Bits viterbi_decode(const std::vector<std::int8_t>& coded,
                            bool terminated) {
  constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 2;
  return viterbi_sweep(
      coded.size() / 2, kInf, terminated,
      [&](std::size_t t, unsigned (&ca)[2], unsigned (&cb)[2]) {
        const std::int8_t ra = coded[2 * t];
        const std::int8_t rb = coded[2 * t + 1];
        ca[0] = (ra != kErased && ra != 0) ? 1u : 0u;
        ca[1] = (ra != kErased && ra != 1) ? 1u : 0u;
        cb[0] = (rb != kErased && rb != 0) ? 1u : 0u;
        cb[1] = (rb != kErased && rb != 1) ? 1u : 0u;
      });
}

common::Bits viterbi_decode_soft(const std::vector<double>& llrs,
                                 bool terminated) {
  constexpr double kInf = 1e300;
  return viterbi_sweep(
      llrs.size() / 2, kInf, terminated,
      [&](std::size_t t, double (&ca)[2], double (&cb)[2]) {
        const double la = llrs[2 * t];
        const double lb = llrs[2 * t + 1];
        ca[0] = la;
        ca[1] = -la;
        cb[0] = lb;
        cb[1] = -lb;
      });
}

// --- Constraint-plan builder ---------------------------------------------

// The nested plan layout the flat core::ConstraintPlan replaced: a pair of
// vectors per cluster, and the sorted union of the positions.
struct Cluster {
  std::vector<core::Equation> equations;
  std::vector<std::size_t> positions;  // same length as equations
};

struct ConstraintPlan {
  std::vector<Cluster> clusters;
  std::vector<std::size_t> extra_positions;
  std::size_t num_singles = 0;
  std::size_t num_twins = 0;
  std::size_t num_unforced_tail = 0;
  std::size_t num_unforced_head = 0;
  std::size_t num_collisions = 0;
};

/// A flat plan in the nested layout.
ConstraintPlan nest(const core::ConstraintPlan& flat) {
  ConstraintPlan plan;
  std::size_t begin = 0;
  for (const std::size_t end : flat.cluster_ends) {
    Cluster cluster;
    cluster.equations.assign(flat.equations.begin() + static_cast<long>(begin),
                             flat.equations.begin() + static_cast<long>(end));
    cluster.positions.assign(flat.positions.begin() + static_cast<long>(begin),
                             flat.positions.begin() + static_cast<long>(end));
    plan.clusters.push_back(std::move(cluster));
    begin = end;
  }
  plan.extra_positions = flat.positions;
  std::sort(plan.extra_positions.begin(), plan.extra_positions.end());
  plan.num_singles = flat.num_singles;
  plan.num_twins = flat.num_twins;
  plan.num_unforced_tail = flat.num_unforced_tail;
  plan.num_unforced_head = flat.num_unforced_head;
  plan.num_collisions = flat.num_collisions;
  return plan;
}

std::vector<core::SignificantBit> all_significant_bits(
    const core::SledzigConfig& cfg, std::size_t num_symbols) {
  std::vector<core::SignificantBit> all;
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const auto symbol_bits = core::significant_bits_for_symbol(cfg, s);
    all.insert(all.end(), symbol_bits.begin(), symbol_bits.end());
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return std::tie(a.step, a.branch) < std::tie(b.step, b.branch);
  });
  return all;
}

common::Bit gen_coeff(unsigned branch, std::size_t step, std::size_t pos) {
  const unsigned gen = branch == 0 ? wifi::kGen0 : wifi::kGen1;
  if (pos > step || step - pos > 6) return 0;
  return static_cast<common::Bit>((gen >> (6 - (step - pos))) & 1u);
}

void solve_cluster_positions(Cluster& cluster, std::size_t payload_begin,
                             std::size_t payload_end,
                             std::vector<core::Equation>& unforced) {
  std::vector<std::size_t> candidates;
  for (const auto& eq : cluster.equations) {
    for (unsigned o = 0; o <= 6; ++o) {
      if (eq.step < o) continue;
      const std::size_t pos = eq.step - o;
      if (pos < payload_begin || pos >= payload_end) continue;
      if (gen_coeff(eq.branch, eq.step, pos)) candidates.push_back(pos);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const auto candidate_index = [&](std::size_t pos) -> int {
    const auto it = std::lower_bound(candidates.begin(), candidates.end(), pos);
    if (it == candidates.end() || *it != pos) return -1;
    return static_cast<int>(it - candidates.begin());
  };
  static constexpr unsigned kSingleOffsets[2][5] = {{0, 5, 2, 3, 6},
                                                    {0, 1, 2, 3, 6}};
  static constexpr unsigned kTwinOffsets[2][5] = {{5, 0, 2, 3, 6},
                                                  {1, 0, 2, 3, 6}};
  std::map<std::size_t, unsigned> step_counts;
  for (const auto& eq : cluster.equations) ++step_counts[eq.step];

  std::vector<std::vector<common::Bit>> reduced_rows;
  std::vector<int> pivot_cols;
  std::vector<core::Equation> kept;
  std::vector<std::size_t> positions;
  for (const auto& eq : cluster.equations) {
    std::vector<common::Bit> row(candidates.size(), 0);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      row[c] = gen_coeff(eq.branch, eq.step, candidates[c]);
    }
    for (std::size_t r = 0; r < reduced_rows.size(); ++r) {
      if (row[static_cast<std::size_t>(pivot_cols[r])]) {
        for (std::size_t c = 0; c < row.size(); ++c) {
          row[c] ^= reduced_rows[r][c];
        }
      }
    }
    int pivot = -1;
    const auto& prefs =
        step_counts[eq.step] == 2 ? kTwinOffsets : kSingleOffsets;
    for (unsigned o : prefs[eq.branch]) {
      if (eq.step < o) continue;
      const int idx = candidate_index(eq.step - o);
      if (idx >= 0 && row[static_cast<std::size_t>(idx)]) {
        pivot = idx;
        break;
      }
    }
    if (pivot < 0) {
      for (std::size_t c = candidates.size(); c-- > 0;) {
        if (row[c]) {
          pivot = static_cast<int>(c);
          break;
        }
      }
    }
    if (pivot < 0) {
      unforced.push_back(eq);
      continue;
    }
    reduced_rows.push_back(std::move(row));
    pivot_cols.push_back(pivot);
    kept.push_back(eq);
    positions.push_back(candidates[static_cast<std::size_t>(pivot)]);
  }
  cluster.equations = std::move(kept);
  cluster.positions = std::move(positions);
}

ConstraintPlan build_constraint_plan(const core::SledzigConfig& cfg,
                                     std::size_t payload_begin,
                                     std::size_t payload_end) {
  const std::size_t dbps =
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate, cfg.plan());
  const std::size_t num_symbols = (payload_end + dbps - 1) / dbps;
  const auto sig = all_significant_bits(cfg, num_symbols);
  ConstraintPlan plan;
  std::map<std::size_t, unsigned> outputs_per_step;
  std::vector<core::Equation> equations;
  for (const auto& bit : sig) {
    ++outputs_per_step[bit.step];
    if (bit.step >= payload_end) {
      ++plan.num_unforced_tail;
      continue;
    }
    equations.push_back(core::Equation{bit.step, bit.branch, bit.value});
  }
  for (const auto& [step, count] : outputs_per_step) {
    if (count == 1) {
      ++plan.num_singles;
    } else if (count == 2) {
      ++plan.num_twins;
    } else {
      throw std::logic_error("build_constraint_plan: >2 outputs per step");
    }
  }
  std::vector<core::Equation> unforced;
  for (std::size_t i = 0; i < equations.size();) {
    Cluster cluster;
    cluster.equations.push_back(equations[i]);
    std::size_t last_step = equations[i].step;
    std::size_t jmp = i + 1;
    while (jmp < equations.size() && equations[jmp].step <= last_step + 6) {
      last_step = std::max(last_step, equations[jmp].step);
      cluster.equations.push_back(equations[jmp]);
      ++jmp;
    }
    i = jmp;
    solve_cluster_positions(cluster, payload_begin, payload_end, unforced);
    if (!cluster.equations.empty()) {
      plan.extra_positions.insert(plan.extra_positions.end(),
                                  cluster.positions.begin(),
                                  cluster.positions.end());
      plan.clusters.push_back(std::move(cluster));
    }
  }
  for (const auto& eq : unforced) {
    if (eq.step < payload_begin + 7) {
      ++plan.num_unforced_head;
    } else {
      ++plan.num_collisions;
    }
  }
  std::sort(plan.extra_positions.begin(), plan.extra_positions.end());
  return plan;
}

// --- Scalar preamble scans ------------------------------------------------

std::optional<std::size_t> detect_preamble(std::span<const common::Cplx> samples,
                                           double threshold,
                                           wifi::ChannelWidth width) {
  const auto& ref = wifi::full_preamble(width);
  if (samples.size() < ref.size()) return std::nullopt;
  const double ref_energy = common::energy(ref);

  double best_corr = 0.0;
  std::size_t best_pos = 0;
  double win_energy = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) win_energy += std::norm(samples[i]);

  const std::size_t last = samples.size() - ref.size();
  for (std::size_t t = 0; t <= last; ++t) {
    common::Cplx acc(0.0, 0.0);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      acc += samples[t + i] * std::conj(ref[i]);
    }
    const double denom = std::sqrt(std::max(win_energy, 1e-30) * ref_energy);
    const double corr = std::abs(acc) / denom;
    if (corr > best_corr) {
      best_corr = corr;
      best_pos = t;
    }
    if (t < last) {
      win_energy += std::norm(samples[t + ref.size()]) - std::norm(samples[t]);
    }
  }
  if (best_corr < threshold) return std::nullopt;
  return best_pos;
}

double lag_phase(std::span<const common::Cplx> samples, std::size_t begin,
                 std::size_t lag, std::size_t span) {
  common::Cplx acc(0.0, 0.0);
  for (std::size_t i = 0; i < span; ++i) {
    acc += samples[begin + i + lag] * std::conj(samples[begin + i]);
  }
  return std::arg(acc) / static_cast<double>(lag);
}

common::CplxVec derotate(std::span<const common::Cplx> samples,
                         double cfo_hz, double fs) {
  return common::frequency_shift(samples, -cfo_hz, fs);
}

std::optional<wifi::SyncInfo> synchronize_packet(
    std::span<const common::Cplx> samples, double threshold,
    wifi::ChannelWidth width) {
  const auto& plan = wifi::channel_plan(width);
  const std::size_t lag = plan.fft_size / 4;
  const std::size_t window = wifi::stf_len(width) - 2 * lag;
  if (samples.size() < wifi::preamble_len(width) + plan.symbol_len()) {
    return std::nullopt;
  }

  double best_metric = 0.0;
  std::size_t coarse = 0;
  const std::size_t last = samples.size() - wifi::preamble_len(width);
  for (std::size_t t = 0; t <= last; t += 4) {
    common::Cplx acc(0.0, 0.0);
    double energy = 0.0, energy_shift = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
      acc += samples[t + i + lag] * std::conj(samples[t + i]);
      energy += std::norm(samples[t + i]);
      energy_shift += std::norm(samples[t + i + lag]);
    }
    const double denom = std::sqrt(energy * energy_shift);
    if (denom <= 1e-30) continue;
    const double metric = std::abs(acc) / denom;
    if (metric > best_metric) {
      best_metric = metric;
      coarse = t;
    }
  }
  if (best_metric < 0.5) return std::nullopt;

  const double fs = plan.sample_rate_hz;
  const double coarse_cfo =
      lag_phase(samples, coarse, lag, window) * fs / (2.0 * std::numbers::pi);

  const std::size_t search_begin =
      coarse > plan.fft_size ? coarse - plan.fft_size : 0;
  const std::size_t search_len =
      std::min(samples.size() - search_begin,
               wifi::preamble_len(width) + 3 * plan.fft_size);
  const auto region = derotate(samples.subspan(search_begin, search_len),
                               coarse_cfo, fs);
  const auto fine = detect_preamble(region, threshold, width);
  if (!fine) return std::nullopt;
  const std::size_t start = search_begin + *fine;

  const std::size_t lts1 = start + wifi::stf_len(width) + plan.fft_size / 2;
  if (lts1 + 2 * plan.fft_size > samples.size()) return std::nullopt;
  const auto around_ltf =
      derotate(samples.subspan(lts1, 2 * plan.fft_size), coarse_cfo, fs);
  const double fine_cfo =
      lag_phase(around_ltf, 0, plan.fft_size, plan.fft_size) * fs /
      (2.0 * std::numbers::pi);

  return wifi::SyncInfo{start, coarse_cfo + fine_cfo};
}

// --- Depuncturer that grew its output one LLR at a time --------------------

std::vector<double> depuncture(std::span<const double> punctured,
                               wifi::CodingRate r) {
  const auto mask = wifi::puncture_mask(r);
  std::size_t kept_per_period = 0;
  for (bool keep : mask) kept_per_period += keep ? 1 : 0;

  std::vector<double> out;
  out.reserve(punctured.size() * mask.size() / kept_per_period + mask.size());
  std::size_t in_pos = 0;
  std::size_t last_kept_end = 0;  // one past the last real (non-erased) LLR
  while (in_pos < punctured.size()) {
    for (bool keep : mask) {
      if (keep && in_pos < punctured.size()) {
        out.push_back(punctured[in_pos++]);
        last_kept_end = out.size();
      } else {
        out.push_back(0.0);
      }
    }
  }
  // The encoder may have stopped mid-pattern; drop padding beyond the last
  // real LLR, rounded up to a whole trellis step.
  out.resize(last_kept_end + (last_kept_end % 2));
  return out;
}

// --- Serial scrambler LFSR and push_back bit conversions --------------------

common::Bits scrambler_sequence(std::uint8_t seed, std::size_t count) {
  if ((seed & 0x7f) == 0) {
    throw std::invalid_argument("scrambler: seed must be a nonzero 7-bit value");
  }
  // state bits: state[0] = x1 ... state[6] = x7 in the standard's notation.
  std::uint8_t state = static_cast<std::uint8_t>(seed & 0x7f);
  common::Bits out(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Feedback = x7 XOR x4.
    const std::uint8_t x7 = (state >> 6) & 1u;
    const std::uint8_t x4 = (state >> 3) & 1u;
    const std::uint8_t fb = x7 ^ x4;
    out[i] = fb;
    state = static_cast<std::uint8_t>(((state << 1) | fb) & 0x7f);
  }
  return out;
}

common::Bits bytes_to_bits(std::span<const std::uint8_t> bytes) {
  common::Bits bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t byte : bytes) {
    for (int i = 0; i < 8; ++i) {
      bits.push_back(static_cast<common::Bit>((byte >> i) & 1u));
    }
  }
  return bits;
}

common::Bytes bits_to_bytes(std::span<const common::Bit> bits) {
  common::Bytes bytes(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bytes[i / 8] |= static_cast<std::uint8_t>((bits[i] & 1u) << (i % 8));
  }
  return bytes;
}

// --- Encoder that built one nested plan per sizing trial --------------------

constexpr common::Bit kUnset = 2;

void solve_cluster(const Cluster& cluster, common::Bits& x,
                   core::Gf2Rows& rows) {
  const std::size_t first = cluster.equations.front().step;
  const std::size_t base = first >= 6 ? first - 6 : 0;
  rows.reset(cluster.equations.back().step - base + 1);
  for (std::size_t e = 0; e < cluster.equations.size(); ++e) {
    const core::Equation& eq = cluster.equations[e];
    rows.flip_rhs(eq.value & 1u);
    for (unsigned o = 0; o <= 6 && o <= eq.step; ++o) {
      if (!wifi::taps(eq.branch, o)) continue;
      const std::size_t pos = eq.step - o;
      if (x[pos] == kUnset) {
        rows.set(pos - base);
      } else {
        rows.flip_rhs(x[pos] & 1u);
      }
    }
    rows.reduce(eq.step);
    const std::size_t pivot = cluster.positions[e] - base;
    if (!rows.test(pivot)) {
      throw std::logic_error("sledzig: singular cluster system");
    }
    rows.keep(eq.step, pivot);
  }
  rows.back_substitute([&](std::size_t r, unsigned value) {
    x[cluster.positions[r]] = static_cast<common::Bit>(value);
  });
}

common::Bit encoder_output(const common::Bits& x, std::size_t step,
                           unsigned branch) {
  unsigned state = 0;  // x_{n-1} in bit 5 ... x_{n-6} in bit 0
  for (unsigned i = 1; i <= 6 && i <= step; ++i) {
    state |= static_cast<unsigned>(x[step - i] & 1u) << (6 - i);
  }
  const auto r = wifi::encode_step(state, x[step]);
  return branch == 0 ? r.out_a : r.out_b;
}

std::size_t round_up8(std::size_t v) { return (v + 7) / 8 * 8; }

ConstraintPlan nested_plan(const core::SledzigConfig& cfg, std::size_t begin,
                           std::size_t end) {
  return nest(core::build_constraint_plan(cfg, begin, end));
}

core::SledzigEncodeResult sledzig_encode(const common::Bytes& payload,
                                         const core::SledzigConfig& cfg) {
  common::Bytes inner;
  inner.reserve(payload.size() + 2);
  inner.push_back(static_cast<std::uint8_t>(payload.size() & 0xff));
  inner.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  inner.insert(inner.end(), payload.begin(), payload.end());
  const auto data_bits = bytes_to_bits(inner);

  const std::size_t svc = cfg.include_service_field ? 16 : 0;

  std::size_t t = round_up8(data_bits.size());
  ConstraintPlan plan;
  for (int iter = 0; iter < 64; ++iter) {
    plan = nested_plan(cfg, svc, svc + t);
    const std::size_t capacity = t - plan.extra_positions.size();
    if (capacity >= data_bits.size()) break;
    t = round_up8(data_bits.size() + plan.extra_positions.size() + 8);
  }
  const std::size_t capacity = t - plan.extra_positions.size();
  if (capacity < data_bits.size()) {
    throw std::logic_error("sledzig_encode: sizing did not converge");
  }

  const auto key_abs = scrambler_sequence(cfg.scrambler_seed, svc + t);
  const auto key_data = scrambler_sequence(cfg.scrambler_seed, capacity);

  common::Bits x(svc + t, kUnset);
  for (std::size_t p = 0; p < svc; ++p) x[p] = key_abs[p];
  std::size_t j = 0;
  auto extra = plan.extra_positions.begin();
  for (std::size_t p = svc; p < svc + t; ++p) {
    if (extra != plan.extra_positions.end() && *extra == p) {
      ++extra;
      continue;
    }
    const common::Bit data = j < data_bits.size() ? data_bits[j] : 0;
    x[p] = static_cast<common::Bit>((data ^ key_data[j]) & 1u);
    ++j;
  }

  core::SledzigEncodeResult result;
  result.num_twins = plan.num_twins;
  result.num_unforced_tail = plan.num_unforced_tail;
  result.num_unforced_head = plan.num_unforced_head;
  result.num_collisions = plan.num_collisions;
  core::Gf2Rows rows;
  for (const auto& cluster : plan.clusters) {
    solve_cluster(cluster, x, rows);
    result.num_extra_bits += cluster.positions.size();
  }
  for (auto& bit : x) {
    if (bit == kUnset) bit = 0;
  }

  for (const auto& cluster : plan.clusters) {
    for (const auto& eq : cluster.equations) {
      if (encoder_output(x, eq.step, eq.branch) != eq.value) {
        ++result.num_violations;
      }
    }
  }

  common::Bits t_bits(t);
  for (std::size_t p = svc; p < svc + t; ++p) {
    t_bits[p - svc] = static_cast<common::Bit>((x[p] ^ key_abs[p]) & 1u);
  }
  result.transmit_psdu = bits_to_bytes(t_bits);
  result.scrambled_payload = std::move(x);
  return result;
}

std::optional<common::Bytes> sledzig_decode(const common::Bytes& transmit_psdu,
                                            const core::SledzigConfig& cfg) {
  const std::size_t t = transmit_psdu.size() * 8;
  if (t == 0) return std::nullopt;
  const std::size_t svc = cfg.include_service_field ? 16 : 0;
  const auto plan = nested_plan(cfg, svc, svc + t);
  const auto key_abs = scrambler_sequence(cfg.scrambler_seed, svc + t);
  const auto t_bits = bytes_to_bits(transmit_psdu);

  common::Bits residual;
  residual.reserve(t);
  auto extra = plan.extra_positions.begin();
  for (std::size_t p = svc; p < svc + t; ++p) {
    if (extra != plan.extra_positions.end() && *extra == p) {
      ++extra;
      continue;
    }
    residual.push_back(
        static_cast<common::Bit>((t_bits[p - svc] ^ key_abs[p]) & 1u));
  }
  const auto key_data = scrambler_sequence(cfg.scrambler_seed, residual.size());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] = static_cast<common::Bit>((residual[i] ^ key_data[i]) & 1u);
  }
  if (residual.size() < 16) return std::nullopt;
  const std::size_t len =
      static_cast<std::size_t>(common::bits_to_uint(residual, 16));
  if (16 + len * 8 > residual.size()) return std::nullopt;
  common::Bits payload_bits(residual.begin() + 16,
                            residual.begin() + static_cast<long>(16 + len * 8));
  return bits_to_bytes(payload_bits);
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Soft demapper

constexpr wifi::Modulation kAllModulations[] = {
    wifi::Modulation::kBpsk, wifi::Modulation::kQpsk, wifi::Modulation::kQam16,
    wifi::Modulation::kQam64, wifi::Modulation::kQam256};

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  // An empty vector's data() may be null, which memcmp may not be handed.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Seeded Gaussian points plus the inputs where rounding decides the
/// result: constellation levels, decision boundaries (even multiples of
/// K_mod), levels and boundaries nudged by 1e-300, far-out points at
/// +-1e6, and points far enough out that the 1e300 cap saturates.
std::vector<common::Cplx> demapper_points(wifi::Modulation m) {
  common::Rng rng(0xd3a9 + static_cast<std::uint64_t>(m));
  std::vector<common::Cplx> pts;
  for (int i = 0; i < 10000; ++i) pts.push_back(rng.complex_gaussian(1.0));
  for (int i = 0; i < 2000; ++i) pts.push_back(rng.complex_gaussian(1e-3));
  const double k = wifi::qam_norm(m);
  std::vector<double> axis;
  for (int v = -17; v <= 17; ++v) {
    axis.push_back(k * v);  // odd v: levels; even v: decision boundaries
    axis.push_back(k * v + 1e-300);
    axis.push_back(k * v - 1e-300);
  }
  axis.insert(axis.end(), {0.0, -0.0, 1e-300, -1e-300, 1e6, -1e6, 1e160,
                           -1e160});
  for (double re : axis) {
    for (double im : axis) pts.emplace_back(re, im);
  }
  return pts;
}

TEST(HotpathOracle, SoftDemapperMatchesExhaustiveReference) {
  for (const auto m : kAllModulations) {
    const auto pts = demapper_points(m);
    std::vector<double> expected;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto want = ref::qam_demap_soft(pts[i], m);
      const auto got = wifi::qam_demap_soft(pts[i], m);
      ASSERT_TRUE(same_doubles(got, want))
          << wifi::to_string(m) << " point " << i << " = " << pts[i];
      expected.insert(expected.end(), want.begin(), want.end());
    }
    EXPECT_TRUE(same_doubles(wifi::qam_demap_soft(pts, m), expected))
        << wifi::to_string(m);
  }
}

// ---------------------------------------------------------------------------
// Viterbi

common::Bits random_codeword(std::uint64_t seed, std::size_t steps) {
  common::Rng rng(seed);
  auto info = rng.bits(steps);
  return wifi::convolutional_encode(info);
}

TEST(HotpathOracle, HardViterbiMatchesReference) {
  // Hard decisions reach the decoder as LLRs of +-1 and erasures as 0; the
  // Hamming sweep must pick the same path, ties included.
  const auto as_llrs = [](const std::vector<std::int8_t>& hard) {
    std::vector<double> llrs(hard.size());
    for (std::size_t i = 0; i < hard.size(); ++i) {
      llrs[i] = hard[i] == ref::kErased ? 0.0 : hard[i] == 1 ? 1.0 : -1.0;
    }
    return llrs;
  };
  std::size_t cases = 0;
  for (std::size_t steps : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 6000u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto coded = random_codeword(seed * 131 + steps, steps);
      common::Rng rng(seed);
      std::vector<std::int8_t> hard(coded.begin(), coded.end());
      // Seed 1 decodes the clean codeword; the others flip and erase a
      // growing share of the positions, down to pure erasures (all ties).
      const double flip = 0.04 * static_cast<double>(seed - 1);
      const double erase = seed == 6 ? 1.0 : 0.1 * static_cast<double>(seed - 1);
      for (auto& c : hard) {
        if (rng.uniform() < flip) c ^= 1;
        if (rng.uniform() < erase) c = ref::kErased;
      }
      for (bool terminated : {true, false}) {
        EXPECT_EQ(wifi::viterbi_decode(as_llrs(hard), terminated),
                  ref::viterbi_decode(hard, terminated))
            << "steps " << steps << " seed " << seed << " terminated "
            << terminated;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 120u);
}

TEST(HotpathOracle, SoftViterbiMatchesReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    std::vector<double> llrs;
  };
  std::vector<Case> cases;
  for (std::size_t steps : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 6000u}) {
    const auto coded = random_codeword(0x50f7 + steps, steps);
    for (double sigma : {0.0, 0.5, 2.0, 4.0}) {
      common::Rng rng(static_cast<std::uint64_t>(sigma * 8) + steps);
      std::vector<double> llrs(coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        const double noise = sigma > 0 ? rng.gaussian(sigma) : 0.0;
        llrs[i] = (coded[i] ? 1.0 : -1.0) + noise;
      }
      cases.push_back({"noisy", llrs});
      // Punctured positions carry LLR 0, as depuncture writes them.
      for (std::size_t i = 3; i < llrs.size(); i += 4) llrs[i] = 0.0;
      cases.push_back({"punctured", llrs});
    }
    cases.push_back({"all-zero", std::vector<double>(coded.size(), 0.0)});
    common::Rng sign(0x1e300 + steps);
    std::vector<double> huge(coded.size());
    for (auto& l : huge) l = sign.uniform() < 0.5 ? -1e300 : 1e300;
    cases.push_back({"+-1e300", huge});
    for (std::size_t i = 0; i < huge.size(); ++i) {
      huge[i] = coded[i] ? 1e300 : -1e300;
    }
    cases.push_back({"clean 1e300", huge});
    if (steps == 0) continue;
    // One +-inf pair at the start, the middle and the last step.
    for (std::size_t at : {std::size_t{0}, steps / 2, steps - 1}) {
      for (auto [la, lb] : {std::pair{kInf, -kInf}, std::pair{-kInf, kInf},
                            std::pair{kInf, kInf}, std::pair{-kInf, -kInf}}) {
        std::vector<double> llrs(coded.size());
        common::Rng rng(at * 7 + steps);
        for (std::size_t i = 0; i < coded.size(); ++i) {
          llrs[i] = (coded[i] ? 1.0 : -1.0) + rng.gaussian(2.0);
        }
        llrs[2 * at] = la;
        llrs[2 * at + 1] = lb;
        cases.push_back({"inf pair", llrs});
      }
    }
  }
  for (const auto& c : cases) {
    for (bool terminated : {true, false}) {
      EXPECT_EQ(wifi::viterbi_decode(c.llrs, terminated),
                ref::viterbi_decode_soft(c.llrs, terminated))
          << c.name << " steps " << c.llrs.size() / 2 << " terminated "
          << terminated;
    }
  }
}

TEST(HotpathOracle, SoftViterbiMatchesReferenceAtTheLlrBound) {
  // Every |LLR| at most 1e280 runs the sweep without the sentinel clamp;
  // one LLR past it, or a NaN, runs the clamped sweep over the whole input.
  constexpr double kBound = 1e280;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kSteps = 3000;
  const auto coded = random_codeword(0xb0b, kSteps);
  struct Case {
    const char* name;
    std::vector<double> llrs;
  };
  std::vector<Case> cases;
  std::vector<double> at_bound(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    at_bound[i] = coded[i] ? kBound : -kBound;
  }
  cases.push_back({"clean +-1e280", at_bound});
  common::Rng sign(0x1e280);
  for (auto& l : at_bound) l = sign.uniform() < 0.5 ? -kBound : kBound;
  cases.push_back({"random +-1e280", at_bound});

  common::Rng rng(0x2e280);
  std::vector<double> noisy(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    noisy[i] = (coded[i] ? 1.0 : -1.0) + rng.gaussian(2.0);
  }
  for (double past : {std::nextafter(kBound, kInf),
                      -std::nextafter(kBound, kInf)}) {
    auto llrs = noisy;
    llrs[kSteps + 1] = past;
    cases.push_back({"one LLR past 1e280", llrs});
  }
  for (std::size_t at : {std::size_t{0}, kSteps, 2 * kSteps - 1}) {
    auto llrs = noisy;
    llrs[at] = std::numeric_limits<double>::quiet_NaN();
    cases.push_back({"NaN", llrs});
  }
  for (const auto& c : cases) {
    for (bool terminated : {true, false}) {
      EXPECT_EQ(wifi::viterbi_decode(c.llrs, terminated),
                ref::viterbi_decode_soft(c.llrs, terminated))
          << c.name << " terminated " << terminated;
    }
  }
}

// ---------------------------------------------------------------------------
// Preamble scans

constexpr double kThreshold = 0.55;  // WifiRxConfig's default

struct ScanCase {
  std::string name;
  common::CplxVec samples;
  wifi::ChannelWidth width = wifi::ChannelWidth::k20MHz;
};

/// A phy_link-style received buffer: a random payload in mode (m, r), a
/// 160-sample lead, a 20 kHz CFO and an 8-bit ADC at `rx_dbm`.
common::CplxVec phy_link_buffer(std::uint64_t seed, wifi::Modulation m,
                                wifi::CodingRate r, std::size_t octets,
                                double rx_dbm) {
  channel::ImpairmentConfig imp;
  imp.cfo = true;
  imp.cfo_hz = 20e3;
  imp.quantization = true;
  imp.quant_bits = 8;
  wifi::WifiTxConfig tx;
  tx.modulation = m;
  tx.rate = r;
  const auto packet = wifi::wifi_transmit(common::Rng(seed).bytes(octets), tx);
  common::Rng rng(seed + 1);
  const channel::Emission e{&packet.samples, rx_dbm, 0.0, 160, &imp, seed};
  return channel::mix_at_receiver(std::vector<channel::Emission>{e},
                                  packet.samples.size() + 480, rng);
}

/// A 300 B QAM-64 2/3 frame at `width` after `lead` zero samples, shifted
/// by `cfo_hz`, with 200 trailing zeros, plus complex Gaussian noise of
/// `noise_mw` when positive.
common::CplxVec frame_buffer(std::uint64_t seed, wifi::ChannelWidth width,
                             std::size_t lead, double cfo_hz,
                             double noise_mw) {
  wifi::WifiTxConfig tx;
  tx.modulation = wifi::Modulation::kQam64;
  tx.rate = wifi::CodingRate::kR23;
  tx.width = width;
  common::Rng rng(seed);
  const auto packet = wifi::wifi_transmit(rng.bytes(300), tx);
  const auto shifted = common::frequency_shift(
      packet.samples, cfo_hz, wifi::channel_plan(width).sample_rate_hz);
  common::CplxVec out(lead);
  out.insert(out.end(), shifted.begin(), shifted.end());
  out.resize(out.size() + 200);
  if (noise_mw > 0.0) {
    for (auto& v : out) v += rng.complex_gaussian(noise_mw);
  }
  return out;
}

double largest_component(std::span<const common::Cplx> samples) {
  double top = 0.0;
  for (const auto& v : samples) {
    top = std::max({top, std::abs(v.real()), std::abs(v.imag())});
  }
  return top;
}

std::vector<ScanCase> scan_cases() {
  using wifi::ChannelWidth;
  std::vector<ScanCase> cases;
  // phy_link frames at 36 dB and 25 dB over the -81 dBm floor.
  const std::pair<wifi::Modulation, wifi::CodingRate> modes[] = {
      {wifi::Modulation::kQam16, wifi::CodingRate::kR12},
      {wifi::Modulation::kQam64, wifi::CodingRate::kR23},
      {wifi::Modulation::kQam256, wifi::CodingRate::kR34},
  };
  std::uint64_t seed = 0x5c0;
  for (double dbm : {-45.0, -56.0}) {
    for (const auto& [m, r] : modes) {
      for (std::size_t octets : {100u, 1000u}) {
        cases.push_back({"phy_link " + std::string(wifi::to_string(m)) + " " +
                             std::to_string(octets) + " B at " +
                             std::to_string(dbm) + " dBm",
                         phy_link_buffer(seed++, m, r, octets, dbm)});
      }
    }
  }

  // Noise only, and an all-zero buffer where every denominator is <= 1e-30.
  common::Rng noise(0x5ca7);
  common::CplxVec pure(3001);
  for (auto& v : pure) v = noise.complex_gaussian(1e-4);
  cases.push_back({"noise only", pure});
  cases.push_back({"all zero", common::CplxVec(3001)});

  cases.push_back({"zero lead", frame_buffer(1, ChannelWidth::k20MHz, 700,
                                             0.0, 0.0)});
  cases.push_back({"20 MHz, 20 kHz CFO",
                   frame_buffer(2, ChannelWidth::k20MHz, 160, 20e3, 1e-4)});
  cases.push_back({"40 MHz, 20 kHz CFO",
                   frame_buffer(3, ChannelWidth::k40MHz, 320, 20e3, 1e-4),
                   ChannelWidth::k40MHz});
  cases.push_back({"40 MHz zero lead",
                   frame_buffer(4, ChannelWidth::k40MHz, 500, 0.0, 0.0),
                   ChannelWidth::k40MHz});

  // The shortest buffer sync takes, and every length up to 40 past it: the
  // STF scan sums 8 windows (32 samples) per block and the LTF search 8
  // offsets, so these end every block partway.
  for (auto width : {ChannelWidth::k20MHz, ChannelWidth::k40MHz}) {
    const auto frame = frame_buffer(5, width, 0, 20e3, 1e-4);
    const std::size_t shortest =
        wifi::preamble_len(width) + wifi::channel_plan(width).symbol_len();
    for (std::size_t extra = 0; extra <= 40; ++extra) {
      cases.push_back({std::string(wifi::to_string(width)) + " length +" +
                           std::to_string(extra),
                       common::CplxVec(frame.begin(),
                                       frame.begin() + static_cast<long>(
                                                           shortest + extra)),
                       width});
    }
  }

  // A frame with one data sample past its preamble at the blocked LTF
  // search's 1e300 bound, which normalisation overflows but leaves the
  // preamble's window alone: just below, at and just above the bound (the
  // last takes the scalar loop).  Then one past the bound on both axes,
  // which stays past it after derotation, and two at the largest double,
  // which derotation overflows to +-inf; both sit where sync's LTF search
  // region includes them, and both take the scalar loop there too.
  const std::size_t lead = 160;
  const auto frame = frame_buffer(6, ChannelWidth::k20MHz, lead, 20e3, 1e-4);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& [name, edge] :
       {std::pair{"below", std::nextafter(1e300, 0.0)}, std::pair{"at", 1e300},
        std::pair{"past", std::nextafter(1e300, kInf)}}) {
    auto spiked = frame;
    spiked[lead + 600] = common::Cplx(edge, 0.0);
    cases.push_back({std::string("one component ") + name + " 1e300", spiked});
  }
  {
    auto spiked = frame;
    spiked[lead + 400] = common::Cplx(1.2e300, 1.2e300);
    cases.push_back({"both axes past 1e300", spiked});
    constexpr double kMax = std::numeric_limits<double>::max();
    spiked[lead + 400] = common::Cplx(kMax, kMax);
    spiked[lead + 416] = common::Cplx(kMax, -kMax);
    cases.push_back({"derotates to inf", spiked});
  }

  // NaN and inf samples, which only synchronize_packet sees (wifi_receive
  // refuses them).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t at : {lead + 40, lead + 200, lead + 600}) {
    for (common::Cplx bad : {common::Cplx(kNaN, 0.0), common::Cplx(0.0, kInf),
                             common::Cplx(-kInf, kInf)}) {
      auto poisoned = frame;
      poisoned[at] = bad;
      cases.push_back({"non-finite at " + std::to_string(at), poisoned});
    }
  }
  return cases;
}

bool all_finite(std::span<const common::Cplx> samples) {
  return std::all_of(samples.begin(), samples.end(), [](common::Cplx v) {
    return std::isfinite(v.real()) && std::isfinite(v.imag());
  });
}

TEST(HotpathOracle, PreambleScansMatchScalarReference) {
  // The blocked LTF search writes the complex product out for samples up
  // to 1e300 per component; that equals the library multiply only while
  // no product or sum of two overflows, which needs reference components
  // well below DBL_MAX / 2e300.
  EXPECT_LE(largest_component(wifi::full_preamble(wifi::ChannelWidth::k20MHz)),
            1.44);
  EXPECT_LE(largest_component(wifi::full_preamble(wifi::ChannelWidth::k40MHz)),
            1.26);

  std::size_t synced = 0, detected = 0, past_bound = 0, non_finite = 0;
  for (const auto& c : scan_cases()) {
    const auto got = wifi::synchronize_packet(c.samples, kThreshold, c.width);
    const auto want = ref::synchronize_packet(c.samples, kThreshold, c.width);
    ASSERT_EQ(got.has_value(), want.has_value()) << c.name;
    if (want) {
      ++synced;
      EXPECT_EQ(got->packet_start, want->packet_start) << c.name;
      EXPECT_EQ(std::memcmp(&got->cfo_hz, &want->cfo_hz, sizeof(double)), 0)
          << c.name << ": " << got->cfo_hz << " vs " << want->cfo_hz;
    }

    // Without CFO correction the receiver runs the LTF search over the
    // whole buffer.
    wifi::WifiRxConfig cfg;
    cfg.correct_cfo = false;
    cfg.width = c.width;
    const auto rx = wifi::wifi_receive(c.samples, cfg);
    if (!all_finite(c.samples)) {
      ++non_finite;
      EXPECT_EQ(rx.error, common::RxError::kNanSamples) << c.name;
      continue;
    }
    const auto start = ref::detect_preamble(c.samples, kThreshold, c.width);
    ASSERT_EQ(rx.detected, start.has_value()) << c.name;
    if (start) {
      ++detected;
      EXPECT_EQ(rx.packet_start, *start) << c.name;
    }
    if (largest_component(c.samples) > 1e300) {
      ++past_bound;
      EXPECT_TRUE(start.has_value()) << c.name;
    }
  }
  // The frames are found, and three inputs take the scalar LTF loop.
  EXPECT_GE(synced, 60u);
  EXPECT_GE(detected, 60u);
  EXPECT_EQ(past_bound, 3u);
  EXPECT_EQ(non_finite, 9u);
}

// ---------------------------------------------------------------------------
// Constraint plans

void expect_same_plan(const core::ConstraintPlan& flat,
                      const ref::ConstraintPlan& want,
                      const std::string& what) {
  const auto got = ref::nest(flat);
  EXPECT_EQ(got.extra_positions, want.extra_positions) << what;
  EXPECT_EQ(got.num_singles, want.num_singles) << what;
  EXPECT_EQ(got.num_twins, want.num_twins) << what;
  EXPECT_EQ(got.num_unforced_tail, want.num_unforced_tail) << what;
  EXPECT_EQ(got.num_unforced_head, want.num_unforced_head) << what;
  EXPECT_EQ(got.num_collisions, want.num_collisions) << what;
  ASSERT_EQ(got.clusters.size(), want.clusters.size()) << what;
  for (std::size_t c = 0; c < got.clusters.size(); ++c) {
    const auto& g = got.clusters[c];
    const auto& w = want.clusters[c];
    EXPECT_EQ(g.positions, w.positions) << what << " cluster " << c;
    ASSERT_EQ(g.equations.size(), w.equations.size())
        << what << " cluster " << c;
    for (std::size_t e = 0; e < g.equations.size(); ++e) {
      EXPECT_EQ(g.equations[e].step, w.equations[e].step)
          << what << " cluster " << c << " eq " << e;
      EXPECT_EQ(g.equations[e].branch, w.equations[e].branch)
          << what << " cluster " << c << " eq " << e;
      EXPECT_EQ(g.equations[e].value, w.equations[e].value)
          << what << " cluster " << c << " eq " << e;
    }
  }
}

std::string describe(const core::SledzigConfig& cfg) {
  std::ostringstream s;
  s << wifi::to_string(cfg.modulation) << ' ' << wifi::to_string(cfg.rate)
    << ' ' << core::to_string(cfg.channel);
  for (auto ch : cfg.extra_channels) s << '+' << core::to_string(ch);
  for (double w : cfg.window_offsets_hz) s << " @" << w;
  s << ' ' << wifi::to_string(cfg.width) << " forced "
    << cfg.forced_subcarriers;
  return s.str();
}

std::string describe(const core::SledzigConfig& cfg, std::size_t begin,
                     std::size_t end) {
  return describe(cfg) + " [" + std::to_string(begin) + ", " +
         std::to_string(end) + ")";
}

void check_plan(const core::SledzigConfig& cfg, std::size_t begin,
                std::size_t end) {
  expect_same_plan(core::build_constraint_plan(cfg, begin, end),
                   ref::build_constraint_plan(cfg, begin, end),
                   describe(cfg, begin, end));
}

TEST(HotpathOracle, PlansMatchReferenceForEveryPaperCombination) {
  for (const auto& mode : wifi::paper_phy_modes()) {
    for (auto ch : core::kAllOverlapChannels) {
      const core::SledzigConfig cfg{mode.modulation, mode.rate, ch};
      for (std::size_t svc : {0u, 16u}) {
        // The phy_link sizes, plus odd ends that cut a symbol mid-way.
        for (std::size_t octets : {0u, 1u, 60u, 100u, 400u, 1000u, 1500u}) {
          check_plan(cfg, svc, svc + octets * 8 + 16);
        }
        check_plan(cfg, svc, svc + 1);
        check_plan(cfg, svc, svc + 777);
      }
    }
  }
}

TEST(HotpathOracle, PlansMatchReferenceAcrossPayloadEndsToTheLengthCap) {
  for (const auto& mode : {wifi::paper_phy_modes()[0], wifi::paper_phy_modes()[2],
                           wifi::paper_phy_modes()[5]}) {
    const core::SledzigConfig cfg{mode.modulation, mode.rate,
                                  core::OverlapChannel::kCh3};
    for (std::size_t svc : {0u, 16u}) {
      for (std::size_t end = 0; end <= wifi::kMaxPsduOctets * 8; end += 1637) {
        check_plan(cfg, svc, std::max(svc, end));
      }
      check_plan(cfg, svc, svc + wifi::kMaxPsduOctets * 8);
    }
  }
}

TEST(HotpathOracle, PlansMatchReferenceForEveryForcedCount) {
  for (const auto& mode : wifi::paper_phy_modes()) {
    for (auto ch : core::kAllOverlapChannels) {
      for (std::size_t forced = 1; forced <= 7; ++forced) {
        core::SledzigConfig cfg{mode.modulation, mode.rate, ch};
        cfg.forced_subcarriers = forced;
        check_plan(cfg, 0, 400 * 8 + 16);
      }
    }
  }
}

TEST(HotpathOracle, PlansMatchReferenceForMultiChannelSets) {
  using core::OverlapChannel;
  const std::vector<std::vector<OverlapChannel>> sets = {
      {OverlapChannel::kCh2},
      {OverlapChannel::kCh2, OverlapChannel::kCh4},
      {OverlapChannel::kCh1, OverlapChannel::kCh2, OverlapChannel::kCh4},
      {OverlapChannel::kCh4, OverlapChannel::kCh1, OverlapChannel::kCh2},
      // Adjacent windows merge into one cluster spanning the whole frame.
      {OverlapChannel::kCh1, OverlapChannel::kCh2, OverlapChannel::kCh3},
  };
  for (const auto& set : sets) {
    core::SledzigConfig cfg{wifi::Modulation::kQam64, wifi::CodingRate::kR23,
                            set.front()};
    cfg.extra_channels.assign(set.begin() + 1, set.end());
    for (std::size_t svc : {0u, 16u}) {
      for (std::size_t octets : {60u, 200u, 400u}) {
        check_plan(cfg, svc, svc + octets * 8 + 16);
      }
    }
  }
}

TEST(HotpathOracle, PlansMatchReferenceForExplicitWindows) {
  for (const auto& mode : wifi::paper_phy_modes()) {
    core::SledzigConfig narrow{mode.modulation, mode.rate,
                               core::OverlapChannel::kCh2};
    narrow.window_offsets_hz = {-5e6, 3e6};
    check_plan(narrow, 0, 400 * 8 + 16);
    narrow.window_bandwidth_hz = 1e6;
    narrow.window_offsets_hz = {2e6};
    check_plan(narrow, 16, 16 + 1000 * 8 + 16);

    core::SledzigConfig wide = narrow;
    wide.width = wifi::ChannelWidth::k40MHz;
    wide.window_bandwidth_hz = 2e6;
    wide.window_offsets_hz = {-12e6, 3e6};
    for (std::size_t svc : {0u, 16u}) {
      check_plan(wide, svc, svc + 400 * 8 + 16);
      check_plan(wide, svc, svc + 1500 * 8 + 16);
    }
  }
}

/// Every paper mode on CH1-CH4.
std::vector<core::SledzigConfig> paper_configs() {
  std::vector<core::SledzigConfig> configs;
  for (const auto& mode : wifi::paper_phy_modes()) {
    for (auto ch : core::kAllOverlapChannels) {
      configs.push_back(core::SledzigConfig{mode.modulation, mode.rate, ch});
    }
  }
  return configs;
}

/// The multi-channel sets and explicit windows of the plan oracles above:
/// five channel sets at QAM-64 2/3, and per paper mode two 2 MHz windows and
/// one 1 MHz window on the 20 MHz plan and two 2 MHz windows at 40 MHz.
std::vector<core::SledzigConfig> extension_configs() {
  using core::OverlapChannel;
  const std::vector<std::vector<OverlapChannel>> sets = {
      {OverlapChannel::kCh2},
      {OverlapChannel::kCh2, OverlapChannel::kCh4},
      {OverlapChannel::kCh1, OverlapChannel::kCh2, OverlapChannel::kCh4},
      {OverlapChannel::kCh4, OverlapChannel::kCh1, OverlapChannel::kCh2},
      {OverlapChannel::kCh1, OverlapChannel::kCh2, OverlapChannel::kCh3},
  };
  std::vector<core::SledzigConfig> configs;
  for (const auto& set : sets) {
    core::SledzigConfig cfg{wifi::Modulation::kQam64, wifi::CodingRate::kR23,
                            set.front()};
    cfg.extra_channels.assign(set.begin() + 1, set.end());
    configs.push_back(cfg);
  }
  for (const auto& mode : wifi::paper_phy_modes()) {
    core::SledzigConfig narrow{mode.modulation, mode.rate,
                               core::OverlapChannel::kCh2};
    narrow.window_offsets_hz = {-5e6, 3e6};
    configs.push_back(narrow);
    narrow.window_bandwidth_hz = 1e6;
    narrow.window_offsets_hz = {2e6};
    configs.push_back(narrow);
    core::SledzigConfig wide = narrow;
    wide.width = wifi::ChannelWidth::k40MHz;
    wide.window_bandwidth_hz = 2e6;
    wide.window_offsets_hz = {-12e6, 3e6};
    configs.push_back(wide);
  }
  return configs;
}

TEST(HotpathOracle, PlansArePrefixesOfTheLengthCapPlan) {
  // sledzig_encode builds one plan and cuts it to the size its sizing
  // picks.  Cutting the plan at the SIGNAL LENGTH cap to every end, one
  // octet at a time past 2000 B, must give the plan built for that end,
  // every field alike (counters, cluster ends and unforced steps too).
  // Paper modes run every end; the extension configs every third one.
  auto configs = paper_configs();
  const std::size_t num_paper = configs.size();
  const auto extensions = extension_configs();
  configs.insert(configs.end(), extensions.begin(), extensions.end());
  const auto failures = common::parallel_map(
      configs.size() * 2, [&](std::size_t i) -> std::string {
        const auto& cfg = configs[i / 2];
        const std::size_t svc = i % 2 == 0 ? 0 : 16;
        const std::size_t stride = i / 2 < num_paper ? 8 : 24;
        const auto full = core::build_constraint_plan(
            cfg, svc, svc + wifi::kMaxPsduOctets * 8);
        for (std::size_t end = svc; end <= svc + 2004 * 8; end += stride) {
          auto cut = full;
          core::truncate_constraint_plan(cut, end);
          if (!(cut == core::build_constraint_plan(cfg, svc, end))) {
            return describe(cfg, svc, end);
          }
        }
        return {};
      });
  for (const auto& failure : failures) EXPECT_EQ(failure, "");
  // Cutting a plan to its own end, or to nothing, is a plan too.
  const auto& cfg = configs.front();
  auto plan = core::build_constraint_plan(cfg, 16, 16 + 800);
  const auto same = plan;
  core::truncate_constraint_plan(plan, 16 + 800);
  EXPECT_TRUE(plan == same);
  core::truncate_constraint_plan(plan, 16);
  EXPECT_TRUE(plan == core::build_constraint_plan(cfg, 16, 16));
  EXPECT_THROW(core::truncate_constraint_plan(plan, 17), std::invalid_argument);
  EXPECT_THROW(core::truncate_constraint_plan(plan, 15), std::invalid_argument);
}

TEST(HotpathOracle, DepunctureMatchesReference) {
  // Every rate over every length from empty to 140, so inputs end on each
  // position of a period, mid-period included, and some end their last
  // kept LLR on an odd (1-based) coded position, where the even-step trim
  // appends one erased LLR; plus one 5000-LLR stream.  LLRs are seeded
  // Gaussians with a negative zero among them.
  common::Rng gen(77);
  std::vector<double> llrs(5000);
  for (double& l : llrs) l = gen.gaussian(3.0);
  llrs[3] = -0.0;
  std::size_t odd_ends = 0;
  for (const auto rate : {wifi::CodingRate::kR12, wifi::CodingRate::kR23,
                          wifi::CodingRate::kR34, wifi::CodingRate::kR56}) {
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 140; ++n) lengths.push_back(n);
    lengths.push_back(llrs.size());
    for (const std::size_t n : lengths) {
      SCOPED_TRACE("rate " + std::to_string(static_cast<int>(rate)) +
                   ", length " + std::to_string(n));
      const std::span<const double> in(llrs.data(), n);
      const auto want = ref::depuncture(in, rate);
      const auto got = wifi::depuncture(in, rate);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_TRUE(same_doubles(got, want));
      if (n > 0 && (wifi::punctured_to_coded_index(rate, n - 1) % 2) == 0) {
        ++odd_ends;  // the last kept LLR opens its trellis step
      }
    }
  }
  EXPECT_GT(odd_ends, 0u);
}

TEST(HotpathOracle, ScramblerSequenceMatchesSerialLfsr) {
  // The keystream is one LFSR period tiled: exact, since x^7 + x^4 + 1 is
  // primitive and every nonzero seed recurs after exactly 127 steps.
  for (unsigned seed = 1; seed < 128; ++seed) {
    for (const std::size_t n : {0u, 1u, 126u, 127u, 128u, 254u, 255u, 12000u}) {
      const auto s = static_cast<std::uint8_t>(seed);
      ASSERT_EQ(wifi::scrambler_sequence(s, n), ref::scrambler_sequence(s, n))
          << "seed " << seed << ", length " << n;
    }
  }
  EXPECT_THROW(wifi::scrambler_sequence(0, 10), std::invalid_argument);
  EXPECT_THROW(wifi::scrambler_sequence(0x80, 0), std::invalid_argument);
}

TEST(HotpathOracle, SledzigEncodeMatchesThreeBuildSizing) {
  // The one-plan encoder against the encoder that built a nested plan per
  // sizing trial: every field of the result, and the payload the decoder
  // recovers from the PSDU both produce.  Grid: the
  // 7 paper modes x CH1-CH4 x service field off/on x scrambler seeds 0x5d,
  // 0x01, 0x7f are 168 combinations; encode i takes combination i mod 168
  // and length floor(1501 i / 45360) B, so each length from 0 to 1500 B
  // appears 30 or 31 times.  Then the extension configs at 60, 600 and
  // 1500 B.
  struct Case {
    core::SledzigConfig cfg;
    std::size_t octets;
  };
  std::vector<Case> cases;
  std::vector<core::SledzigConfig> combos;
  for (const auto& base : paper_configs()) {
    for (const bool service : {false, true}) {
      for (const std::uint8_t seed : {0x5d, 0x01, 0x7f}) {
        auto cfg = base;
        cfg.include_service_field = service;
        cfg.scrambler_seed = seed;
        combos.push_back(cfg);
      }
    }
  }
  constexpr std::size_t kGrid = 45360;
  for (std::size_t i = 0; i < kGrid; ++i) {
    const auto& cfg = combos[i % combos.size()];
    const std::size_t octets = 1501 * i / kGrid;
    if (core::fits_one_psdu(octets, cfg)) cases.push_back(Case{cfg, octets});
  }
  EXPECT_EQ(cases.size(), kGrid);
  for (const auto& base : extension_configs()) {
    for (const bool service : {false, true}) {
      for (const std::size_t octets : {60u, 600u, 1500u}) {
        auto cfg = base;
        cfg.include_service_field = service;
        cases.push_back(Case{cfg, octets});
      }
    }
  }

  const auto failures = common::parallel_map(
      cases.size(), [&](std::size_t i) -> std::string {
        const auto& c = cases[i];
        common::Rng rng(0xe2c0 + i);
        const auto payload = rng.bytes(c.octets);
        const auto got = core::sledzig_encode(payload, c.cfg);
        const auto want = ref::sledzig_encode(payload, c.cfg);
        if (got == want &&
            core::sledzig_decode(got.transmit_psdu, c.cfg) == payload) {
          return {};
        }
        return describe(c.cfg) +
               (c.cfg.include_service_field ? " service " : " ") +
               std::to_string(c.octets) + " B seed " +
               std::to_string(c.cfg.scrambler_seed);
      });
  for (const auto& failure : failures) EXPECT_EQ(failure, "");

  // Where 64 sizing trials cannot fit the data, here with every data
  // subcarrier forced at QAM-64 2/3 (a symbol's extras equal N_DBPS) and
  // 1/2 (they exceed it), the three-build encoder handed back a frame its
  // own decoder could not read; sizing now fails with its logic_error.
  const common::Bytes payload(100, 0x5a);
  for (const auto rate : {wifi::CodingRate::kR23, wifi::CodingRate::kR12}) {
    core::SledzigConfig all_forced{wifi::Modulation::kQam64, rate,
                                   core::OverlapChannel::kCh2};
    all_forced.forced_subcarriers = 48;
    EXPECT_THROW(core::sledzig_encode(payload, all_forced), std::logic_error);
    const auto broken = ref::sledzig_encode(payload, all_forced);
    EXPECT_NE(ref::sledzig_decode(broken.transmit_psdu, all_forced), payload);
  }
}

}  // namespace
}  // namespace sledzig

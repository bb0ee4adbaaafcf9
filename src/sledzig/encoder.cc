#include "sledzig/encoder.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "sledzig/gf2_rows.h"
#include "wifi/convolutional.h"
#include "wifi/qam.h"
#include "wifi/scrambler.h"
#include "wifi/signal_field.h"
#include "wifi/subcarriers.h"

namespace sledzig::core {

namespace {

constexpr common::Bit kUnset = 2;

/// The little-endian payload length that leads the inner data.
constexpr std::size_t kLengthHeaderOctets = 2;

/// sledzig_encode tries at most this many payload-region sizes.
constexpr int kMaxSizingTrials = 64;

/// Solves the square GF(2) system of one cluster and writes the unknowns
/// into the stream.  Clusters are solved in stream order, so the only
/// kUnset positions an equation taps are its own cluster's unknowns; every
/// other tap (positions before the stream start read as 0) is known and
/// moves to the right-hand side.  The plan's positions are the pivots its
/// own elimination chose, which guarantees invertibility.
void solve_cluster(std::span<const Equation> equations,
                   std::span<const std::size_t> positions, common::Bits& x,
                   Gf2Rows& rows) {
  const std::size_t first = equations.front().step;
  const std::size_t base = first >= 6 ? first - 6 : 0;
  rows.reset(equations.back().step - base + 1);
  for (std::size_t e = 0; e < equations.size(); ++e) {
    const Equation& eq = equations[e];
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
    const std::size_t pivot = positions[e] - base;
    if (!rows.test(pivot)) {
      throw std::logic_error("sledzig: singular cluster system");
    }
    rows.keep(eq.step, pivot);
  }
  rows.back_substitute([&](std::size_t r, unsigned value) {
    x[positions[r]] = static_cast<common::Bit>(value);
  });
}

/// Output `branch` of encoder step `step` over the finished stream, from
/// the transmitter's own encoder: an independent check of the solver.
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

/// A payload-region size that no sizing trial of sledzig_encode passes,
/// for `data_bits` bits of inner data.  Each trial moves the region t to
/// round_up8(data_bits + extras + 8), and t holds at most
/// min(t, extra_bits_per_symbol * ceil((svc + t) / N_DBPS)) extras: one per
/// position, and no more than a symbol's significant bits in each symbol t
/// reaches into.  That map of t never decreases, so its iterates from the
/// first trial's t bound the trials one for one.
std::size_t sizing_bound(const SledzigConfig& cfg, std::size_t svc,
                         std::size_t data_bits) {
  const std::size_t dbps =
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate, cfg.plan());
  const std::size_t per_symbol = extra_bits_per_symbol(cfg);
  std::size_t t = round_up8(data_bits);
  for (int trial = 1; trial < kMaxSizingTrials; ++trial) {
    const std::size_t symbols = (svc + t + dbps - 1) / dbps;
    const std::size_t next =
        round_up8(data_bits + std::min(t, per_symbol * symbols) + 8);
    if (next == t) break;
    t = next;
  }
  return t;
}

}  // namespace

std::size_t extra_bits_per_symbol(const SledzigConfig& cfg) {
  return significant_bits_per_symbol(cfg);
}

double throughput_loss(const SledzigConfig& cfg) {
  return static_cast<double>(extra_bits_per_symbol(cfg)) /
         static_cast<double>(
             wifi::data_bits_per_symbol(cfg.modulation, cfg.rate, cfg.plan()));
}

bool fits_one_psdu(std::size_t payload_octets, const SledzigConfig& cfg) {
  // sledzig_encode grows its payload region t, in whole octets, until t
  // less the extra bits the plan places in t holds the inner data.  Each
  // step moves t to the first octet boundary at least 8 bits past the
  // inner data plus the extras of the previous t.  Extras never shrink as
  // t grows, so t never passes an octet boundary T that holds the inner
  // data, T's own extras and 8 bits more.  A plan places at most
  // extra_bits_per_symbol bits in each symbol T reaches into; the check
  // takes T at the LENGTH cap.
  if (payload_octets > wifi::kMaxPsduOctets) return false;
  const std::size_t svc = cfg.include_service_field ? 16 : 0;
  const std::size_t max_bits = wifi::kMaxPsduOctets * 8;
  const std::size_t dbps =
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate, cfg.plan());
  const std::size_t symbols = (svc + max_bits + dbps - 1) / dbps;
  const std::size_t data_bits = (payload_octets + kLengthHeaderOctets) * 8;
  return extra_bits_per_symbol(cfg) * symbols + data_bits + 8 <= max_bits;
}

SledzigEncodeResult sledzig_encode(const common::Bytes& payload,
                                   const SledzigConfig& cfg) {
  if (payload.size() > kMaxSledzigPayload) {
    throw std::invalid_argument("sledzig_encode: payload too long");
  }
  // Inner data: 2-byte little-endian length header + payload.
  common::Bytes inner;
  inner.reserve(payload.size() + kLengthHeaderOctets);
  inner.push_back(static_cast<std::uint8_t>(payload.size() & 0xff));
  inner.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  inner.insert(inner.end(), payload.begin(), payload.end());
  const auto data_bits = common::bytes_to_bits(inner);

  const std::size_t svc = cfg.include_service_field ? 16 : 0;

  // Find the smallest multiple-of-8 payload-region size t whose capacity
  // (after removing extra-bit positions) fits the inner data.  A plan is a
  // prefix of any longer one, so one plan past every trial counts the
  // extras of each (DESIGN.md section 10).
  const std::size_t d = data_bits.size();
  ConstraintPlan plan =
      build_constraint_plan(cfg, svc, svc + sizing_bound(cfg, svc, d));
  std::size_t t = round_up8(d);
  std::size_t extras = extra_bits_before(plan, svc + t);
  for (int trial = 1; t - extras < d; ++trial) {
    if (trial == kMaxSizingTrials) {
      throw std::logic_error("sledzig_encode: sizing did not converge");
    }
    t = round_up8(d + extras + 8);
    extras = extra_bits_before(plan, svc + t);
  }
  truncate_constraint_plan(plan, svc + t);

  // Scrambled-domain stream: service prefix (scrambled zeros = keystream),
  // data bits (scrambled with the keystream indexed by data bit), extra
  // positions.
  const auto key = wifi::scrambler_sequence(cfg.scrambler_seed, svc + t);
  common::Bits x(svc + t, 0);
  for (const std::size_t p : plan.positions) x[p] = kUnset;
  std::copy_n(key.begin(), svc, x.begin());
  std::size_t j = 0;
  for (std::size_t p = svc; p < svc + t; ++p) {
    if (x[p] == kUnset) continue;
    const common::Bit data = j < d ? data_bits[j] : 0;
    x[p] = static_cast<common::Bit>((data ^ key[j]) & 1u);
    ++j;
  }

  // Solve the clusters in stream order.
  SledzigEncodeResult result;
  result.num_extra_bits = plan.positions.size();
  result.num_twins = plan.num_twins;
  result.num_unforced_tail = plan.num_unforced_tail;
  result.num_unforced_head = plan.num_unforced_head;
  result.num_collisions = plan.num_collisions;
  Gf2Rows rows;
  std::size_t begin = 0;
  for (const std::size_t end : plan.cluster_ends) {
    solve_cluster(
        std::span<const Equation>(plan.equations).subspan(begin, end - begin),
        std::span<const std::size_t>(plan.positions)
            .subspan(begin, end - begin),
        x, rows);
    begin = end;
  }

  // Verify every forced equation against a real encode pass.
  for (const Equation& eq : plan.equations) {
    if (encoder_output(x, eq.step, eq.branch) != eq.value) {
      ++result.num_violations;
    }
  }

  // Descramble the payload region into transmit bytes.
  common::Bits t_bits(t);
  for (std::size_t p = svc; p < svc + t; ++p) {
    t_bits[p - svc] = static_cast<common::Bit>((x[p] ^ key[p]) & 1u);
  }
  result.transmit_psdu = common::bits_to_bytes(t_bits);
  result.scrambled_payload = std::move(x);
  return result;
}

std::optional<common::Bytes> sledzig_decode(const common::Bytes& transmit_psdu,
                                            const SledzigConfig& cfg) {
  const std::size_t t = transmit_psdu.size() * 8;
  if (t == 0) return std::nullopt;
  const std::size_t svc = cfg.include_service_field ? 16 : 0;
  const auto plan = build_constraint_plan(cfg, svc, svc + t);
  const auto key = wifi::scrambler_sequence(cfg.scrambler_seed, svc + t);

  // Drop the extra positions and descramble the rest twice, in place: by
  // stream position back to the scrambled domain, then by data index.
  auto bits = common::bytes_to_bits(transmit_psdu);
  for (const std::size_t p : plan.positions) bits[p - svc] = kUnset;
  std::size_t n = 0;
  for (std::size_t i = 0; i < t; ++i) {
    if (bits[i] == kUnset) continue;
    bits[n] = static_cast<common::Bit>((bits[i] ^ key[svc + i] ^ key[n]) & 1u);
    ++n;
  }
  if (n < 16) return std::nullopt;
  const auto len = static_cast<std::size_t>(common::bits_to_uint(bits, 16));
  if (16 + len * 8 > n) return std::nullopt;
  return common::bits_to_bytes(
      std::span<const common::Bit>(bits).subspan(16, len * 8));
}

std::optional<OverlapChannel> detect_channel_from_points(
    std::span<const common::Cplx> points, wifi::Modulation modulation,
    double min_fraction) {
  if (points.empty() || points.size() % wifi::kNumDataSubcarriers != 0) {
    return std::nullopt;
  }
  const std::size_t num_symbols = points.size() / wifi::kNumDataSubcarriers;
  const auto& plan = wifi::channel_plan(wifi::ChannelWidth::k20MHz);
  std::optional<OverlapChannel> best;
  double best_fraction = 0.0;
  for (OverlapChannel ch : kAllOverlapChannels) {
    const auto subcarriers = forced_data_subcarriers(ch);
    std::size_t lowest = 0, total = 0;
    for (std::size_t s = 0; s < num_symbols; ++s) {
      for (int logical : subcarriers) {
        const int pos = plan.data_position(logical);
        const auto& point =
            points[s * wifi::kNumDataSubcarriers + static_cast<std::size_t>(pos)];
        ++total;
        // Snap to the nearest constellation point so the test is robust to
        // noise: a point "is lowest" when its hard decision is.
        const auto ideal = wifi::qam_map_point(
            wifi::qam_demap_point(point, modulation), modulation);
        if (wifi::is_lowest_point(ideal, modulation)) ++lowest;
      }
    }
    const double fraction =
        total == 0 ? 0.0 : static_cast<double>(lowest) / static_cast<double>(total);
    if (fraction > best_fraction) {
      best_fraction = fraction;
      best = ch;
    }
  }
  if (best_fraction < min_fraction) return std::nullopt;
  return best;
}

}  // namespace sledzig::core

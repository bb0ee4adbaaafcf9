#include "wifi/convolutional.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace sledzig::wifi {

common::Bits convolutional_encode(const common::Bits& in) {
  common::Bits out;
  out.reserve(in.size() * 2);
  unsigned state = 0;
  for (common::Bit b : in) {
    const auto step = encode_step(state, b);
    out.push_back(step.out_a);
    out.push_back(step.out_b);
    state = step.next_state;
  }
  return out;
}

namespace {

/// Output bits (a, b) of butterfly j: predecessor 2j on input 0.  The
/// other three branches of the butterfly flip both bits (2j on input 1,
/// 2j+1 on input 0) or neither (2j+1 on input 1), since g0 and g1 both tap
/// x_n and x_{n-6}.
constexpr auto kButterflyOutputs = [] {
  std::array<std::pair<unsigned, unsigned>, kNumStates / 2> out{};
  for (unsigned j = 0; j < kNumStates / 2; ++j) {
    const auto r = encode_step(2 * j, 0);
    out[j] = {r.out_a, r.out_b};
  }
  return out;
}();

/// Butterflies 2p and 2p+1 share b and have opposite a (only g0 taps
/// x_{n-5}, the lowest bit of j), so one lane pair runs both.
constexpr bool pairs_share_b() {
  for (unsigned j = 0; j < kNumStates / 2; j += 2) {
    if (kButterflyOutputs[j + 1].first != (kButterflyOutputs[j].first ^ 1u) ||
        kButterflyOutputs[j + 1].second != kButterflyOutputs[j].second) {
      return false;
    }
  }
  return true;
}
static_assert(pairs_share_b());

// Two butterflies per operation, one per lane.  Lane arithmetic is the
// scalar IEEE arithmetic, and comparisons yield all-ones masks, so the
// selects below compile without data-dependent branches.
typedef double Lanes __attribute__((vector_size(16)));
using Mask = decltype(Lanes{} < Lanes{});

/// Path costs at or above the sentinel count as unreachable.
constexpr double kSentinel = 1e300;

/// Largest |LLR| for which the sweep runs without the sentinel clamp.  A
/// step adds at most 2e280 to a finite path cost, so even a vector of the
/// largest size std::vector allows (2^60 doubles, 2^59 steps) keeps every
/// finite cost within +-1.2e298, below the sentinel.
constexpr double kLlrBound = 1e280;

/// Compare-select of one successor per lane from its even and odd
/// predecessors' costs; returns the lanes where the odd one survives.
///
/// Clamped, it is bit-identical to a per-(state, input) sweep that visits
/// states in ascending order, starts each successor at the sentinel cost
/// and takes a predecessor's cost only when strictly below the successor's
/// so far: the even cost counts when below the sentinel (not when equal,
/// inf or NaN), the odd one only when strictly below that, so a tie keeps
/// the even predecessor.  A successor left at the sentinel is unreachable
/// and stored as +inf, from which no cost comes back below the sentinel.
///
/// Unclamped, it keeps `odd < even ? odd : even` (a min the compiler can
/// emit as one instruction) and reports the odd predecessor where that
/// differs from the even cost, which is where the odd cost is strictly
/// below it as long as no cost is NaN.  When every |LLR| <= kLlrBound,
/// every cost is either finite and below the sentinel or +inf (nothing
/// adds -inf or NaN), and then the two agree: a finite even cost is the
/// clamped `even`; a +inf even cost loses to any finite odd cost under
/// both; and two +inf costs leave +inf, which the clamp stores too.
template <bool kClamped>
[[gnu::always_inline]] inline Mask acs(Lanes cost_even, Lanes cost_odd,
                                       Lanes& out) {
  if constexpr (kClamped) {
    constexpr double kUnreachable = std::numeric_limits<double>::infinity();
    const Lanes sentinel = {kSentinel, kSentinel};
    const Lanes even = cost_even < sentinel ? cost_even : sentinel;
    const Mask odd = cost_odd < even;
    const Lanes best = odd ? cost_odd : even;
    out = best < sentinel ? best : Lanes{kUnreachable, kUnreachable};
    return odd;
  } else {
    out = cost_odd < cost_even ? cost_odd : cost_even;
    return out != cost_even;
  }
}

/// Butterflies 2P and 2P+1 of one step, lane 0 and lane 1: reads
/// predecessors 4P..4P+3 of `metric`, writes successors 2P, 2P+1, 2P+32
/// and 2P+33 of `next`, and sets bit P of the step's decision lanes.
template <bool kClamped, unsigned P>
[[gnu::always_inline]] inline void butterfly_pair(const double* metric,
                                                  double* next,
                                                  const Lanes (&xa)[2],
                                                  const Lanes (&yb)[2],
                                                  Mask& lo_bits,
                                                  Mask& hi_bits) {
  constexpr unsigned j = 2 * P;
  constexpr unsigned a = kButterflyOutputs[j].first;
  constexpr unsigned b = kButterflyOutputs[j].second;
  constexpr long long bit = 1ll << P;
  const Lanes even = {metric[2 * j], metric[2 * j + 2]};
  const Lanes odd = {metric[2 * j + 1], metric[2 * j + 3]};
  Lanes lo, hi;
  // Successors j, j+1 (input 0): the even predecessor emits (a, b).
  lo_bits |= acs<kClamped>((even + xa[a]) + yb[b],
                           (odd + xa[a ^ 1]) + yb[b ^ 1], lo) &
             Mask{bit, bit};
  // Successors j+32, j+33 (input 1): the odd predecessor emits (a, b).
  hi_bits |= acs<kClamped>((even + xa[a ^ 1]) + yb[b ^ 1],
                           (odd + xa[a]) + yb[b], hi) &
             Mask{bit, bit};
  std::memcpy(&next[j], &lo, sizeof lo);
  std::memcpy(&next[j + kNumStates / 2], &hi, sizeof hi);
}

/// The add-compare-select sweep over every step: fills one decision word
/// per step and returns the final path costs.  The 16 butterfly pairs are
/// unrolled, so each pair's output bits are constants, and the metrics
/// ping-pong between two buffers.
template <bool kClamped>
std::array<double, kNumStates> sweep(std::span<const double> llrs,
                                     std::vector<std::uint64_t>& decisions) {
  std::array<double, kNumStates> buffers[2];
  buffers[0].fill(std::numeric_limits<double>::infinity());
  buffers[0][0] = 0.0;  // encoder starts in the all-zero state
  double* metric = buffers[0].data();
  double* next = buffers[1].data();
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    const double la = llrs[2 * t];
    const double lb = llrs[2 * t + 1];
    // Lane costs of output bit a (lane 1 has the opposite a) and b.
    const Lanes xa[2] = {{la, -la}, {-la, la}};
    const Lanes yb[2] = {{lb, lb}, {-lb, -lb}};
    Mask lo_bits = {}, hi_bits = {};
    [&]<unsigned... P>(std::integer_sequence<unsigned, P...>) {
      (butterfly_pair<kClamped, P>(metric, next, xa, yb, lo_bits, hi_bits),
       ...);
    }(std::make_integer_sequence<unsigned, kNumStates / 4>{});
    decisions[t] = static_cast<std::uint64_t>(lo_bits[0]) |
                   static_cast<std::uint64_t>(lo_bits[1]) << 16 |
                   static_cast<std::uint64_t>(hi_bits[0]) << 32 |
                   static_cast<std::uint64_t>(hi_bits[1]) << 48;
    std::swap(metric, next);
  }
  return buffers[decisions.size() % 2];
}

/// Bit of successor `state` in a step's decision word: lane (the lowest
/// state bit) picks 16 bits, the input bit (the MSB) 32, the pair index the
/// rest.
constexpr unsigned decision_bit(unsigned state) {
  return ((state >> 5) << 5) | ((state & 1u) << 4) | ((state & 31u) >> 1);
}

}  // namespace

/// Radix-2 butterfly add-compare-select sweep + traceback.
///
/// Successor states j and j+32 are fed by predecessors 2j and 2j+1 (the
/// input bit becomes the successor's MSB), so each step runs 32
/// butterflies and records one decision bit per successor: 1 when the odd
/// predecessor survived.  Output bit a costs its LLR when the branch bit
/// is 0 and minus it when 1 (a bit of 1 prefers a positive LLR; equivalent
/// up to a constant to -sum(llr * (2*bit - 1))), and costs accumulate as
/// (metric + cost_a) + cost_b, the association of the per-state sweep (see
/// acs()).  One pass over the input picks the sweep: without the sentinel
/// clamp when every |LLR| <= kLlrBound (a NaN fails the check), clamped
/// otherwise; both decide and store the same bits on bounded input.
/// Traceback never lands on an unreachable state other than 0, whose
/// decision bit 0 reads as "input 0 from state 0", as the per-state
/// sweep's never-written survivor entry does.
common::Bits viterbi_decode(std::span<const double> llrs, bool terminated) {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("viterbi_decode: odd LLR length");
  }
  const std::size_t steps = llrs.size() / 2;
  std::vector<std::uint64_t> decisions(steps);
  const bool bounded = std::all_of(llrs.begin(), llrs.end(), [](double l) {
    return std::abs(l) <= kLlrBound;
  });
  const auto metric = bounded ? sweep<false>(llrs, decisions)
                              : sweep<true>(llrs, decisions);

  // Pick the end state: 0 when terminated, otherwise best metric.
  unsigned state = 0;
  if (!terminated) {
    double best = kSentinel;
    for (unsigned s = 0; s < kNumStates; ++s) {
      if (metric[s] < best) {
        best = metric[s];
        state = s;
      }
    }
  }

  common::Bits decoded(steps);
  for (std::size_t t = steps; t-- > 0;) {
    decoded[t] = static_cast<common::Bit>(state >> 5);
    state = ((state & 31u) << 1) |
            static_cast<unsigned>((decisions[t] >> decision_bit(state)) & 1u);
  }
  return decoded;
}

}  // namespace sledzig::wifi

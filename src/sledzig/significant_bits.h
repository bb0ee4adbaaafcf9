// The significant-bit pipeline (sections IV-A..IV-D of the paper).
//
// Significant bits are defined at the QAM mapper input: forcing them selects
// lowest-power constellation points on the subcarriers overlapped with the
// ZigBee channel.  This module traces them backwards through the interleaver
// (deinterleaving) and the puncturer to convolutional-encoder steps, and
// derives the deterministic *extra-bit positions* in the uncoded scrambled
// stream that Algorithm 1 fills:
//   - a "single" significant bit at encoder step n costs one extra bit x_n;
//   - "twin" significant bits (both outputs of step n) cost two extra bits
//     placed at x_{n-1} and x_{n-5} (solvable because g0 taps x_{n-5} but
//     not x_{n-1}, and g1 taps x_{n-1} but not x_{n-5}).
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "sledzig/channels.h"
#include "wifi/phy_params.h"

namespace sledzig::core {

struct SledzigConfig {
  wifi::Modulation modulation = wifi::Modulation::kQam16;
  wifi::CodingRate rate = wifi::CodingRate::kR12;
  OverlapChannel channel = OverlapChannel::kCh2;
  /// Additional ZigBee channels to protect in the same packet (extension;
  /// the paper protects one).  Extra-bit cost grows with the union of the
  /// forced subcarriers; `forced_subcarriers` is ignored when set.
  std::vector<OverlapChannel> extra_channels;
  /// Data subcarriers forced per symbol; 0 selects the paper default
  /// (7 for CH1-CH3, 5 for CH4).  Fig 11 sweeps this.
  std::size_t forced_subcarriers = 0;
  std::uint8_t scrambler_seed = 0x5d;
  bool include_service_field = false;
  /// Channel bandwidth.  The paper evaluates 20 MHz; on the 40 MHz plan the
  /// protected window is given by `window_offsets_hz` instead of `channel`.
  wifi::ChannelWidth width = wifi::ChannelWidth::k20MHz;
  /// Explicit window centres (Hz from the WiFi channel centre).  When
  /// non-empty these override `channel`/`extra_channels`; required for
  /// 40 MHz, optional for 20 MHz.
  std::vector<double> window_offsets_hz;
  /// Bandwidth of the explicit windows (2 MHz = ZigBee/BLE; 1 MHz =
  /// classic-Bluetooth hop channel).
  double window_bandwidth_hz = 2e6;

  /// Member-wise, so a memo keyed on the whole plan (the in-band offsets)
  /// picks up every field a later revision adds.
  auto operator<=>(const SledzigConfig&) const = default;

  const wifi::ChannelPlan& plan() const { return wifi::channel_plan(width); }

  std::size_t forced_count() const {
    return forced_subcarriers == 0 ? default_forced_count(channel)
                                   : forced_subcarriers;
  }

  /// The forced data-subcarrier set (single window, multi-channel union, or
  /// explicit window offsets on any plan).
  std::vector<int> forced_subcarrier_set() const;
};

/// One significant bit traced back to the convolutional encoder.
struct SignificantBit {
  std::size_t punctured_pos;  // 0-based position in the transmitted coded
                              // stream (interleaver input), global
  common::Bit value;          // required value
  std::size_t step;           // encoder step n (0-based uncoded position)
  unsigned branch;            // 0 = y_{2n-1} (g0), 1 = y_{2n} (g1)
};

/// Significant bits of OFDM data symbol `symbol` (0-based), sorted by
/// (step, branch).  Positions are global (offset by symbol * N_CBPS).
std::vector<SignificantBit> significant_bits_for_symbol(
    const SledzigConfig& cfg, std::size_t symbol);

/// Number of significant bits per OFDM symbol = forced subcarriers *
/// significant bits per point (2/4/6).  This is also the number of extra
/// bits per symbol (Table III).
std::size_t significant_bits_per_symbol(const SledzigConfig& cfg);

/// One linear equation over the uncoded stream: output y of `branch` at
/// encoder step `step` must equal `value`.  A "single" significant bit is
/// one equation; a "twin" contributes two equations at the same step.
struct Equation {
  std::size_t step = 0;
  unsigned branch = 0;  // 0 = y_{2n-1} (g0), 1 = y_{2n} (g1)
  common::Bit value = 0;

  bool operator==(const Equation&) const = default;
};

/// The extra-bit plan of one payload region, flat.  Equations whose 7-bit
/// tap windows overlap form a cluster, solved jointly: each equation gets
/// one unknown stream position such that the cluster's square GF(2) system
/// is invertible.  Most clusters are a lone single (position n, the paper's
/// choice) or a lone twin (positions n-5 and n-1); the general solver also
/// handles the denser patterns that QAM-256 produces on some channels.
///
/// A plan is a prefix of any longer one: the plan of [b, e) is the plan of
/// [b, E), E >= e, cut to its equations with step < e
/// (truncate_constraint_plan, DESIGN.md section 10).
struct ConstraintPlan {
  /// The payload region [payload_begin, payload_end) the plan forces.
  std::size_t payload_begin = 0;
  std::size_t payload_end = 0;
  /// Forced equations in (step, branch) order, and the extra-bit stream
  /// position chosen as each one's unknown: positions[i] solves
  /// equations[i].  Positions are distinct and lie in the payload region.
  std::vector<Equation> equations;
  std::vector<std::size_t> positions;
  /// Cluster c is equations [cluster_ends[c - 1], cluster_ends[c]), from 0
  /// for c = 0.
  std::vector<std::size_t> cluster_ends;
  std::size_t num_singles = 0;
  std::size_t num_twins = 0;
  /// Equations at/after payload_end (tail/pad region appended by the WiFi
  /// TX) — unforcible by design, expected in the final symbol only.
  std::size_t num_unforced_tail = 0;
  /// Equations that could not get an unknown inside [payload_begin,
  /// payload_end) (SERVICE-field region or the first encoder steps).
  std::size_t num_unforced_head = 0;
  /// Equations dropped because the cluster system was rank-deficient.
  /// Zero in every supported configuration (tested).
  std::size_t num_collisions = 0;
  /// Steps of the equations counted in num_unforced_head and
  /// num_collisions, ascending.
  std::vector<std::size_t> unforced_steps;
  /// One OFDM symbol's share: N_DBPS encoder steps holding `symbol_singles`
  /// singles and `symbol_twins` twins.
  std::size_t symbol_steps = 0;
  std::size_t symbol_singles = 0;
  std::size_t symbol_twins = 0;

  std::size_t num_unforced() const {
    return num_unforced_tail + num_unforced_head + num_collisions;
  }

  bool operator==(const ConstraintPlan&) const = default;
};

/// Builds the deterministic constraint plan for an uncoded stream of
/// `stream_len` bits ([fixed service][payload]...; positions >= payload_end
/// belong to tail/pad and are not forcible).  Both the encoder and the
/// decoder derive the identical plan from the config alone.
ConstraintPlan build_constraint_plan(const SledzigConfig& cfg,
                                     std::size_t payload_begin,
                                     std::size_t payload_end);

/// Forced equations of `plan` with step < payload_end: the extra bits of
/// the plan for [plan.payload_begin, payload_end).
std::size_t extra_bits_before(const ConstraintPlan& plan,
                              std::size_t payload_end);

/// Cuts `plan` to the plan build_constraint_plan returns for the same
/// config over [plan.payload_begin, payload_end), for payload_end in
/// [plan.payload_begin, plan.payload_end].
void truncate_constraint_plan(ConstraintPlan& plan, std::size_t payload_end);

}  // namespace sledzig::core

// ZigBee frame delivery (DESIGN.md §15): does every 16 us symbol of a
// reception survive the worst interferer overlapping it?
//
// The engine stages a frame's nonzero interferers and hands them here.
// The interferer set is piecewise-constant between transmission
// boundaries, so each (interferer, segment) pair is folded once over the
// elementary segments between boundaries it covers, and a symbol reads
// the worst pair of the segments it touches.  The RNG stream stays
// exactly that of a per-symbol scan: one uniform() per symbol, stopping
// at the first failed one.  The per-symbol scan itself survives only as
// this function's test oracle, in the sim test suite.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace sledzig::sim {

/// One frame-relevant interferer, staged flat for the delivery scan: the
/// transmission's segment times plus its received powers and the
/// precomputed symbol error probabilities it would impose.  A frame's
/// staging (a few dozen entries) lives in L1 across every window the
/// delivery loop evaluates, where chasing the ledger and the power table
/// per window re-missed cache on each of the ~40 entries every time.
struct RelevantTx {
  double start_us;
  double payload_start_us;
  double end_us;
  common::MilliWatt preamble_mw;
  common::MilliWatt payload_mw;
  double p_err_preamble;
  double p_err_payload;
};

/// The reception being scored: its time span and the receiver's symbol
/// error probability with no interferer.
struct ZigbeeReception {
  double start_us;
  double end_us;
  double p_err_idle;
};

/// Scratch space for zigbee_symbols_survive, kept by the caller so its
/// capacity survives between frames.  Its content means nothing between
/// calls.
struct DeliveryScratch {
  /// The worst (interferer, segment) pair over one elementary segment:
  /// its power, its error probability, and its rank (2 x staging index,
  /// + 1 for a payload segment), which breaks power ties the way the
  /// per-symbol scan's order does.
  struct Worst {
    common::MilliWatt mw;
    double p;
    std::uint32_t rank;
  };
  std::vector<double> bounds;  // sorted, distinct segment boundaries
  std::vector<Worst> worst;    // one per segment between two bounds
};

/// Draws one `rng.uniform()` per whole symbol of `rx` against the error
/// probability of that symbol's worst interferer (a payload segment
/// displaces a preamble hit only at strictly higher power), and returns
/// false at the first symbol that fails.  `interferers` must be in start
/// order, each with start <= payload start <= end, and may omit
/// zero-power transmissions, which can never be the worst, and ones that
/// end at or before the reception starts, which overlap no symbol.
bool zigbee_symbols_survive(const ZigbeeReception& rx,
                            std::span<const RelevantTx> interferers,
                            DeliveryScratch& scratch, common::Rng& rng);

}  // namespace sledzig::sim

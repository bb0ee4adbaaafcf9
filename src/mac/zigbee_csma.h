// ZigBee unslotted CSMA/CA (802.15.4) for the discrete-event engine
// (src/sim), plus the per-symbol SINR packet-error model the engine
// evaluates every frame with.
//
// The error model treats the WiFi preamble separately from the (possibly
// SledZig-reduced) payload: the preamble is always at full band power and
// its bursty structure is harsher on the O-QPSK demodulator than the
// noise-like OFDM payload, which the paper highlights in sections IV-F and
// V-C3.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "common/units.h"

namespace sledzig::mac {

struct ZigbeeMacParams {
  double backoff_period_us = 320.0;  // aUnitBackoffPeriod
  double cca_us = 128.0;             // 8 symbols
  double turnaround_us = 192.0;      // aTurnaroundTime
  unsigned min_be = 3;       // macMinBE
  unsigned max_be = 5;       // macMaxBE
  unsigned max_backoffs = 4; // macMaxCSMABackoffs
  /// macMaxFrameRetries: CSMA re-runs after a frame is transmitted but not
  /// delivered.  0 matches the paper's open-loop accounting (no ACKs).
  unsigned max_frame_retries = 0;
  /// macAckWaitDuration: how long the transmitter waits for an ACK that
  /// never comes before re-entering CSMA on a retry (54 symbols = 864 us).
  /// Only the retry path pays it — a delivered frame completes immediately,
  /// so retries=0 behaviour (the paper's) is bit-identical with any value.
  double ack_wait_us = 864.0;
  std::size_t payload_octets = 50;
};

/// Error-model parameters, calibrated against the sample-domain DSSS
/// receiver and the paper's Figs 14-16 crossovers.
struct SymbolErrorModel {
  /// Logistic midpoint for symbols jammed by the (noise-like OFDM) WiFi
  /// payload: DSSS despreading survives down to roughly -11 dB SINR with a
  /// sharp cliff — calibrated so the paper's Fig 14 curves jump to full
  /// throughput right at their CCA cutoffs while Fig 16's QAM-16 case
  /// (SINR ~ -9 dB) still fails.
  common::Db payload_midpoint_db{-11.0};
  common::Db payload_width_db{0.8};
  /// Midpoint of the preamble-collision penalty: the full-power 16 us
  /// preamble burst is harsher per overlapped chip than the (possibly
  /// SledZig-attenuated) OFDM payload.
  common::Db preamble_midpoint_db{-6.0};
  common::Db preamble_width_db{1.2};
  /// A preamble burst overlaps at most ~32 chips of a symbol, so even a
  /// hopeless SINR only corrupts the symbol with this probability (the
  /// paper's Fig 14(b) requires ZigBee frames to usually survive preamble
  /// hits).
  double preamble_max_error = 0.25;
  /// Width of the frame-level sensitivity cliff.
  common::Db sensitivity_width_db{0.4};

  /// Symbol error probability given SINR against a given interferer kind.
  double symbol_error_prob(common::Db sinr_db, bool preamble) const;

  /// Probability the whole frame is lost because the signal sits at or
  /// below the receiver sensitivity.
  double sensitivity_loss_prob(common::Dbm signal_dbm,
                               common::Dbm sensitivity_dbm) const;
};

/// Event-driven 802.15.4 unslotted CSMA/CA state machine, advanced by an
/// external discrete-event scheduler (src/sim).  The machine owns protocol
/// state (NB, BE, retries) and the backoff RNG; the scheduler owns time and
/// answers each CCA from the actual power on the medium.  Unlike the WiFi
/// machine, this one never listens between CCAs — unslotted CSMA/CA is
/// oblivious to the medium outside its 8-symbol windows.
///
/// 802.15.4 boundary behaviour (6.2.5.1): BE is clamped to
/// [macMinBE, macMaxBE] at every step (including a misconfigured
/// macMinBE > macMaxBE, which clamps down to macMaxBE), and channel access
/// fails once NB exceeds macMaxCSMABackoffs — i.e. after exactly
/// macMaxCSMABackoffs + 1 busy CCAs.
class ZigbeeCsmaMachine {
 public:
  struct Step {
    enum class Kind {
      kNone,      ///< machine is idle (frame finished or dropped)
      kCcaEndAt,  ///< evaluate CCA over [at - cca_us, at] and call cca_result
      kTxStartAt, ///< turnaround ends at `at`: start transmitting then
      kDropCca,   ///< channel-access failure (NB exceeded macMaxCSMABackoffs)
    };
    Kind kind = Kind::kNone;
    double at = 0.0;
  };

  /// What the next timer_fired-style callback should be, for dispatch.
  enum class Awaiting { kNone, kCca, kTxStart };

  ZigbeeCsmaMachine(const ZigbeeMacParams& params, std::uint64_t seed);

  /// A frame reached the head of the queue: start CSMA/CA round 1.
  Step frame_ready(double now);

  /// CCA verdict for the window that ended at `now`.
  Step cca_result(double now, bool busy);

  /// The turnaround timer fired; the caller starts the transmission.
  void tx_started();

  /// Transmission finished.  Returns a retry Step (re-entering CSMA after
  /// the ACK timeout) when the frame was lost and retries remain, kNone
  /// otherwise — a lost frame with retries in hand is never terminal.
  Step tx_done(double now, bool delivered);

  /// Crash/reboot hook: drops all per-frame protocol state (NB, BE,
  /// pending CCA/turnaround, remaining retries) as a power cycle would.
  /// The backoff RNG is deliberately NOT reset — it is the node's seeded
  /// entropy stream, and rewinding it would let a rebooted node replay the
  /// exact draws it made before dying.
  void reset();

  Awaiting awaiting() const { return awaiting_; }
  unsigned backoff_exponent() const { return be_; }  // test hooks
  unsigned backoffs() const { return nb_; }
  unsigned retries_left() const { return retries_left_; }

 private:
  Step begin_csma(double now);
  Step schedule_cca(double now);

  ZigbeeMacParams params_;
  common::Rng rng_;
  Awaiting awaiting_ = Awaiting::kNone;
  unsigned nb_ = 0;
  unsigned be_ = 0;
  unsigned retries_left_ = 0;
};

/// Frame airtime including PHY header, in microseconds.
double zigbee_frame_airtime_us(std::size_t payload_octets);

}  // namespace sledzig::mac

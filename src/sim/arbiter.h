// Airtime arbiter: the ledger of transmissions a query can still reach, plus
// the power-driven medium queries the MAC state machines are advanced with.
//
// All queries resolve through received power between placed nodes — the
// engine precomputes a (listening point x transmitter) table from
// channel::pathloss and the PHY-measured in-band offsets
// (coex::wifi_inband_power), so a SledZig payload really does present
// 20+ dB less energy to a ZigBee CCA than a normal payload, while the
// preamble stays at full power.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"

namespace sledzig::sim {

/// Received power of one transmitter at one listening point, split by
/// frame segment, in the listener's measurement band (2 MHz for ZigBee
/// listeners, the full 20 MHz for WiFi listeners).
struct SegmentPower {
  common::MilliWatt payload_mw{};
  common::MilliWatt preamble_mw{};  // == payload_mw for ZigBee transmitters
};

/// One emission; its kind (WiFi, ZigBee, jammer) follows from `node`.
struct Transmission {
  std::uint32_t node = 0;  // global node index
  double start_us = 0.0;
  double payload_start_us = 0.0;  // == start_us for ZigBee and jammer bursts
  double end_us = 0.0;
};

/// Power tables the arbiter resolves transmissions against, for N nodes.
/// Listening points are indexed 0..N-1 for node transmitter positions
/// (CCA / energy detect) and N..2N-1 for node receiver positions
/// (delivery): power[point * N + tx_node].  set_link is the only writer of
/// `power`, `nonzero_bits` and `audible`, so the three always agree.
struct ArbiterTables {
  /// Tables for `num_nodes` nodes: every link 0 mW and inaudible, CCA
  /// noise and thresholds zero, and every node in coupling component 0.
  explicit ArbiterTables(std::size_t num_nodes = 0);

  std::size_t num_nodes = 0;
  std::vector<SegmentPower> power;        // 2N x N
  std::vector<char> audible;  // N x N: ED-visible at tx point
  std::vector<common::MilliWatt> cca_noise_mw;     // per node, in its CCA band
  std::vector<common::Dbm> cca_threshold_dbm;      // per node
  /// Interference-graph index: bit `tx` of row `point` is set iff
  /// power[point * num_nodes + tx] is nonzero.  At dense node counts the
  /// power table outgrows every cache level while this index stays
  /// resident, so medium queries test the bit before touching the table.
  /// Skipping an exactly-zero entry changes no arithmetic (it contributes
  /// exactly 0.0 energy and can never win a strict-> power comparison), so
  /// queries stay bit-identical to a full table scan.
  std::vector<std::uint64_t> nonzero_bits;  // 2N x bit_words
  std::size_t bit_words = 0;                // (num_nodes + 63) / 64
  /// Spectral coupling component per node (see LinkCache::comp): the
  /// arbiter keeps one transmission ledger per component and medium
  /// queries scan only the listener's — exact, because cross-component
  /// received power is 0 mW everywhere.
  std::vector<std::uint32_t> comp;
  std::size_t num_comps = 1;

  /// Writes one link's received power and keeps its index bit and (at a
  /// CCA point) its energy-detect audibility in step.  Audibility reads
  /// the listener's CCA threshold, so thresholds are set first.
  void set_link(std::size_t point, std::size_t tx, const SegmentPower& sp);
};

class Arbiter {
 public:
  /// `max_cca_us`: the longest window zigbee_cca_busy will be asked about,
  /// so retirement keeps what such a window can still reach.
  Arbiter(ArbiterTables tables, double max_cca_us);

  /// Registers a transmission starting now; its id is its sequence number
  /// in `node`'s component ledger.  Starts are non-decreasing (event time
  /// only moves forward), which keeps the ledger sorted.  Retires the
  /// ledger's front (DESIGN.md §15), which invalidates references from
  /// tx() and spans from overlapping().
  /// The time triple is ordered (start <= payload_start <= end), so the
  /// params are not really swappable despite sharing a type.
  // NOLINTBEGIN(bugprone-easily-swappable-parameters)
  std::uint32_t begin_tx(std::uint32_t node, double start_us,
                         double payload_start_us, double end_us);
  // NOLINTEND(bugprone-easily-swappable-parameters)

  /// Cuts an emission short (the transmitter died mid-air at `now`):
  /// truncates its end to `now` so later medium queries stop seeing its
  /// energy.
  void abort_tx(std::uint32_t node, std::uint32_t tx_id, double now_us);

  /// `node`'s transmission `tx_id`, which is on air or ends now (so it
  /// cannot have been retired).
  const Transmission& tx(std::uint32_t node, std::uint32_t tx_id) const {
    const Ledger& l = ledgers_[tables_.comp[node]];
    return l.txs[tx_id - l.first_id];
  }

  /// Energy detect at `listener`'s transmitter position: is any audible
  /// foreign transmission on air at `t`?  (Single-source ED: a source is
  /// audible when it alone clears the listener's threshold — sub-threshold
  /// sources summing past it is ignored, which matches the 20+ dB margins
  /// of the paper's geometries.)
  bool busy_at(std::uint32_t listener, double t_us) const;

  /// 802.15.4 CCA-ED over [t0, t1]: *time-averaged* in-band energy at the
  /// listener against its threshold.  Averaging is why a 16-20 us
  /// full-power WiFi preamble inside a 128 us window of power-reduced
  /// payload barely moves the needle (paper section IV-F).
  bool zigbee_cca_busy(std::uint32_t listener, double t0_us,
                       double t1_us) const;

  /// The transmissions, in start order, from `listener`'s coupling
  /// component possibly overlapping [t0, t1] (callers re-check exact
  /// endpoints).  Valid until the next begin_tx.
  std::span<const Transmission> overlapping(std::uint32_t listener,
                                            double t0_us, double t1_us) const;

  /// Received power of `tx_node` at `listener`'s receiver position.
  const SegmentPower& rx_power(std::uint32_t listener,
                               std::uint32_t tx_node) const {
    return tables_.power[(tables_.num_nodes + listener) * tables_.num_nodes +
                         tx_node];
  }
  /// ... at `listener`'s transmitter (CCA) position.
  const SegmentPower& cca_power(std::uint32_t listener,
                                std::uint32_t tx_node) const {
    return tables_.power[listener * tables_.num_nodes + tx_node];
  }

  bool audible(std::uint32_t listener, std::uint32_t tx_node) const {
    return tables_.audible[listener * tables_.num_nodes + tx_node] != 0;
  }

  /// Retunes one link (DESIGN.md §18: SledZig toggle, ZigBee hop).
  void set_link(std::size_t point, std::size_t tx, const SegmentPower& sp) {
    tables_.set_link(point, tx, sp);
  }

  /// Index queries: is the link's table power nonzero at the listener's
  /// receiver / CCA point?
  bool rx_nonzero(std::uint32_t listener, std::uint32_t tx_node) const {
    return link_bit(tables_.num_nodes + listener, tx_node);
  }
  bool cca_nonzero(std::uint32_t listener, std::uint32_t tx_node) const {
    return link_bit(listener, tx_node);
  }

 private:
  /// One component's transmissions in start order; txs[k] has id
  /// first_id + k, and txs[0, head) are retired, awaiting a prefix erase.
  struct Ledger {
    std::vector<Transmission> txs;
    std::size_t head = 0;
    std::uint32_t first_id = 0;

    std::span<const Transmission> live() const {
      return std::span<const Transmission>(txs).subspan(head);
    }
  };

  bool link_bit(std::size_t point, std::size_t tx_node) const {
    return (tables_.nonzero_bits[point * tables_.bit_words + (tx_node >> 6)] >>
            (tx_node & 63)) &
           1u;
  }

  ArbiterTables tables_;
  std::vector<Ledger> ledgers_;  // one per coupling component
  double max_duration_us_ = 0.0;  // longest end - start ever begun
  double max_cca_us_ = 0.0;
};

}  // namespace sledzig::sim

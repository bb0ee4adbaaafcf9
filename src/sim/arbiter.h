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
  std::uint32_t node = 0;   // global node index
  std::uint32_t local = 0;  // node's local id in its coupling component
  double start_us = 0.0;
  double payload_start_us = 0.0;  // == start_us for ZigBee and jammer bursts
  double end_us = 0.0;
};

/// One listening point's row of the power table and its nonzero-bit index,
/// indexed by transmitter local id (Transmission::local).
struct LinkRow {
  const SegmentPower* power = nullptr;
  const std::uint64_t* bits = nullptr;

  bool nonzero(std::uint32_t tx_local) const {
    return (bits[tx_local >> 6] >> (tx_local & 63)) & 1u;
  }
};

/// Power tables the arbiter resolves transmissions against, for N nodes
/// split into coupling components (LinkCache::comp).  Received power across
/// components is 0 mW by the definition of a component, so only pairs
/// within one are stored: component c with n members holds one dense block
/// of each table, indexed by local id, a node's rank among its component's
/// members in ascending global index.  Listening points are indexed
/// 0..N-1 for node transmitter positions (CCA / energy detect) and N..2N-1
/// for node receiver positions (delivery); in c's 2n x n power block, rows
/// 0..n-1 are its CCA points, rows n..2n-1 its receiver points, and columns
/// are transmitters.  With one component local ids are global ids and the
/// block is the whole 2N x N table.  set_link is the only writer of
/// `power`, `nonzero_bits` and `audible`, so the three always agree.
struct ArbiterTables {
  /// Where component c's blocks start, and its size.
  struct Block {
    std::size_t size = 0;    // members, n
    std::size_t words = 0;   // nonzero_bits words per row, (n + 63) / 64
    std::size_t first = 0;   // its members start at members[first]
    std::size_t power = 0;   // 2n x n entries of `power` from here
    std::size_t bits = 0;    // 2n x words entries of `nonzero_bits`
    std::size_t pairs = 0;   // n x n entries of `audible`
  };

  /// Tables for `num_nodes` nodes in one coupling component.
  explicit ArbiterTables(std::size_t num_nodes = 0);
  /// Tables for nodes in coupling components comp[node] (dense ids, as in
  /// LinkCache::comp): every link 0 mW and inaudible, CCA noise and
  /// thresholds zero.
  explicit ArbiterTables(std::vector<std::uint32_t> node_comp);

  std::size_t num_nodes = 0;
  std::vector<SegmentPower> power;  // one 2n x n block per component
  std::vector<char> audible;  // one n x n block: ED-visible at tx point
  std::vector<common::MilliWatt> cca_noise_mw;     // per node, in its CCA band
  std::vector<common::Dbm> cca_threshold_dbm;      // per node
  /// Interference-graph index: bit `tx` of a point's row is set iff that
  /// power entry is nonzero.  At dense node counts the power table
  /// outgrows every cache level while this index stays resident, so
  /// medium queries test the bit before touching the table.  Skipping an
  /// exactly-zero entry changes no arithmetic (it contributes exactly 0.0
  /// energy and can never win a strict-> power comparison), so queries
  /// stay bit-identical to a full table scan.
  std::vector<std::uint64_t> nonzero_bits;  // one 2n x words block
  /// Spectral coupling component per node (see LinkCache::comp): the
  /// arbiter keeps one transmission ledger per component and medium
  /// queries scan only the listener's.
  std::vector<std::uint32_t> comp;
  std::vector<std::uint32_t> local;    // per node: its local id
  std::vector<std::uint32_t> members;  // global ids, by component, ascending
  std::vector<Block> blocks;           // per component

  /// Component c's members in ascending global index (local id order).
  std::span<const std::uint32_t> component(std::size_t c) const {
    return std::span<const std::uint32_t>(members).subspan(blocks[c].first,
                                                           blocks[c].size);
  }
  /// Is (point, tx) stored, i.e. within one coupling component?
  bool stored(std::size_t point, std::size_t tx) const {
    return comp[listener_of(point)] == comp[tx];
  }
  /// `power` index of a stored (point, tx) pair; a table laid out like
  /// `power` shares it.
  std::size_t power_slot(std::size_t point, std::size_t tx) const {
    const Block& b = blocks[comp[listener_of(point)]];
    return b.power + block_row(point) * b.size + local[tx];
  }
  /// `audible` index of the first pair of `listener`'s row.
  std::size_t pair_row(std::size_t listener) const {
    const Block& b = blocks[comp[listener]];
    return b.pairs + local[listener] * b.size;
  }
  /// The power and index row of listening point `point`.
  LinkRow row(std::size_t point) const {
    const Block& b = blocks[comp[listener_of(point)]];
    const std::size_t r = block_row(point);
    return {power.data() + b.power + r * b.size,
            nonzero_bits.data() + b.bits + r * b.words};
  }

  /// Writes one link's received power and keeps its index bit and (at a
  /// CCA point) its energy-detect audibility in step.  Audibility reads
  /// the listener's CCA threshold, so thresholds are set first.  A pair
  /// across components is 0 mW: writing it zero is a no-op, and writing
  /// it nonzero throws std::logic_error naming the point and the
  /// transmitter.
  void set_link(std::size_t point, std::size_t tx, const SegmentPower& sp);

 private:
  std::size_t listener_of(std::size_t point) const {
    return point < num_nodes ? point : point - num_nodes;
  }
  /// `point`'s row in its component's power block: CCA points first.
  std::size_t block_row(std::size_t point) const {
    const std::size_t listener = listener_of(point);
    return (point < num_nodes ? 0 : blocks[comp[listener]].size) +
           local[listener];
  }
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

  /// Received power of `tx_node` at `listener`'s receiver position (0 mW
  /// across components).
  SegmentPower rx_power(std::uint32_t listener, std::uint32_t tx_node) const {
    return link(tables_.num_nodes + listener, tx_node);
  }
  /// ... at `listener`'s transmitter (CCA) position.
  SegmentPower cca_power(std::uint32_t listener, std::uint32_t tx_node) const {
    return link(listener, tx_node);
  }

  bool audible(std::uint32_t listener, std::uint32_t tx_node) const {
    return tables_.stored(listener, tx_node) &&
           tables_.audible[tables_.pair_row(listener) +
                           tables_.local[tx_node]] != 0;
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

  /// Row views for scans over one listener's ledger: each entry is read
  /// at its Transmission::local.
  LinkRow rx_row(std::uint32_t listener) const {
    return tables_.row(tables_.num_nodes + listener);
  }
  LinkRow cca_row(std::uint32_t listener) const {
    return tables_.row(listener);
  }
  const char* audible_row(std::uint32_t listener) const {
    return tables_.audible.data() + tables_.pair_row(listener);
  }

  /// The layout: components, local ids and block offsets.
  const ArbiterTables& tables() const { return tables_; }

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

  SegmentPower link(std::size_t point, std::size_t tx_node) const {
    return tables_.stored(point, tx_node)
               ? tables_.power[tables_.power_slot(point, tx_node)]
               : SegmentPower{};
  }
  bool link_bit(std::size_t point, std::size_t tx_node) const {
    return tables_.stored(point, tx_node) &&
           tables_.row(point).nonzero(tables_.local[tx_node]);
  }

  ArbiterTables tables_;
  std::vector<Ledger> ledgers_;  // one per coupling component
  double max_duration_us_ = 0.0;  // longest end - start ever begun
  double max_cca_us_ = 0.0;
};

}  // namespace sledzig::sim

#include "sim/link_cache.h"

#include <algorithm>
#include <cmath>

#include "channel/pathloss.h"
#include "coex/experiment.h"
#include "common/units.h"
#include "sim/scenario.h"
#include "zigbee/cc2420.h"

namespace sledzig::sim {
namespace {

/// A flat wideband jammer presents 2/20 MHz of its power to a ZigBee
/// listener's measurement band (same constant the engine always used).
constexpr common::Db kJammerBandFractionDb{-10.0};

/// How far under the listener's noise floor a link's mean power plus a
/// 10-sigma shadowing margin must land before pruning zeroes it.
constexpr common::Db kPruneFloorDb{30.0};

constexpr double kWifiBandHz = 20e6;
constexpr double kZigbeeBandHz = 2e6;

/// Overlap in Hz of two bands centred at c1/c2 with widths w1/w2.
/// Symmetric in the (centre, width) pairs, so a swap is harmless.
// NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
double band_overlap_hz(double c1, double w1, double c2, double w2) {
  return std::max(0.0, std::min(c1 + w1 / 2.0, c2 + w2 / 2.0) -
                           std::max(c1 - w1 / 2.0, c2 - w2 / 2.0));
}

}  // namespace

double wifi_node_center_hz(unsigned channel) {
  return core::wifi_channel_frequency_hz(channel == 0 ? 6u : channel);
}

double zigbee_node_center_hz(unsigned channel,
                             const core::SledzigConfig& sledzig) {
  if (channel == 0) {
    // Legacy sentinel: the protected window of the (channel-0) WiFi band.
    return wifi_node_center_hz(0) +
           core::channel_center_offset_hz(sledzig.channel);
  }
  return 2405e6 + 5e6 * static_cast<double>(channel - 11);
}

unsigned overlapping_zigbee_channel(unsigned wifi_channel,
                                    core::OverlapChannel ch) {
  const double f = wifi_node_center_hz(wifi_channel) +
                   core::channel_center_offset_hz(ch);
  return 11u + static_cast<unsigned>(std::lround((f - 2405e6) / 5e6));
}

// NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
LinkEntry mean_link_entry(const ScenarioConfig& cfg, std::size_t listener,
                          bool rx_point, std::size_t tx,
                          common::Hz listener_center, bool sledzig_on) {
  const std::size_t num_wifi = cfg.wifi.size();
  const std::size_t num_nodes = num_wifi + cfg.zigbee.size();
  const coex::Scheme scheme =
      sledzig_on ? coex::Scheme::kSledzig : coex::Scheme::kNormalWifi;
  const auto wifi_link = channel::wifi_link();

  LinkEntry e;
  if (tx == listener && !rx_point) return e;  // own CCA point: silent
  Position pos;
  if (listener < num_wifi) {
    pos = rx_point ? cfg.wifi[listener].rx : cfg.wifi[listener].tx;
  } else {
    const auto& z = cfg.zigbee[listener - num_wifi];
    pos = rx_point ? z.rx : z.tx;
  }
  const bool listener_is_zigbee = listener >= num_wifi;
  const double f_listener = listener_center.value();

  if (tx < num_wifi) {
    const auto& w = cfg.wifi[tx];
    const double d = distance_m(w.tx, pos);
    const double f_tx = wifi_node_center_hz(w.channel);
    if (listener_is_zigbee) {
      const double protected_hz =
          f_tx + core::channel_center_offset_hz(cfg.sledzig.channel);
      if (std::abs(f_listener - protected_hz) < 0.5e6) {
        // The listener sits in this transmitter's protected window:
        // the PHY-measured in-band offsets (SledZig payload 20+ dB
        // down, preamble at full power).
        const auto inband =
            coex::wifi_inband_power(cfg.sledzig, scheme, w.usrp_gain, d);
        e = {inband.payload_dbm, inband.preamble_dbm, common::Db{},
             LinkState::kLive};
      } else {
        const double ov =
            band_overlap_hz(f_tx, kWifiBandHz, f_listener, kZigbeeBandHz);
        if (ov > 0.0) {
          // Flat-PSD slice of the 20 MHz band (a full 2 MHz slice is
          // -10 dB, matching the jammer band fraction).
          const common::Dbm total = wifi_link.received_power_dbm(
              channel::wifi_tx_power_dbm(w.usrp_gain), d);
          e = {total, total, common::Db{10.0 * std::log10(ov / kWifiBandHz)},
               LinkState::kLive};
        }
      }
    } else {
      const double ov =
          band_overlap_hz(f_tx, kWifiBandHz, f_listener, kWifiBandHz);
      if (ov > 0.0) {
        const common::Dbm total = wifi_link.received_power_dbm(
            channel::wifi_tx_power_dbm(w.usrp_gain), d);
        // Co-channel: coupling is exactly 0.0 (legacy bit-exact).
        e = {total, total, common::Db{10.0 * std::log10(ov / kWifiBandHz)},
             LinkState::kLive};
      }
    }
  } else if (tx < num_nodes) {
    const auto& z = cfg.zigbee[tx - num_wifi];
    const double d = distance_m(z.tx, pos);
    const double f_tx = zigbee_node_center_hz(z.channel, cfg.sledzig);
    const double ov =
        band_overlap_hz(f_tx, kZigbeeBandHz, f_listener,
                        listener_is_zigbee ? kZigbeeBandHz : kWifiBandHz);
    if (ov > 0.0) {
      const common::Dbm total = channel::zigbee_link().received_power_dbm(
          zigbee::tx_power_dbm(z.gain), d);
      // Fraction of the 2 MHz frame inside the listener's band; a
      // fully-contained frame couples at exactly 0.0 dB (legacy).
      e = {total, total, common::Db{10.0 * std::log10(ov / kZigbeeBandHz)},
           LinkState::kLive};
    }
  } else {
    // Jammer: flat wideband burst through the WiFi link model — full
    // power at a 20 MHz listener, the band fraction at a ZigBee one,
    // whatever the listener's channel (it jams all of them).
    const auto& jm = cfg.faults.jammers[tx - num_nodes];
    const double d = distance_m(jm.pos, pos);
    const common::Dbm total = wifi_link.received_power_dbm(
        channel::wifi_tx_power_dbm(jm.usrp_gain), d);
    e = {total, total,
         listener_is_zigbee ? kJammerBandFractionDb : common::Db{},
         LinkState::kLive};
  }
  return e;
}

LinkEntry LinkCache::at(std::size_t point, std::size_t tx) const {
  const auto* row = coupled.data();
  const auto lo = row + coupled_off[point];
  const auto hi = row + coupled_off[point + 1];
  const auto it = std::lower_bound(
      lo, hi, tx, [](const CoupledLink& c, std::size_t t) { return c.tx < t; });
  if (it == hi || it->tx != tx) return LinkEntry{};  // uncoupled kZero
  return {it->payload_dbm, it->preamble_dbm, it->coupling_db, it->state};
}

std::shared_ptr<const LinkCache> LinkCache::build(const ScenarioConfig& cfg) {
  auto lc = std::make_shared<LinkCache>();
  lc->num_wifi = cfg.wifi.size();
  lc->num_nodes = cfg.wifi.size() + cfg.zigbee.size();
  lc->num_total = lc->num_nodes + cfg.faults.jammers.size();
  const std::size_t num_wifi = lc->num_wifi;
  const std::size_t num_nodes = lc->num_nodes;
  const std::size_t T = lc->num_total;
  lc->coupled_off.assign(2 * T + 1, 0);
  lc->eps_mw.assign(T, common::MilliWatt{});

  // Union-find over spectral coupling (live or pruned links both couple —
  // pruning approximates, it does not decouple), folded into the fill
  // loop below; compressed to dense component ids at the end.
  std::vector<std::uint32_t> parent(T);
  for (std::size_t n = 0; n < T; ++n) {
    parent[n] = static_cast<std::uint32_t>(n);
  }
  const auto find = [&parent](std::uint32_t a) {
    while (parent[a] != a) {
      parent[a] = parent[parent[a]];
      a = parent[a];
    }
    return a;
  };
  const auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };

  // Per-node band centres (jammers are wideband and carry none).
  std::vector<double> center_hz(num_nodes, 0.0);
  for (std::size_t w = 0; w < num_wifi; ++w) {
    center_hz[w] = wifi_node_center_hz(cfg.wifi[w].channel);
  }
  for (std::size_t z = 0; z < cfg.zigbee.size(); ++z) {
    center_hz[num_wifi + z] =
        zigbee_node_center_hz(cfg.zigbee[z].channel, cfg.sledzig);
  }

  // Prune epsilons: kPruneFloorDb under the listener's noise floor.
  // The decision below adds a 10-sigma shadowing margin on top, so a
  // pruned link stays under epsilon for any jitter draw short of a
  // ~1e-23-probability tail (the engine's table fill checks even that).
  for (std::size_t n = 0; n < T; ++n) {
    const bool is_zigbee = n >= num_wifi && n < num_nodes;
    const common::Dbm noise_dbm = is_zigbee ? channel::kNoiseFloor2MhzDbm
                                            : channel::kNoiseFloor20MhzDbm;
    lc->eps_mw[n] = common::to_mw(noise_dbm - kPruneFloorDb);
  }
  const common::Db margin_db = 10.0 * cfg.shadowing_sigma_db;

  for (std::size_t p = 0; p < 2 * T; ++p) {
    const std::size_t listener = p % T;
    const bool rx_point = p >= T;
    // Jammer pseudo-nodes transmit but never listen: their listener rows
    // stay kZero (the engine never queries them) but remain coupled — the
    // legacy fill drew jitter for them, and the stream must not move.
    if (listener >= num_nodes) {
      for (std::size_t t = 0; t < T; ++t) {
        lc->coupled.push_back({common::Dbm{}, common::Dbm{}, common::Db{},
                               static_cast<std::uint32_t>(t),
                               LinkState::kZero});
      }
      lc->coupled_off[p + 1] = static_cast<std::uint32_t>(lc->coupled.size());
      continue;
    }
    const bool listener_is_zigbee = listener >= num_wifi;
    const double f_listener = center_hz[listener];

    for (std::size_t t = 0; t < T; ++t) {
      if (t == listener && !rx_point) {
        // Own CCA point: silent, but the legacy fill drew for it.
        lc->coupled.push_back({common::Dbm{}, common::Dbm{}, common::Db{},
                               static_cast<std::uint32_t>(t),
                               LinkState::kZero});
        continue;
      }
      LinkEntry e = mean_link_entry(cfg, listener, rx_point, t,
                                    common::Hz{f_listener},
                                    cfg.sledzig_enabled);

      // Every spectrally-overlapping pair enters the compact list (and so
      // consumes a jitter draw in the per-run fill); a disjoint pair never
      // does (and never did — no legacy scenario has one).  The list is
      // built before the prune decision so pruning cannot move the stream.
      if (e.state != LinkState::kLive) continue;

      // Interference-graph decision.  A node's own receive link (its
      // signal) is never pruned — pruning is for interference edges only.
      if (!(rx_point && t == listener)) {
        const common::Dbm best_dbm =
            std::max(e.payload_dbm, e.preamble_dbm) + e.coupling_db +
            margin_db;
        const common::Dbm noise_dbm = listener_is_zigbee
                                          ? channel::kNoiseFloor2MhzDbm
                                          : channel::kNoiseFloor20MhzDbm;
        if (best_dbm < noise_dbm - kPruneFloorDb) {
          e.state = LinkState::kPruned;
        }
      }
      lc->coupled.push_back({e.payload_dbm, e.preamble_dbm, e.coupling_db,
                             static_cast<std::uint32_t>(t), e.state});
      unite(static_cast<std::uint32_t>(listener), static_cast<std::uint32_t>(t));
    }
    lc->coupled_off[p + 1] = static_cast<std::uint32_t>(lc->coupled.size());
  }

  lc->comp.assign(T, 0);
  std::vector<std::uint32_t> dense(T, UINT32_MAX);
  std::uint32_t n_comps = 0;
  for (std::size_t n = 0; n < T; ++n) {
    const std::uint32_t r = find(static_cast<std::uint32_t>(n));
    if (dense[r] == UINT32_MAX) dense[r] = n_comps++;
    lc->comp[n] = dense[r];
  }
  lc->num_comps = std::max<std::size_t>(1, n_comps);
  return lc;
}

}  // namespace sledzig::sim

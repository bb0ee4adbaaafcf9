// Sample-domain measurements on the paper's Fig 10 testbed (one WiFi link
// and one ZigBee link, SledZig on or off), plus the PHY-measured in-band
// WiFi power the discrete-event engine (src/sim) builds its link tables
// from.
//
// RSSI experiments (Figs 11-13, 17) run fully in the sample domain: real
// transmit chains, calibrated path loss, AWGN and band-power measurement.
// Throughput experiments (Figs 14-16) run on the engine
// (sim::two_node_paper_scenario), whose power tables come from
// wifi_inband_power below.
#pragma once

#include <cstddef>
#include <cstdint>

#include "channel/impairments.h"
#include "channel/medium.h"
#include "channel/pathloss.h"
#include "coex/inband.h"
#include "sledzig/significant_bits.h"

namespace sledzig::coex {

/// Scheme under test: standard WiFi payload or SledZig-encoded payload.
enum class Scheme { kNormalWifi, kSledzig };

/// In-band WiFi interference inside the protected 2 MHz channel at
/// `distance_m` from the WiFi transmitter: total received power folded
/// through the PHY-measured offsets for the payload (reduced under
/// SledZig) and the always-full-power preamble, in dBm.  The
/// discrete-event engine (src/sim) fills its link tables from this.
struct WifiInbandPower {
  common::Dbm payload_dbm{};
  common::Dbm preamble_dbm{};
};
WifiInbandPower wifi_inband_power(const core::SledzigConfig& cfg,
                                  Scheme scheme, double wifi_gain,
                                  double distance_m);

/// RSSI of a WiFi packet measured in the ZigBee channel at distance d from
/// the WiFi transmitter (Figs 11 and 12).  Sample-domain: synthesises the
/// packet, applies path loss + AWGN + lognormal shadowing, integrates the
/// 2 MHz band.
double measure_wifi_rssi_at_zigbee(const core::SledzigConfig& cfg,
                                   Scheme scheme, double wifi_gain,
                                   double distance_m, std::uint64_t seed,
                                   std::size_t forced_subcarriers = 0,
                                   const channel::ImpairmentConfig& impairment = {});

/// RSSI of a ZigBee frame at its receiver (Fig 13).
double measure_zigbee_rssi(unsigned zigbee_gain, double distance_m,
                           std::uint64_t seed,
                           const channel::ImpairmentConfig& impairment = {});

/// "2 MHz-slice" RSSI of WiFi / ZigBee signals at the WiFi receiver
/// (Fig 17).
struct WifiRxRssi {
  common::Dbm wifi_dbm{};
  common::Dbm zigbee_dbm{};
};
WifiRxRssi measure_rssi_at_wifi_rx(double wifi_gain, unsigned zigbee_gain,
                                   double distance_m, std::uint64_t seed,
                                   const channel::ImpairmentConfig& impairment = {});

/// WiFi application throughput in Mbps for a mode, with or without the
/// SledZig extra-bit overhead (Table IV's throughput-loss accounting).
double wifi_throughput_mbps(const core::SledzigConfig& cfg, Scheme scheme,
                            double duty_ratio = 1.0);

}  // namespace sledzig::coex

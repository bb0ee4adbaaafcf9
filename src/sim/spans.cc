// Chrome spans as a pure function of a recorded run (sim::render_spans).
#include <cmath>
#include <string>

#include "sim/engine.h"

namespace sledzig::sim {

obs::TraceLog render_spans(const SimResult& result) {
  obs::TraceLog log;
  const std::size_t num_wifi = result.wifi.size();
  for (std::size_t n = 0; n < num_wifi + result.zigbee.size(); ++n) {
    log.set_track_name(static_cast<std::uint32_t>(n),
                       n < num_wifi ? "wifi" + std::to_string(n)
                                    : "zigbee" + std::to_string(n - num_wifi));
  }
  const auto us = [](double t) {
    return static_cast<std::uint64_t>(std::llround(t));
  };
  for (const TraceEvent& e : result.trace) {
    const char* span = nullptr;
    const char* instant = nullptr;
    const bool on = e.aux != 0;
    switch (e.type) {
      case TraceType::kArrival: instant = "arrival"; break;
      case TraceType::kQueueDrop: instant = "queue_drop"; break;
      case TraceType::kCcaDrop: span = "csma"; instant = "cca_drop"; break;
      case TraceType::kTxStart: span = "csma"; break;
      case TraceType::kTxMuted: span = "csma"; instant = "tx_muted"; break;
      case TraceType::kTxDelivered: span = "tx"; instant = "delivered"; break;
      case TraceType::kTxLost: span = "tx"; instant = "lost"; break;
      case TraceType::kTxAborted: span = "tx"; instant = "tx_aborted"; break;
      case TraceType::kRetry: instant = "retry"; break;
      case TraceType::kNodeCrash: instant = "crash"; break;
      case TraceType::kNodeReboot: instant = "reboot"; break;
      case TraceType::kJam: instant = "jam"; break;
      case TraceType::kMute: instant = on ? "mute_on" : "mute_off"; break;
      case TraceType::kDeaf: instant = on ? "deaf_on" : "deaf_off"; break;
      case TraceType::kSurge: instant = on ? "surge_on" : "surge_off"; break;
      case TraceType::kCcaClear:
      case TraceType::kCcaBusy:
      case TraceType::kControlEpoch:
      case TraceType::kControlSledzig:
      case TraceType::kControlHop:
      case TraceType::kControlShape:
        break;
    }
    if (span != nullptr) {
      log.complete(span, e.node, us(e.since_us), us(e.time_us));
    }
    if (instant != nullptr) log.instant(instant, e.node, us(e.time_us));
  }
  return log;
}

}  // namespace sledzig::sim

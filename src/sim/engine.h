// Discrete-event multi-node coexistence engine.
//
// A ScenarioConfig goes in; a deterministic timeline of arrivals, CCAs,
// deferrals, transmissions and deliveries comes out.  The scheduler
// (src/sim/event_queue.h) advances the event-driven MAC state machines in
// src/mac; the airtime arbiter (src/sim/arbiter.h) resolves concurrent
// transmissions through the calibrated path-loss model and the
// PHY-measured in-band offsets, so CCA outcomes and capture are driven by
// actual received power — including SledZig's reduced in-band payload.
//
// Determinism contract: run_scenario is a pure function of its config
// (seed included).  Event order is fixed by the (time, sequence) queue
// key, every RNG stream is derived per node with common::derive_seed, and
// replication fan-out is index-addressed — so results are bit-identical
// across repeated runs and for any SLEDZIG_THREADS.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "obs/trace.h"
#include "sim/scenario.h"

namespace sledzig::sim {

enum class TraceType : std::uint8_t {
  kArrival = 0,   ///< traffic source delivered a frame
  kQueueDrop,     ///< FIFO full, frame discarded
  kCcaClear,      ///< ZigBee CCA found the channel idle (aux = NB)
  kCcaBusy,       ///< ZigBee CCA found the channel busy (aux = NB)
  kCcaDrop,       ///< channel-access failure after macMaxCSMABackoffs + 1
  kTxStart,       ///< frame on air
  kTxDelivered,   ///< frame evaluated clean at its receiver
  kTxLost,        ///< frame corrupted (SINR) or below sensitivity
  kRetry,         ///< frame lost, CSMA re-entered (macMaxFrameRetries)
  // Fault-injection instants (DESIGN.md §14).  Values are appended, never
  // reordered, so fault-free digests are unchanged from earlier revisions.
  kNodeCrash,     ///< node died (aux = frames lost from its queue)
  kNodeReboot,    ///< node returned cold
  kMute,          ///< TX chain toggled (aux: 1 = on, 0 = off)
  kDeaf,          ///< RX chain toggled (aux: 1 = on, 0 = off)
  kJam,           ///< jammer burst started (node = jammer pseudo-index)
  kSurge,         ///< traffic surge toggled (aux: 1 = on, 0 = off)
  kTxAborted,     ///< in-flight transmission cut short by a crash
  kTxMuted,       ///< transmit attempt swallowed by a muted TX chain
  // Control-plane instants (DESIGN.md §18).  Appended, never reordered:
  // runs without an active policy keep their pre-control digests.
  kControlEpoch,  ///< epoch boundary observed (aux = actions issued)
  kControlSledzig,///< runtime SledZig toggle (aux: 1 = engaged, 0 = off)
  kControlHop,    ///< ZigBee channel hop (aux = new 802.15.4 channel)
  kControlShape,  ///< WiFi rate shaping (aux = scale in parts per thousand)
};
/// Count of TraceType values: move it when appending an enumerator.
inline constexpr std::size_t kNumTraceTypes =
    static_cast<std::size_t>(TraceType::kControlShape) + 1;

struct TraceEvent {
  double time_us = 0.0;
  std::uint32_t node = 0;  ///< global index: WiFi nodes first, then ZigBee
  TraceType type = TraceType::kArrival;
  std::int32_t aux = 0;
  /// Start of the span this event closes (recorded, never hashed): the
  /// CSMA entry on kTxStart / kTxMuted / kCcaDrop, the air start on
  /// kTxDelivered / kTxLost / kTxAborted, 0 otherwise.
  double since_us = 0.0;
};

/// Per-node frame accounting.  Every generated frame ends in exactly one
/// terminal bucket, so the conservation identity
///
///   generated == delivered + queue_dropped + cca_dropped
///                + retry_exhausted + lost_to_crash + in_flight_at_end
///
/// holds exactly for every node in every scenario — fault plans included
/// (asserted across the whole sim suite in tests/sim_test.cc and for every
/// chaos schedule in tests/chaos_test.cc).  `sent` and `retries` count
/// *attempts*, not frames — a frame retried twice contributes 3 to `sent`
/// — so they deliberately stay outside the identity.
struct NodeStats {
  std::size_t generated = 0;  ///< frames produced by the traffic source
  std::size_t queue_dropped = 0;
  std::size_t cca_dropped = 0;
  std::size_t sent = 0;       ///< transmissions put on air (retries included)
  std::size_t delivered = 0;  ///< clean at the receiver
  std::size_t retries = 0;    ///< CSMA re-entries after a lost attempt
  /// Frames abandoned after their final permitted attempt was lost (for
  /// WiFi, which never retries, this is simply every lost frame).
  std::size_t retry_exhausted = 0;
  /// Frames destroyed by a node crash: everything queued at the instant the
  /// node died, including the frame being served (an in-flight transmission
  /// is aborted on the air and lands here, not in retry_exhausted).
  std::size_t lost_to_crash = 0;
  /// Frames still queued (or mid-service) when the horizon cut them off.
  std::size_t in_flight_at_end = 0;
  double airtime_us = 0.0;
  double airtime_fraction = 0.0;
  double prr = 0.0;              ///< delivered / sent
  double throughput_kbps = 0.0;  ///< delivered payload bits / duration
};

struct SimResult {
  std::vector<NodeStats> wifi;
  std::vector<NodeStats> zigbee;
  std::uint64_t events_processed = 0;
  /// FNV-1a over every state transition of the run.  Two runs are
  /// bit-identical iff their digests match, whether or not the full trace
  /// was recorded.
  std::uint64_t trace_digest = 0;
  std::vector<TraceEvent> trace;  ///< populated when config.record_trace
};

/// Runs one scenario to completion.
SimResult run_scenario(const ScenarioConfig& config);

/// Runs `replications` independent copies of the scenario with seeds
/// derive_seed(config.seed, rep), fanned out over the pool into
/// index-addressed slots: bit-identical for any thread count.
std::vector<SimResult> run_replications(common::ThreadPool& pool,
                                        const ScenarioConfig& config,
                                        std::size_t replications);

/// Same, over the process-wide default pool (SLEDZIG_THREADS).
std::vector<SimResult> run_replications(const ScenarioConfig& config,
                                        std::size_t replications);

/// Chrome spans of a run recorded with config.record_trace: one named track
/// per node (`wifi<i>`, `zigbee<j>`), `csma` and `tx` spans, and an instant
/// per arrival, drop, retry, delivery verdict and fault.  Timestamps are
/// virtual µs, so the log is as deterministic as the trace it reads.
obs::TraceLog render_spans(const SimResult& result);

}  // namespace sledzig::sim

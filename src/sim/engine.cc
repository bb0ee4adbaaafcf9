#include "sim/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "channel/pathloss.h"
#include "common/rng.h"
#include "common/seed_domains.h"
#include "common/units.h"
#include "control/controller.h"
#include "obs/profile.h"
#include "sim/arbiter.h"
#include "sim/delivery.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/invariants.h"
#include "sim/link_cache.h"
#include "sim/traffic.h"
#include "sledzig/encoder.h"
#include "wifi/phy_params.h"
#include "zigbee/cc2420.h"

namespace sledzig::sim {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_mix(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest = (digest ^ (value & 0xffu)) * kFnvPrime;
    value >>= 8;
  }
  return digest;
}

/// One coupled link's received power under a shadowing draw (`Link` is a
/// LinkEntry or a CoupledLink).  The coupling term is applied after the
/// jitter so legacy paths (coupling_db == 0) reproduce the pre-cache sums
/// bit-exactly.
template <class Link>
SegmentPower shadowed(const Link& e, common::Db jitter) {
  SegmentPower sp;
  sp.payload_mw = common::to_mw((e.payload_dbm + jitter) + e.coupling_db);
  sp.preamble_mw =
      e.preamble_dbm == e.payload_dbm
          ? sp.payload_mw
          : common::to_mw((e.preamble_dbm + jitter) + e.coupling_db);
  return sp;
}

/// Does a prebuilt cache have this config's dimensions?  Only the node
/// counts (and that every node has a component, which sizes the tables)
/// are checked: a cache of the right shape is used as is, so its content
/// is the caller's (see ScenarioConfig::link_cache).
bool cache_matches(const LinkCache* cache, const ScenarioConfig& cfg) {
  return cache != nullptr && cache->num_wifi == cfg.wifi.size() &&
         cache->num_nodes == cfg.wifi.size() + cfg.zigbee.size() &&
         cache->num_total ==
             cfg.wifi.size() + cfg.zigbee.size() + cfg.faults.jammers.size() &&
         cache->comp.size() == cache->num_total;
}

/// Everything one run owns.  Constructed per call, so run_scenario holds
/// no global state and replications can fan out freely.
class Engine {
 public:
  explicit Engine(const ScenarioConfig& cfg);
  SimResult run();

 private:
  /// One record per real node, at its global index (WiFi 0..W-1, then
  /// ZigBee): the state both kinds share, fault-layer state included.
  /// The MAC machine and the kind-only fields live in WifiNode /
  /// ZigbeeNode at the kind-local index; the node's config is
  /// cfg_.wifi[i] / cfg_.zigbee[j].
  struct Node {
    TrafficSource traffic;
    std::deque<double> queue;  // arrival times of queued frames
    std::uint64_t token = 0;
    bool serving = false;  // a frame is between frame_ready and completion
    double serve_start_us = 0.0;  // when the head frame (re-)entered CSMA
    NodeStats stats;
    double bits_per_frame = 0.0;
    /// Own frame's power at the node's receiver.
    common::MilliWatt signal_mw{};
    // CCA assessment tallies (ZigBee only; WiFi carrier sense is not
    // tallied), observed by the control plane as per-epoch deltas (a
    // deterministic in-engine stand-in for a busy-channel scan).
    std::uint64_t cca_busy = 0;
    std::uint64_t cca_clear = 0;

    // --- fault layer ---
    bool alive = true;
    bool muted = false;  ///< TX chain off: transmit attempts fail silently
    bool deaf = false;   ///< RX chain off: frames at this receiver are lost
    /// Arrival-chain epoch: a crash bumps it, orphaning every pending
    /// kArrival carrying the old value (mirror of the timer token).
    std::uint64_t arrival_epoch = 0;
    /// A scheduled step for this node was suppressed because it landed past
    /// the horizon — the liveness invariant's alibi for `serving` at end.
    bool horizon_cut = false;
    double drift = 1.0;    ///< timer-interval stretch (1 + drift_ppm * 1e-6)
    double surge = 1.0;    ///< traffic-rate factor of the current surge
    double skew_us = 0.0;  ///< first-arrival clock offset
    std::uint32_t active_tx = UINT32_MAX;  ///< in-flight ledger id, if any
    double airtime_us = 0.0;   ///< frame airtime, preamble included
    double preamble_us = 0.0;  ///< full-power preamble (0 for ZigBee)
  };

  struct WifiNode {
    mac::WifiCsmaMachine machine;
    /// Payload bits actually delivered, accumulated at the per-frame rate
    /// current at delivery time — the throughput source of truth when the
    /// control plane can retoggle SledZig (and the frame rate) mid-run.
    double delivered_bits = 0.0;
    /// The control plane's traffic-shaping factor (1.0 when unshaped).
    double shape_scale = 1.0;
  };

  struct ZigbeeNode {
    mac::ZigbeeCsmaMachine machine;
    common::Rng delivery_rng;
    double sensitivity_loss = 0.0;
    double p_err_idle = 0.0;           // payload shape, no interferer
    double p_err_idle_preamble = 0.0;  // preamble shape, no interferer
  };

  std::uint32_t global(std::size_t wifi_i) const {
    return static_cast<std::uint32_t>(wifi_i);
  }
  std::uint32_t global_z(std::size_t zig_j) const {
    return static_cast<std::uint32_t>(num_wifi_ + zig_j);
  }
  std::uint32_t jammer_index(std::size_t jam_k) const {
    return static_cast<std::uint32_t>(num_nodes_ + jam_k);
  }

  /// The one record point: every state transition goes through here into
  /// the digest, the per-type tallies and (when recorded) the trace.
  void trace(double t, std::uint32_t node, TraceType type,
             std::int32_t aux = 0, double since_us = 0.0);
  void push_arrival(std::uint32_t node, double t);
  void push_timer(std::uint32_t node, double t, std::uint64_t token);

  void on_arrival(std::uint32_t node, double t);
  void on_wifi_timer(std::size_t i, double t);
  void on_zigbee_timer(std::size_t j, double t);
  void on_tx_end(std::uint32_t g, std::uint32_t tx_id, double t);
  void on_fault(const FaultAction& action, double t);
  void on_control(double t);

  // --- control-plane actuation (DESIGN.md §18) ---
  void apply_sledzig(bool engage, double t);
  void apply_hop(std::size_t j, unsigned channel, double t);
  /// Recomputes one link for the current channels and scheme, re-applying
  /// the pair's stored shadowing jitter — bit-identical to what the
  /// constructor fill would have produced for the same spectrum picture.
  void retune_pair(std::size_t point, std::size_t tx);
  void rebuild_adjacency();
  /// Node g's symbol error probability under `interference`.
  double zig_symbol_perr(std::uint32_t g, common::MilliWatt interference,
                         bool preamble) const;
  /// Mote j's own-link budget and its whole perr_ row, from the current
  /// receiver-point powers.
  void refresh_mote(std::size_t j);
  /// The one writer of perr_: mote j's symbol error probabilities against
  /// transmitter t.
  void set_perr(std::size_t j, std::size_t t);

  void crash_node(std::uint32_t g, double t);
  void reboot_node(std::uint32_t g, double t);
  void start_jam_burst(std::size_t jam_k, double t, double len_us);

  void apply_wifi_step(std::size_t i, mac::WifiCsmaMachine::Step step,
                       double now);
  void apply_zigbee_step(std::size_t j, mac::ZigbeeCsmaMachine::Step step,
                         double now);
  void serve_next(std::uint32_t node, double t);
  /// The head frame is terminal (delivered, lost or dropped): dequeue it
  /// and serve the next.
  void finish_frame(std::uint32_t g, double t);
  /// Puts node g's head frame on the air (muted: ends the attempt at once).
  void start_tx(std::uint32_t g, double now);
  /// WiFi's frame is terminal; ZigBee's retries or finishes.
  void attempt_over(std::uint32_t g, double t, bool delivered);
  void notify_busy(std::uint32_t tx_node, double now);
  void notify_idle(double now);

  /// WiFi node i's payload bits per frame, with or without SledZig's
  /// extra bits: the frame keeps its airtime, so SledZig trades bits.
  double wifi_frame_bits(std::size_t i, bool sledzig) const;
  bool wifi_frame_delivered(std::size_t i, const Transmission& tx) const;
  bool zigbee_frame_delivered(std::size_t j, const Transmission& tx);

  /// A node's own-clock mapping of an absolute step time: the interval the
  /// MAC asked for, stretched by the node's drift factor.  A drifting
  /// node's timer fires late, so the MAC can re-arm a step already due
  /// (say, a countdown at its deferral end): that one fires now, never in
  /// the past.
  double warp(std::uint32_t g, double now, double at) const {
    const double d = nodes_[g].drift;
    return d == 1.0 ? at : now + std::max(0.0, at - now) * d;
  }

  ScenarioConfig cfg_;
  double duration_us_;
  std::size_t num_wifi_;
  std::size_t num_zigbee_;
  std::size_t num_nodes_;
  std::size_t num_jammers_;
  std::size_t num_total_;  // nodes + jammer pseudo-nodes (power-table dim)
  std::vector<Node> nodes_;  // per real node, by global index
  std::vector<WifiNode> wifi_;
  std::vector<ZigbeeNode> zigbee_;
  std::vector<FaultSource> faults_;  // one pending action each
  /// {payload, preamble segment} symbol error probability per (mote, tx)
  /// pair: one row per mote, shaped like its receiver-point row (its
  /// component's transmitters by local id), starting at perr_row_[j].
  /// With one component this is the M x T layout.
  std::vector<double> perr_;
  std::vector<std::size_t> perr_row_;
  common::MilliWatt noise20_mw_;
  common::MilliWatt noise2_mw_;
  common::Db impair_penalty_db_;
  Arbiter arbiter_;
  EventQueue queue_;
  std::vector<std::uint32_t> adj_;      // CSR: audible wifi listeners per tx
  std::vector<std::uint32_t> adj_off_;  // num_total + 1 offsets into adj_
  std::vector<RelevantTx> rel_;         // delivery scratch: staged interferers
  DeliveryScratch delivery_scratch_;    // delivery scratch: segments
  SimInvariants inv_;
  std::uint64_t digest_ = kFnvOffset;
  std::uint64_t events_ = 0;
  // Per-run tallies, flushed to cfg_.metrics once at the end of run() so
  // the event loop never touches the registry.
  std::array<std::uint64_t, kNumEventTypes> event_counts_{};
  std::array<std::uint64_t, kNumTraceTypes> trace_counts_{};
  std::uint64_t stale_timers_ = 0;
  std::uint64_t stale_arrivals_ = 0;
  std::vector<TraceEvent> trace_;

  // --- control plane (DESIGN.md §18), inert unless cfg.control.active() ---
  bool control_active_ = false;
  bool sledzig_on_ = false;  ///< runtime scheme (starts at cfg.sledzig_enabled)
  std::unique_ptr<control::Controller> controller_;
  std::uint64_t control_epoch_ = 0;
  /// Per real node: the epoch's observation, and the cumulative counters
  /// at the previous boundary it is the delta against.
  std::vector<control::NodeObservation> obs_;
  std::vector<control::NodeObservation> obs_base_;
  /// Current band centre per real node (hops update it); only filled when
  /// the control plane is active.
  std::vector<double> center_hz_;
  /// Stored shadowing jitter per (point, tx) pair, laid out like the
  /// arbiter's power table, so a retuned entry re-applies the exact draw
  /// the constructor fill consumed.  Hops overwrite affected pairs with the
  /// pure-function kControl draw.  Only allocated when a policy can retune
  /// (SledZig toggle / channel hop).
  std::vector<double> jitter_db_;
  std::uint64_t control_actions_ = 0;

  void flush_metrics() const;
};

Engine::Engine(const ScenarioConfig& cfg)
    : cfg_(cfg),
      duration_us_(cfg.duration_s * 1e6),
      num_wifi_(cfg.wifi.size()),
      num_zigbee_(cfg.zigbee.size()),
      num_nodes_(num_wifi_ + num_zigbee_),
      num_jammers_(cfg.faults.jammers.size()),
      num_total_(num_nodes_ + num_jammers_),
      noise20_mw_(common::to_mw(channel::kNoiseFloor20MhzDbm)),
      noise2_mw_(common::to_mw(channel::kNoiseFloor2MhzDbm)),
      impair_penalty_db_(cfg.impairment.snr_penalty_db()),
      arbiter_(ArbiterTables{}, 0.0),
      inv_(cfg.invariants, cfg.seed) {
  if (!(cfg_.duration_s > 0.0)) {
    throw std::invalid_argument("ScenarioConfig: duration_s must be > 0");
  }
  if (cfg_.queue_capacity < 1) {
    throw std::invalid_argument("ScenarioConfig: queue_capacity must be >= 1");
  }

  // --- nodes, their machines and RNG streams (all index-derived) ---
  nodes_.reserve(num_nodes_);
  wifi_.reserve(num_wifi_);
  for (std::size_t i = 0; i < num_wifi_; ++i) {
    const auto& nc = cfg_.wifi[i];
    const std::uint64_t g = global(i);
    const double burst = nc.mac.preamble_us + nc.mac.airtime_us;
    const double csma_gap =
        nc.mac.difs_us +
        nc.mac.slot_us * static_cast<double>(nc.mac.cw - 1) / 2.0;
    nodes_.push_back(Node{
        .traffic = TrafficSource(nc.traffic, burst, csma_gap,
                                 common::derive_seed(cfg_.seed, 4 * g + 2)),
        .bits_per_frame = wifi_frame_bits(i, cfg_.sledzig_enabled),
        .airtime_us = burst,
        .preamble_us = nc.mac.preamble_us});
    wifi_.push_back(WifiNode{
        mac::WifiCsmaMachine(nc.mac, common::derive_seed(cfg_.seed, 4 * g))});
  }
  zigbee_.reserve(num_zigbee_);
  for (std::size_t j = 0; j < num_zigbee_; ++j) {
    const auto& nc = cfg_.zigbee[j];
    const std::uint64_t g = global_z(j);
    const double airtime = mac::zigbee_frame_airtime_us(nc.mac.payload_octets);
    nodes_.push_back(Node{
        .traffic = TrafficSource(nc.traffic, airtime, 0.0,
                                 common::derive_seed(cfg_.seed, 4 * g + 2)),
        .bits_per_frame = static_cast<double>(nc.mac.payload_octets) * 8.0,
        .airtime_us = airtime});
    zigbee_.push_back(ZigbeeNode{
        mac::ZigbeeCsmaMachine(nc.mac, common::derive_seed(cfg_.seed, 4 * g)),
        common::Rng(common::derive_seed(cfg_.seed, 4 * g + 1))});
  }

  // --- fault layer: clocks and the fault processes ---
  for (std::size_t n = 0;
       n < std::min(cfg_.faults.clocks.size(), num_nodes_); ++n) {
    nodes_[n].skew_us = cfg_.faults.clocks[n].skew_us;
    nodes_[n].drift = 1.0 + cfg_.faults.clocks[n].drift_ppm * 1e-6;
  }
  if (cfg_.faults.any()) {
    faults_ = fault_sources(cfg_.faults, cfg_.seed, duration_us_, num_nodes_);
  }

  // --- control plane: observation buffers, jitter capture, contexts ---
  // All of it is inert (nothing allocated, no branch taken anywhere on the
  // hot path) unless a policy is enabled, so legacy runs keep their exact
  // event streams and digests.
  control_active_ = cfg_.control.active();
  sledzig_on_ = cfg_.sledzig_enabled;
  const bool needs_retune =
      control_active_ &&
      (cfg_.control.sledzig.enabled || cfg_.control.hop.enabled);
  if (control_active_) {
    obs_.assign(num_nodes_, control::NodeObservation{});
    obs_base_.assign(num_nodes_, control::NodeObservation{});
    center_hz_.assign(num_nodes_, 0.0);
    for (std::size_t w = 0; w < num_wifi_; ++w) {
      center_hz_[w] = wifi_node_center_hz(cfg_.wifi[w].channel);
    }
    for (std::size_t j = 0; j < num_zigbee_; ++j) {
      center_hz_[num_wifi_ + j] =
          zigbee_node_center_hz(cfg_.zigbee[j].channel, cfg_.sledzig);
    }
  }

  // --- power tables: every transmitter heard at every listening point ---
  // Point p in [0, T) is entry p's transmitter position (CCA); point T + p
  // is its receiver position (delivery), where T = nodes + jammers (a
  // jammer is a pseudo-node: it transmits through the same tables but
  // never listens).  The mean powers come from the scenario's LinkCache
  // (shared across replications); this run only adds its lognormal
  // shadowing draw — one per spectrally-coupled (point, transmitter) path,
  // in fixed iteration order, drawn even for self-CCA and pruned entries
  // so the RNG stream (and therefore every digest) is independent of the
  // interference graph and bit-exact with the legacy fill on every
  // single-channel scenario (where all pairs are coupled).
  const std::shared_ptr<const LinkCache> cache =
      cache_matches(cfg_.link_cache.get(), cfg_) ? cfg_.link_cache
                                                 : LinkCache::build(cfg_);
  common::Rng jitter_rng(
      common::derive_seed(cfg_.seed, 4 * num_nodes_ + 3));
  // One table block per coupling component (DESIGN.md §15).  A runtime
  // channel hop can couple nodes across the cache's static components, so
  // a hop-armed run keeps every node in one component: one block and one
  // global ledger (cross-component power is 0 mW, so splitting changes
  // where values live and which entries a scan visits, never a result).
  ArbiterTables tables = control_active_ && cfg_.control.hop.enabled
                             ? ArbiterTables(num_total_)
                             : ArbiterTables(cache->comp);
  // Retuning policies replay the fill's exact draws, stored like `power`.
  if (needs_retune) jitter_db_.assign(tables.power.size(), 0.0);
  for (std::size_t n = 0; n < num_total_; ++n) {
    const bool is_zigbee = n >= num_wifi_ && n < num_nodes_;
    tables.cca_noise_mw[n] = common::to_mw(
        is_zigbee ? channel::kNoiseFloor2MhzDbm : channel::kNoiseFloor20MhzDbm);
    tables.cca_threshold_dbm[n] = is_zigbee ? channel::kZigbeeCcaThresholdDbm
                                            : channel::kWifiCcaThresholdDbm;
  }
  // Walk the cache's compact coupled-pair rows: only spectrally-coupled
  // pairs consume a draw — which is every pair in a single-channel
  // (legacy) scenario, so those streams are untouched; disjoint-band pairs
  // skip both the scan and the (dominant, at 1000 nodes) gaussian cost.
  // Pruned pairs still draw: the stream is invariant to the interference
  // graph.
  for (std::size_t p = 0; p < 2 * num_total_; ++p) {
    for (std::size_t k = cache->coupled_off[p]; k < cache->coupled_off[p + 1];
         ++k) {
      const CoupledLink& e = cache->coupled[k];
      const common::Db jitter{
          jitter_rng.gaussian(cfg_.shadowing_sigma_db.value())};
      // Retuning policies replay the exact draw later, so capture it.  A
      // pair across components is never retuned.
      if (!jitter_db_.empty() && tables.stored(p, e.tx)) {
        jitter_db_[tables.power_slot(p, e.tx)] = jitter.value();
      }
      if (e.state == LinkState::kLive) {
        tables.set_link(p, e.tx, shadowed(e, jitter));
      } else if (e.state == LinkState::kPruned) {
        // Zeroing a pruned link is sound only while its drawn power stays
        // under the listener's prune epsilon, where it could never have
        // moved a SINR or a CCA decision.
        const SegmentPower sp = shadowed(e, jitter);
        if (std::max(sp.payload_mw, sp.preamble_mw) >
            cache->eps_mw[p % num_total_]) {
          throw std::logic_error(
              "pruned link above the prune epsilon at listening point " +
              std::to_string(p) + " (tx " + std::to_string(e.tx) + ")");
        }
      }
      // kZero and kPruned: the table entry stays exactly 0 mW — inert in
      // CCA energy sums and unable to win a strict-> worst-interferer.
    }
  }
  double max_cca_us = 0.0;
  for (const auto& z : cfg_.zigbee) {
    max_cca_us = std::max(max_cca_us, z.mac.cca_us);
  }
  arbiter_ = Arbiter(std::move(tables), max_cca_us);

  // --- notify adjacency: the audible WiFi listeners of each transmitter ---
  rebuild_adjacency();

  // --- own-link budgets and cached per-interferer symbol error probs ---
  for (std::size_t i = 0; i < num_wifi_; ++i) {
    nodes_[i].signal_mw = arbiter_.rx_power(global(i), global(i)).payload_mw;
  }
  // Motes in component order; a component's members ascend, so its motes
  // follow its WiFi members and precede its jammers.
  perr_row_.resize(num_zigbee_);
  std::size_t perr_pairs = 0;
  for (std::size_t c = 0; c < arbiter_.tables().blocks.size(); ++c) {
    const auto members = arbiter_.tables().component(c);
    for (const std::uint32_t g : members) {
      if (g < num_wifi_ || g >= num_nodes_) continue;
      perr_row_[g - num_wifi_] = perr_pairs;
      perr_pairs += members.size();
    }
  }
  perr_.assign(2 * perr_pairs, 0.0);
  for (std::size_t j = 0; j < num_zigbee_; ++j) refresh_mote(j);

  // --- the decision layer, with per-mote static context ---
  if (control_active_) {
    std::vector<control::ZigbeeNodeContext> ctx(num_zigbee_);
    // Every overlap window of every BSS is a potential hop target.
    std::vector<unsigned> all_windows;
    for (const auto& w : cfg_.wifi) {
      for (const auto win : core::kAllOverlapChannels) {
        all_windows.push_back(overlapping_zigbee_channel(w.channel, win));
      }
    }
    std::sort(all_windows.begin(), all_windows.end());
    all_windows.erase(std::unique(all_windows.begin(), all_windows.end()),
                      all_windows.end());
    for (std::size_t j = 0; j < num_zigbee_; ++j) {
      const std::size_t g = global_z(j);
      // Which overlap window (of any BSS) does the mote sit in?  First
      // match in (wifi index, window index) order — deterministic.
      for (std::size_t w = 0; w < num_wifi_ && ctx[j].overlap < 0; ++w) {
        const double base = wifi_node_center_hz(cfg_.wifi[w].channel);
        for (std::size_t win = 0; win < core::kAllOverlapChannels.size();
             ++win) {
          const double f =
              base + core::channel_center_offset_hz(
                         static_cast<core::OverlapChannel>(win));
          if (std::abs(center_hz_[g] - f) < 0.5e6) {
            ctx[j].overlap = static_cast<int>(win);
            break;
          }
        }
      }
      // Hop candidates: every window except the mote's own band, ranked
      // by the static WiFi interference it would hear there (mean link
      // power, no jitter — pure per config), quietest first.
      std::vector<std::pair<double, unsigned>> ranked;
      for (const unsigned c : all_windows) {
        const double f = zigbee_node_center_hz(c, cfg_.sledzig);
        if (std::abs(f - center_hz_[g]) < 0.5e6) continue;
        double cost = 0.0;
        for (std::size_t t = 0; t < num_wifi_; ++t) {
          const LinkEntry e = mean_link_entry(cfg_, g, true, t, common::Hz{f},
                                              cfg_.sledzig_enabled);
          if (e.state == LinkState::kLive) {
            cost += common::to_mw(e.payload_dbm + e.coupling_db).value();
          }
        }
        ranked.emplace_back(cost, c);
      }
      std::sort(ranked.begin(), ranked.end());
      ctx[j].candidates.reserve(ranked.size());
      for (const auto& [cost, c] : ranked) ctx[j].candidates.push_back(c);
    }
    controller_ = std::make_unique<control::Controller>(
        cfg_.control, std::move(ctx), num_wifi_, sledzig_on_);
  }
}

void Engine::trace(double t, std::uint32_t node, TraceType type,
                   std::int32_t aux, double since_us) {
  // since_us is recorded but not hashed: digests cover (t, node, type, aux).
  digest_ = fnv_mix(digest_, std::bit_cast<std::uint64_t>(t));
  digest_ = fnv_mix(digest_,
                    (static_cast<std::uint64_t>(node) << 40) |
                        (static_cast<std::uint64_t>(type) << 32) |
                        static_cast<std::uint32_t>(aux));
  ++trace_counts_[static_cast<std::size_t>(type)];
  if (cfg_.record_trace) {
    trace_.push_back(TraceEvent{t, node, type, aux, since_us});
  }
}

void Engine::push_arrival(std::uint32_t node, double t) {
  // The arrival carries the node's current epoch; a crash bumps the epoch,
  // so the whole pending chain goes stale at once.
  if (t < duration_us_) {
    queue_.push(t, EventType::kArrival, node, nodes_[node].arrival_epoch);
  }
}

// lint: allow(token-lifecycle): the single funnel for timer arming; every
// caller passes the node's live token and cancellation happens by epoch
// bump (the stale event is dropped at pop), not by queue removal.
void Engine::push_timer(std::uint32_t node, double t, std::uint64_t token) {
  if (t < duration_us_) {
    queue_.push(t, EventType::kTimer, node, token);
  } else {
    // The node's next MAC step lands past the horizon: remember that the
    // run (not a bug) cut it off, for the end-of-run liveness check.
    nodes_[node].horizon_cut = true;
  }
}

void Engine::apply_wifi_step(std::size_t i, mac::WifiCsmaMachine::Step step,
                             double now) {
  using Kind = mac::WifiCsmaMachine::Step::Kind;
  const std::uint32_t g = global(i);
  switch (step.kind) {
    case Kind::kNone:
      break;
    case Kind::kTimerAt:
      push_timer(g, warp(g, now, step.at), nodes_[g].token);
      break;
    case Kind::kTransmit:
      start_tx(g, now);
      break;
  }
}

void Engine::apply_zigbee_step(std::size_t j,
                               mac::ZigbeeCsmaMachine::Step step,
                               double now) {
  using Kind = mac::ZigbeeCsmaMachine::Step::Kind;
  const std::uint32_t g = global_z(j);
  auto& n = nodes_[g];
  switch (step.kind) {
    case Kind::kNone:
      break;
    case Kind::kCcaEndAt:
    case Kind::kTxStartAt:
      push_timer(g, warp(g, now, step.at), n.token);
      break;
    case Kind::kDropCca:
      ++n.stats.cca_dropped;
      trace(now, g, TraceType::kCcaDrop,
            static_cast<std::int32_t>(zigbee_[j].machine.backoffs()),
            n.serve_start_us);
      finish_frame(g, now);
      break;
  }
}

void Engine::serve_next(std::uint32_t node, double t) {
  auto& n = nodes_[node];
  if (!n.alive) return;  // a dead node schedules nothing
  if (!n.queue.empty()) {
    n.serving = true;
    n.serve_start_us = t;
    ++n.token;
    if (node < num_wifi_) {
      apply_wifi_step(
          node, wifi_[node].machine.frame_ready(t, arbiter_.busy_at(node, t)),
          t);
    } else {
      const std::size_t j = node - num_wifi_;
      apply_zigbee_step(j, zigbee_[j].machine.frame_ready(t), t);
    }
  } else if (n.traffic.completion_clocked()) {
    push_arrival(node, n.traffic.next_after(t));
  }
}

void Engine::finish_frame(std::uint32_t g, double t) {
  auto& n = nodes_[g];
  n.queue.pop_front();
  n.serving = false;
  serve_next(g, t);
}

void Engine::on_arrival(std::uint32_t node, double t) {
  auto& n = nodes_[node];
  ++n.stats.generated;
  trace(t, node, TraceType::kArrival);
  if (!n.traffic.completion_clocked()) {
    push_arrival(node, n.traffic.next_after(t));
  }
  if (n.queue.size() >= cfg_.queue_capacity) {
    ++n.stats.queue_dropped;
    trace(t, node, TraceType::kQueueDrop);
    return;
  }
  n.queue.push_back(t);
  if (inv_.enabled()) {
    inv_.on_queue_depth(node, n.queue.size(), cfg_.queue_capacity, t);
  }
  if (!n.serving) serve_next(node, t);
}

void Engine::on_wifi_timer(std::size_t i, double t) {
  ++nodes_[global(i)].token;
  apply_wifi_step(i, wifi_[i].machine.timer_fired(t), t);
}

void Engine::on_zigbee_timer(std::size_t j, double t) {
  auto& z = zigbee_[j];
  const std::uint32_t g = global_z(j);
  auto& n = nodes_[g];
  switch (z.machine.awaiting()) {
    case mac::ZigbeeCsmaMachine::Awaiting::kCca: {
      const bool busy =
          arbiter_.zigbee_cca_busy(g, t - cfg_.zigbee[j].mac.cca_us, t);
      if (busy) {
        ++n.cca_busy;
      } else {
        ++n.cca_clear;
      }
      trace(t, g, busy ? TraceType::kCcaBusy : TraceType::kCcaClear,
            static_cast<std::int32_t>(z.machine.backoffs()));
      ++n.token;
      apply_zigbee_step(j, z.machine.cca_result(t, busy), t);
      break;
    }
    case mac::ZigbeeCsmaMachine::Awaiting::kTxStart:
      ++n.token;
      start_tx(g, t);
      break;
    case mac::ZigbeeCsmaMachine::Awaiting::kNone:
      break;  // unreachable with valid tokens
  }
}

void Engine::start_tx(std::uint32_t g, double now) {
  auto& n = nodes_[g];
  if (g >= num_wifi_) zigbee_[g - num_wifi_].machine.tx_started();
  ++n.stats.sent;
  if (n.muted) {
    // TX chain is off: no energy leaves the node and no ACK will come.  The
    // attempt is over, undelivered: terminal for WiFi, which never retries;
    // ZigBee's macMaxFrameRetries still applies (a muted window shorter
    // than the retry budget only delays the frame).
    trace(now, g, TraceType::kTxMuted, 0, n.serve_start_us);
    attempt_over(g, now, false);
    return;
  }
  n.stats.airtime_us += n.airtime_us;
  trace(now, g, TraceType::kTxStart, 0, n.serve_start_us);
  n.active_tx = arbiter_.begin_tx(g, now, now + n.preamble_us,
                                  now + n.airtime_us);
  queue_.push(now + n.airtime_us, EventType::kTxEnd, g, 0, n.active_tx);
  notify_busy(g, now);
}

void Engine::attempt_over(std::uint32_t g, double t, bool delivered) {
  auto& n = nodes_[g];
  ++n.token;
  if (g < num_wifi_) {
    // WiFi never retries, so a lost frame is terminal: it exhausted its
    // zero permitted retries.  Without this bucket, lost WiFi frames
    // vanished from the per-node accounting entirely.
    if (delivered) {
      wifi_[g].delivered_bits += n.bits_per_frame;
    } else {
      ++n.stats.retry_exhausted;
    }
    wifi_[g].machine.tx_done();
    finish_frame(g, t);
    return;
  }
  const std::size_t j = g - num_wifi_;
  auto& z = zigbee_[j];
  const auto step = z.machine.tx_done(t, delivered);
  if (step.kind != mac::ZigbeeCsmaMachine::Step::Kind::kNone) {
    // Lost with retries left: the frame stays at the queue front and
    // re-enters CSMA — count the retry once, here only (`sent` picks up
    // the extra attempt when it actually reaches the air).
    ++n.stats.retries;
    n.serve_start_us = t;
    trace(t, g, TraceType::kRetry,
          static_cast<std::int32_t>(z.machine.retries_left()));
    apply_zigbee_step(j, step, t);
  } else {
    // Terminal: delivered, or lost with macMaxFrameRetries exhausted.
    if (!delivered) ++n.stats.retry_exhausted;
    finish_frame(g, t);
  }
}

void Engine::notify_busy(std::uint32_t tx_node, double now) {
  // Only WiFi nodes carrier-sense between their own transmissions;
  // unslotted 802.15.4 is oblivious outside its CCA windows.  The
  // adjacency list holds exactly the audible listeners, in the ascending
  // order the old all-pairs loop visited them, so this is O(degree).
  const auto lo = adj_off_[tx_node];
  const auto hi = adj_off_[tx_node + 1];
  for (auto a = lo; a < hi; ++a) {
    const std::size_t w = adj_[a];
    if (!nodes_[w].alive) continue;
    ++nodes_[w].token;
    apply_wifi_step(w, wifi_[w].machine.medium_busy(now), now);
  }
}

void Engine::notify_idle(double now) {
  for (std::size_t w = 0; w < num_wifi_; ++w) {
    // In kIdle and kTx medium_idle() is a stateless no-op and no valid
    // timer is pending (every path into those states bumps the token), so
    // skipping non-waiting machines skips only an unobservable token bump
    // — the busy_at scan runs just for the few nodes actually deferring.
    if (!wifi_[w].machine.waiting()) continue;
    const auto g = global(w);
    if (!nodes_[g].alive || arbiter_.busy_at(g, now)) continue;
    ++nodes_[g].token;
    apply_wifi_step(w, wifi_[w].machine.medium_idle(now), now);
  }
}

double Engine::wifi_frame_bits(std::size_t i, bool sledzig) const {
  double bits = static_cast<double>(wifi::data_bits_per_symbol(
                    cfg_.sledzig.modulation, cfg_.sledzig.rate)) *
                (cfg_.wifi[i].mac.airtime_us / wifi::kSymbolDurationUs);
  if (sledzig) bits *= 1.0 - core::throughput_loss(cfg_.sledzig);
  return bits;
}

bool Engine::wifi_frame_delivered(std::size_t i, const Transmission& tx) const {
  const std::uint32_t g = global(i);
  const auto& n = nodes_[g];
  // A deaf station cannot decode anything, interference or not.
  if (n.deaf) return false;
  const LinkRow row = arbiter_.rx_row(g);
  for (const Transmission& x :
       arbiter_.overlapping(g, tx.start_us, tx.end_us)) {
    // An entry that ended by the frame's start (the ledger scan looks back
    // by the longest duration seen) overlaps neither segment, and a
    // zero-power link can only yield worst_mw <= 0.0 below: skip both
    // without the (cache-cold at campus scale) table read.
    if (x.end_us <= tx.start_us || x.node == g) continue;
    if (!row.nonzero(x.local)) continue;
    const SegmentPower& sp = row.power[x.local];
    const bool pre_overlap =
        std::min(tx.end_us, x.payload_start_us) >
        std::max(tx.start_us, x.start_us);
    const bool pay_overlap =
        std::min(tx.end_us, x.end_us) > std::max(tx.start_us, x.payload_start_us);
    const common::MilliWatt worst_mw =
        std::max(pre_overlap ? sp.preamble_mw : common::MilliWatt{},
                 pay_overlap ? sp.payload_mw : common::MilliWatt{});
    if (worst_mw <= common::MilliWatt{}) continue;
    const common::Db sinr_db =
        common::ratio_to_db(n.signal_mw / (worst_mw + noise20_mw_));
    if (sinr_db < cfg_.wifi_capture_sinr_db) return false;
  }
  return true;
}

bool Engine::zigbee_frame_delivered(std::size_t j, const Transmission& tx) {
  auto& z = zigbee_[j];
  const std::uint32_t g = global_z(j);
  // A deaf receiver loses the frame outright (and draws nothing from the
  // delivery stream — faults only perturb what they touch).
  if (nodes_[g].deaf) return false;
  // Frame-level sensitivity cliff (CC2420 practical sensitivity).
  if (z.delivery_rng.uniform() < z.sensitivity_loss) return false;

  // Stage the interferers in ledger (start-time) order.  Zero-power
  // entries (pruned or channel-disjoint interferers, which the table holds
  // as exactly 0 mW) can never win the strict-> comparison, and entries
  // that ended by the frame's start overlap no symbol; dropping both up
  // front is what makes the scan O(degree).  The end test and the bit
  // index answer before the power table or perr_ is touched.
  rel_.clear();
  const LinkRow row = arbiter_.rx_row(g);
  const double* perr = &perr_[2 * perr_row_[j]];
  for (const Transmission& x :
       arbiter_.overlapping(g, tx.start_us, tx.end_us)) {
    if (x.end_us <= tx.start_us || x.node == g) continue;
    if (!row.nonzero(x.local)) continue;
    const SegmentPower& sp = row.power[x.local];
    const double* p = perr + 2 * x.local;
    rel_.push_back({x.start_us, x.payload_start_us, x.end_us, sp.preamble_mw,
                    sp.payload_mw, p[1], p[0]});
  }
  return zigbee_symbols_survive({tx.start_us, tx.end_us, z.p_err_idle}, rel_,
                                delivery_scratch_, z.delivery_rng);
}

void Engine::on_tx_end(std::uint32_t g, std::uint32_t tx_id, double t) {
  if (g >= num_nodes_) {
    // Burst over; no stats — jammers have no frames, only energy, and
    // never crash, so this is never stale.
    notify_idle(t);
    return;
  }
  auto& n = nodes_[g];
  // Stale: a crash aborted the emission and cleared active_tx.
  if (tx_id != n.active_tx) return;
  n.active_tx = UINT32_MAX;
  // A copy: begin_tx, reachable below, invalidates ledger references.
  const Transmission tx = arbiter_.tx(g, tx_id);
  const bool ok = g < num_wifi_ ? wifi_frame_delivered(g, tx)
                                : zigbee_frame_delivered(g - num_wifi_, tx);
  if (ok) ++n.stats.delivered;
  trace(t, g, ok ? TraceType::kTxDelivered : TraceType::kTxLost, 0,
        tx.start_us);
  attempt_over(g, t, ok);
  notify_idle(t);
}

void Engine::crash_node(std::uint32_t g, double t) {
  auto& n = nodes_[g];
  if (!n.alive) return;  // overlapping crash windows: already dead
  n.alive = false;

  // Abort any in-flight emission: the carrier drops dead at t, the airtime
  // that never flew is refunded, and clearing active_tx makes the queued
  // kTxEnd stale.
  const bool aborted = n.active_tx != UINT32_MAX;
  if (aborted) {
    const Transmission tx = arbiter_.tx(g, n.active_tx);
    arbiter_.abort_tx(g, n.active_tx, t);
    trace(t, g, TraceType::kTxAborted, 0, tx.start_us);
    n.stats.airtime_us -= std::max(0.0, tx.end_us - std::max(tx.start_us, t));
    n.active_tx = UINT32_MAX;
  }

  // Queue state is volatile: every held frame dies with the node.  The
  // head frame stays at the queue front until terminal, so this also
  // accounts the frame that was mid-CSMA or mid-air.
  n.stats.lost_to_crash += n.queue.size();
  trace(t, g, TraceType::kNodeCrash,
        static_cast<std::int32_t>(n.queue.size()));
  n.queue.clear();
  n.serving = false;
  ++n.token;  // cancel pending MAC timers
  if (g < num_wifi_) {
    wifi_[g].machine.reset();
  } else {
    zigbee_[g - num_wifi_].machine.reset();
  }
  ++n.arrival_epoch;  // orphan the pending arrival chain
  // Our aborted emission may have been what kept the others deferring.
  if (aborted) notify_idle(t);
}

void Engine::reboot_node(std::uint32_t g, double t) {
  auto& n = nodes_[g];
  if (n.alive) return;  // duplicate recovery: already up
  n.alive = true;
  trace(t, g, TraceType::kNodeReboot);
  // Cold MAC (reset at crash time) and a fresh arrival chain under the
  // current epoch — the pre-crash chain stays orphaned.
  push_arrival(g, n.traffic.next_after(t));
}

void Engine::start_jam_burst(std::size_t jam_k, double t, double len_us) {
  const std::uint32_t g = jammer_index(jam_k);
  trace(t, g, TraceType::kJam);
  // The burst is an ordinary ledger entry: CCA, WiFi deferral and
  // per-symbol delivery all see its energy through the same power tables
  // as a real transmitter.
  const std::uint32_t tx_id = arbiter_.begin_tx(g, t, t, t + len_us);
  queue_.push(t + len_us, EventType::kTxEnd, g, 0, tx_id);
  notify_busy(g, t);
}

void Engine::on_fault(const FaultAction& a, double t) {
  switch (a.kind) {
    case FaultKind::kCrash:
      crash_node(a.node, t);
      break;
    case FaultKind::kReboot:
      reboot_node(a.node, t);
      break;
    case FaultKind::kMuteOn:
    case FaultKind::kMuteOff: {
      const bool on = a.kind == FaultKind::kMuteOn;
      if (nodes_[a.node].muted != on) {
        nodes_[a.node].muted = on;
        trace(t, a.node, TraceType::kMute, on ? 1 : 0);
      }
      break;
    }
    case FaultKind::kDeafOn:
    case FaultKind::kDeafOff: {
      const bool on = a.kind == FaultKind::kDeafOn;
      if (nodes_[a.node].deaf != on) {
        nodes_[a.node].deaf = on;
        trace(t, a.node, TraceType::kDeaf, on ? 1 : 0);
      }
      break;
    }
    case FaultKind::kJamOn:
      start_jam_burst(a.node, t, a.magnitude);
      break;
    case FaultKind::kSurgeOn:
    case FaultKind::kSurgeOff: {
      const bool on = a.kind == FaultKind::kSurgeOn;
      auto& n = nodes_[a.node];
      // Compose with the control plane's shaping factor (the two layers
      // must not clobber each other; x * 1.0 is exact).
      n.surge = on ? a.magnitude : 1.0;
      const double shape =
          a.node < num_wifi_ ? wifi_[a.node].shape_scale : 1.0;
      n.traffic.set_rate_scale(n.surge * shape);
      trace(t, a.node, TraceType::kSurge, on ? 1 : 0);
      break;
    }
  }
}

void Engine::rebuild_adjacency() {
  // CSR lists in ascending listener order, exactly the order the old
  // all-pairs notify_busy loop visited, so skipping inaudible listeners
  // changes nothing but the iteration count.  Listeners in other
  // components are inaudible (0 mW), and a component's members ascend, so
  // its WiFi members (global ids below num_wifi_) come first.
  const ArbiterTables& tables = arbiter_.tables();
  adj_.clear();
  adj_off_.assign(num_total_ + 1, 0);
  for (std::size_t t = 0; t < num_total_; ++t) {
    for (const std::uint32_t w : tables.component(tables.comp[t])) {
      if (w >= num_wifi_) break;
      if (w == t) continue;  // audible(w, w) is 0 anyway
      if (arbiter_.audible(w, static_cast<std::uint32_t>(t))) {
        adj_.push_back(w);
      }
    }
    adj_off_[t + 1] = static_cast<std::uint32_t>(adj_.size());
  }
}

double Engine::zig_symbol_perr(std::uint32_t g, common::MilliWatt interference,
                               bool preamble) const {
  const common::Db sinr_db =
      common::ratio_to_db(nodes_[g].signal_mw / (interference + noise2_mw_));
  return cfg_.error_model.symbol_error_prob(sinr_db, preamble);
}

void Engine::refresh_mote(std::size_t j) {
  auto& z = zigbee_[j];
  const std::uint32_t g = global_z(j);
  const common::Dbm signal_dbm =
      common::to_dbm(arbiter_.rx_power(g, g).payload_mw) - impair_penalty_db_;
  nodes_[g].signal_mw = common::to_mw(signal_dbm);
  z.sensitivity_loss = cfg_.error_model.sensitivity_loss_prob(
      signal_dbm, cfg_.zigbee[j].sensitivity_dbm);
  z.p_err_idle = zig_symbol_perr(g, common::MilliWatt{}, false);
  z.p_err_idle_preamble = zig_symbol_perr(g, common::MilliWatt{}, true);
  // Transmitters in other components never reach the mote's ledger scan.
  const ArbiterTables& tables = arbiter_.tables();
  for (const std::uint32_t t : tables.component(tables.comp[g])) {
    if (t != g) set_perr(j, t);
  }
}

void Engine::set_perr(std::size_t j, std::size_t t) {
  const auto& z = zigbee_[j];
  const std::uint32_t g = global_z(j);
  const auto tx = static_cast<std::uint32_t>(t);
  double* p = &perr_[2 * (perr_row_[j] + arbiter_.tables().local[t])];
  // The "preamble" shape of the error model is calibrated for the bursty
  // WiFi preamble; a ZigBee interferer's whole frame — and a jammer's
  // noise-like burst — behaves like payload.
  const bool wifi_tx = t < num_wifi_;
  if (!arbiter_.rx_nonzero(g, tx)) {
    // Zeroed links (pruned edges, disjoint channels) all share the mote's
    // idle values; evaluating the error model only for nonzero links is
    // what keeps dense-campus construction O(edges).
    p[0] = z.p_err_idle;
    p[1] = wifi_tx ? z.p_err_idle_preamble : z.p_err_idle;
    return;
  }
  const SegmentPower sp = arbiter_.rx_power(g, tx);
  p[0] = zig_symbol_perr(g, sp.payload_mw, false);
  p[1] = zig_symbol_perr(g, sp.preamble_mw, wifi_tx);
}

void Engine::retune_pair(std::size_t point, std::size_t tx) {
  const bool rx_point = point >= num_total_;
  const std::size_t listener = rx_point ? point - num_total_ : point;
  if (listener >= num_nodes_) return;            // jammer points never listen
  if (tx == listener && !rx_point) return;       // own CCA point: silent
  const LinkEntry e =
      mean_link_entry(cfg_, listener, rx_point, tx,
                      common::Hz{center_hz_[listener]}, sledzig_on_);
  // Retuned entries are never pruned — the prune decision was made against
  // the build-time spectrum picture and a retune must only make links
  // audible, never silently drop one.
  const common::Db jitter{
      jitter_db_[arbiter_.tables().power_slot(point, tx)]};
  arbiter_.set_link(point, tx,
                    e.state == LinkState::kLive ? shadowed(e, jitter)
                                                : SegmentPower{});
}

void Engine::apply_sledzig(bool engage, double t) {
  if (engage == sledzig_on_) return;
  sledzig_on_ = engage;
  // Only ZigBee listening points hear the scheme difference (the
  // protected-window payload offset); WiFi-listener entries and all
  // ZigBee-transmitter entries are scheme-invariant, so rows outside the
  // retuned set keep their exact build-time values.  Pairs across
  // components stay 0 mW: coupling is band overlap, which no scheme
  // toggle creates.
  const ArbiterTables& tables = arbiter_.tables();
  for (std::size_t j = 0; j < num_zigbee_; ++j) {
    const std::size_t g = global_z(j);
    for (const std::uint32_t w : tables.component(tables.comp[g])) {
      if (w >= num_wifi_) break;
      retune_pair(g, w);
      retune_pair(num_total_ + g, w);
    }
    refresh_mote(j);
  }
  // The per-frame bit budget follows the toggle.
  for (std::size_t i = 0; i < num_wifi_; ++i) {
    nodes_[global(i)].bits_per_frame = wifi_frame_bits(i, engage);
  }
  trace(t, 0, TraceType::kControlSledzig, engage ? 1 : 0);
}

void Engine::apply_hop(std::size_t j, unsigned channel, double t) {
  if (cfg_.zigbee[j].channel == channel) return;  // rotation met itself
  const std::size_t g = global_z(j);
  cfg_.zigbee[j].channel = channel;
  center_hz_[g] = zigbee_node_center_hz(channel, cfg_.sledzig);
  const double sigma = cfg_.shadowing_sigma_db.value();
  // Every retuned pair re-draws its shadowing as the pure function
  // derive_seed(seed, kControl, point, tx, channel) — no stateful stream,
  // so the tables after any action history are a function of (config,
  // seed, history), bit-identical across thread counts and replays.
  // A hop-armed run keeps one component, so every pair is stored.
  const auto fresh_jitter = [&](std::size_t point, std::size_t tx) {
    jitter_db_[arbiter_.tables().power_slot(point, tx)] =
        common::Rng(common::derive_seed(cfg_.seed,
                                        common::seed_domain::kControl, point,
                                        tx, channel))
            .gaussian(sigma);
  };
  // The mote hears the whole world anew (its two listening points)...
  for (const std::size_t p : {g, num_total_ + g}) {
    for (std::size_t tx = 0; tx < num_total_; ++tx) {
      if (tx == g) continue;
      fresh_jitter(p, tx);
      retune_pair(p, tx);
    }
  }
  // ...and the whole world hears the mote anew (its column, own link
  // included at the receiver point).
  for (std::size_t p = 0; p < 2 * num_total_; ++p) {
    const bool rx_point = p >= num_total_;
    const std::size_t listener = rx_point ? p - num_total_ : p;
    if (listener >= num_nodes_) continue;
    if (listener == g && !rx_point) continue;
    fresh_jitter(p, g);
    retune_pair(p, g);
  }
  rebuild_adjacency();
  // Own-link budget and the cached symbol-error rows move with the band:
  // the mote's own row, and its column in every other mote's row.
  refresh_mote(j);
  for (std::size_t k = 0; k < num_zigbee_; ++k) {
    if (k != j) set_perr(k, g);
  }
  trace(t, static_cast<std::uint32_t>(g), TraceType::kControlHop,
        static_cast<std::int32_t>(channel));
  // The spectrum picture moved: deferring WiFi machines re-check the
  // medium against the new tables (in-flight frames are re-evaluated at
  // their kTxEnd through the same tables — documented behaviour).
  notify_idle(t);
}

void Engine::on_control(double t) {
  // Per-epoch deltas against the previous boundary's cumulative counters.
  for (std::size_t g = 0; g < num_nodes_; ++g) {
    const Node& n = nodes_[g];
    const control::NodeObservation now{
        n.stats.generated,       n.stats.sent, n.stats.delivered,
        n.stats.retry_exhausted, n.cca_busy,   n.cca_clear,
        n.stats.airtime_us};
    control::NodeObservation& base = obs_base_[g];
    obs_[g] = control::NodeObservation{
        now.generated - base.generated,
        now.sent - base.sent,
        now.delivered - base.delivered,
        now.retry_exhausted - base.retry_exhausted,
        now.cca_busy - base.cca_busy,
        now.cca_clear - base.cca_clear,
        now.airtime_us - base.airtime_us};
    base = now;
  }
  const std::span<const control::NodeObservation> obs(obs_);
  const control::EpochSnapshot snap{control_epoch_, t, cfg_.control.epoch_us,
                                    obs.first(num_wifi_),
                                    obs.subspan(num_wifi_)};
  const std::vector<control::Action> actions = controller_->on_epoch(snap);
  trace(t, 0, TraceType::kControlEpoch,
        static_cast<std::int32_t>(actions.size()));
  control_actions_ += actions.size();
  for (const auto& a : actions) {
    switch (a.kind) {
      case control::ActionKind::kSledzig:
        apply_sledzig(a.value != 0.0, t);
        break;
      case control::ActionKind::kZigbeeChannel:
        apply_hop(a.node, static_cast<unsigned>(a.value), t);
        break;
      case control::ActionKind::kWifiRateScale: {
        auto& n = nodes_[global(a.node)];
        wifi_[a.node].shape_scale = a.value;
        n.traffic.set_rate_scale(n.surge * a.value);
        trace(t, static_cast<std::uint32_t>(a.node), TraceType::kControlShape,
              static_cast<std::int32_t>(std::lround(a.value * 1000.0)));
        break;
      }
    }
  }
  ++control_epoch_;
  const double next =
      cfg_.control.epoch_us * static_cast<double>(control_epoch_ + 1);
  if (next < duration_us_) queue_.push(next, EventType::kControl, 0);
}

SimResult Engine::run() {
  SLEDZIG_PROF_SCOPE("sim.run");
  for (std::size_t g = 0; g < num_nodes_; ++g) {
    auto& n = nodes_[g];
    // Clock skew offsets the node's first arrival (its boot-time phase);
    // everything after is interval-relative and governed by drift.
    push_arrival(static_cast<std::uint32_t>(g),
                 std::max(0.0, n.traffic.first_arrival() + n.skew_us));
  }
  for (std::size_t f = 0; f < faults_.size(); ++f) {
    queue_.push(faults_[f].next().at_us, EventType::kFault, 0, 0,
                static_cast<std::uint32_t>(f));
  }
  if (controller_ != nullptr && cfg_.control.epoch_us < duration_us_) {
    queue_.push(cfg_.control.epoch_us, EventType::kControl, 0);
  }

  while (!queue_.empty()) {
    const Event e = queue_.pop();
    ++events_;
    ++event_counts_[static_cast<std::size_t>(e.type)];
    if (inv_.enabled()) inv_.on_event(e.time_us);
    switch (e.type) {
      case EventType::kArrival:
        if (e.token != nodes_[e.node].arrival_epoch) {
          ++stale_arrivals_;  // chain orphaned by a crash
          break;
        }
        on_arrival(e.node, e.time_us);
        break;
      case EventType::kTimer:
        if (e.token != nodes_[e.node].token) {
          ++stale_timers_;  // invalidated by a later transition
          break;
        }
        if (e.node < num_wifi_) {
          on_wifi_timer(e.node, e.time_us);
        } else {
          on_zigbee_timer(e.node - num_wifi_, e.time_us);
        }
        break;
      case EventType::kTxEnd:
        on_tx_end(e.node, e.tx_id, e.time_us);
        break;
      case EventType::kFault: {
        // Queue the source's next action before this one acts, so it
        // precedes whatever the action queues for the same instant.
        FaultSource& src = faults_[e.tx_id];
        const FaultAction a = src.next();
        if (src.advance()) {
          queue_.push(src.next().at_us, EventType::kFault, 0, 0, e.tx_id);
        }
        on_fault(a, e.time_us);
        break;
      }
      case EventType::kControl:
        on_control(e.time_us);
        break;
    }
  }

  SimResult result;
  result.events_processed = events_;
  result.trace_digest = digest_;
  result.trace = std::move(trace_);
  result.wifi.reserve(num_wifi_);
  result.zigbee.reserve(num_zigbee_);
  for (std::size_t g = 0; g < num_nodes_; ++g) {
    auto& n = nodes_[g];
    auto& s = n.stats;
    // Frames cut off by the horizon — still queued, or mid-service with
    // their next timer suppressed (push_timer drops timers past the
    // horizon).  The head frame stays at the queue front until terminal,
    // so queue.size() is exactly the in-flight count.
    s.in_flight_at_end = n.queue.size();
    if (inv_.enabled()) {
      inv_.on_node_drained(static_cast<std::uint32_t>(g), n.alive, n.serving,
                           n.horizon_cut, n.active_tx != UINT32_MAX,
                           duration_us_);
      inv_.on_conservation(static_cast<std::uint32_t>(g), s.generated,
                           s.delivered + s.queue_dropped + s.cca_dropped +
                               s.retry_exhausted + s.lost_to_crash +
                               s.in_flight_at_end,
                           duration_us_);
    }
    s.airtime_fraction = s.airtime_us / duration_us_;
    s.prr = s.sent > 0
                ? static_cast<double>(s.delivered) / static_cast<double>(s.sent)
                : 0.0;
    s.throughput_kbps = static_cast<double>(s.delivered) * n.bits_per_frame /
                        duration_us_ * 1e3;
    if (g < num_wifi_) {
      // The per-frame bit budget can change mid-run (SledZig retoggles),
      // so a controlled run's throughput comes from the bits actually
      // accumulated at each delivery, not a single end-of-run rate.
      if (control_active_) {
        s.throughput_kbps = wifi_[g].delivered_bits / duration_us_ * 1e3;
      }
      result.wifi.push_back(s);
    } else {
      result.zigbee.push_back(s);
    }
  }
  flush_metrics();
  return result;
}

/// One registry touch per run (the event loop only bumps plain members),
/// so observability costs nothing measurable on the hot path.  All flushed
/// values are integers summed over deterministic per-run tallies —
/// thread-count invariant under replication fan-out.
void Engine::flush_metrics() const {
  obs::Registry* reg = cfg_.metrics;
  if (reg == nullptr) return;
  NodeStats sum;
  for (const auto& n : nodes_) {
    const NodeStats& s = n.stats;
    sum.generated += s.generated;
    sum.queue_dropped += s.queue_dropped;
    sum.cca_dropped += s.cca_dropped;
    sum.sent += s.sent;
    sum.delivered += s.delivered;
    sum.retries += s.retries;
    sum.retry_exhausted += s.retry_exhausted;
    sum.lost_to_crash += s.lost_to_crash;
    sum.in_flight_at_end += s.in_flight_at_end;
  }
  const auto events = [this](EventType t) {
    return event_counts_[static_cast<std::size_t>(t)];
  };
  const auto traced = [this](TraceType t) {
    return trace_counts_[static_cast<std::size_t>(t)];
  };

  reg->counter("sim.runs").inc();
  reg->counter("sim.events").add(events_);
  reg->counter("sim.events.arrival").add(events(EventType::kArrival));
  reg->counter("sim.events.timer").add(events(EventType::kTimer));
  reg->counter("sim.events.tx_end").add(events(EventType::kTxEnd));
  reg->counter("sim.timer.stale").add(stale_timers_);
  reg->counter("sim.frames.generated").add(sum.generated);
  reg->counter("sim.frames.delivered").add(sum.delivered);
  reg->counter("sim.frames.queue_dropped").add(sum.queue_dropped);
  reg->counter("sim.frames.cca_dropped").add(sum.cca_dropped);
  reg->counter("sim.frames.retry_exhausted").add(sum.retry_exhausted);
  reg->counter("sim.frames.lost_to_crash").add(sum.lost_to_crash);
  reg->counter("sim.frames.in_flight_at_end").add(sum.in_flight_at_end);
  reg->counter("sim.tx.attempts").add(sum.sent);
  reg->counter("sim.tx.retries").add(sum.retries);
  // Control-plane tallies: absent entirely without an active policy.
  if (events(EventType::kControl) > 0) {
    reg->counter("sim.events.control").add(events(EventType::kControl));
    reg->counter("sim.control.actions").add(control_actions_);
  }
  // Fault-layer tallies: all zero (and free) without a fault plan.
  if (events(EventType::kFault) > 0 || stale_arrivals_ > 0) {
    reg->counter("sim.events.fault").add(events(EventType::kFault));
    reg->counter("sim.arrival.stale").add(stale_arrivals_);
    reg->counter("sim.faults.crashes").add(traced(TraceType::kNodeCrash));
    reg->counter("sim.faults.reboots").add(traced(TraceType::kNodeReboot));
    reg->counter("sim.faults.jam_bursts").add(traced(TraceType::kJam));
    reg->counter("sim.faults.tx_aborted").add(traced(TraceType::kTxAborted));
    reg->counter("sim.faults.tx_muted").add(traced(TraceType::kTxMuted));
  }
}

}  // namespace

SimResult run_scenario(const ScenarioConfig& config) {
  if (auto errors = config.validate(); !errors.empty()) {
    throw std::invalid_argument(describe(errors));
  }
  return Engine(config).run();
}

std::vector<SimResult> run_replications(common::ThreadPool& pool,
                                        const ScenarioConfig& config,
                                        std::size_t replications) {
  // Validate once, before any worker touches the config: a structurally
  // broken scenario fails fast with every finding, instead of surfacing as
  // a worker-thread exception deep inside the first replication.
  if (auto errors = config.validate(); !errors.empty()) {
    throw std::invalid_argument(describe(errors));
  }
  // The link cache is pure per topology (no seed in it), so every
  // replication shares one build instead of redoing the O(T^2) geometry
  // and PHY work per seed.
  std::shared_ptr<const LinkCache> cache =
      cache_matches(config.link_cache.get(), config)
          ? config.link_cache
          : LinkCache::build(config);
  return common::parallel_map(pool, replications, [&](std::size_t rep) {
    ScenarioConfig c = config;
    c.seed = common::derive_seed(config.seed, rep);
    c.link_cache = cache;
    return Engine(c).run();
  });
}

std::vector<SimResult> run_replications(const ScenarioConfig& config,
                                        std::size_t replications) {
  return run_replications(common::default_pool(), config, replications);
}

}  // namespace sledzig::sim

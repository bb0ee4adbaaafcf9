// Deterministic event scheduler for the discrete-event coexistence engine.
//
// Events pop in (time, insertion sequence) order: two events at the same
// instant dequeue in the order they were pushed, on every platform and for
// every thread count.  That sequence key is what makes whole-run event
// traces bit-identical — std::priority_queue alone leaves equal-time
// ordering to heap internals.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sledzig::sim {

enum class EventType : std::uint8_t {
  kArrival,  ///< the node's traffic source delivers a frame
  kTimer,    ///< a MAC state-machine timer (validated against the node token)
  kTxEnd,    ///< a transmission leaves the air; delivery is evaluated
  kFault,    ///< a FaultSource's pending action fires (token = source index)
  kControl,  ///< a control-plane epoch boundary (observation + actions)
};
/// Count of EventType values: move it when appending an enumerator.
inline constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kControl) + 1;

struct Event {
  double time_us = 0.0;
  std::uint64_t seq = 0;    ///< global insertion order: deterministic ties
  EventType type = EventType::kArrival;
  std::uint32_t node = 0;   ///< owning node (global index)
  /// Staleness key, read by type.  kTimer: the node's timer token.
  /// kArrival: its arrival epoch (a crash bumps the epoch, orphaning the
  /// pending arrival chain so a reboot can start a fresh one without
  /// double-clocking).  kTxEnd: the transmission's id in its transmitter's
  /// component ledger (Arbiter::begin_tx), stale once it differs from the
  /// node's active_tx.  kFault: the fault source's index.
  std::uint64_t token = 0;
};
static_assert(sizeof(Event) == 32, "an Event fills half a cache line");

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    return a.seq > b.seq;
  }
};

/// Min-heap on (time_us, seq).
///
/// Timer-cancellation hygiene: the queue never removes events.  A node
/// "cancels" a pending kTimer by bumping its own token before re-arming;
/// the engine discards any popped kTimer whose token no longer matches.
/// Because node tokens are monotone 64-bit counters and every pushed timer
/// carries the token current at push time, a cancelled timer can never
/// alias a later re-arm's token, so it can never fire on the re-armed node.
///
/// The heap is std::push_heap / std::pop_heap over an owned vector with
/// the EventAfter comparator; (time, seq) is a total order, so the pop
/// sequence is identical to std::priority_queue's.
class EventQueue {
 public:
  void push(double time_us, EventType type, std::uint32_t node,
            std::uint64_t token = 0) {
    heap_.push_back(Event{time_us, next_seq_++, type, node, token});
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }

  bool empty() const { return heap_.empty(); }

  Event pop() {
    // Popping an empty heap would be UB; fail loudly in debug.
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// Total events ever pushed (monotone).  Each push consumes one unique
  /// seq value, so pushed() equals the count of distinct seqs handed out —
  /// the two cannot alias or double-count.
  std::uint64_t pushed() const { return next_seq_; }

 private:
  std::vector<Event> heap_;  // min-heap via EventAfter
  std::uint64_t next_seq_ = 0;
};

}  // namespace sledzig::sim

#include "sim/invariants.h"

namespace sledzig::sim {

InvariantViolation::InvariantViolation(const std::string& what,
                                       std::uint64_t seed, double time_us)
    : std::runtime_error("sim invariant violated: " + what + " [seed=" +
                         std::to_string(seed) +
                         " t_us=" + std::to_string(time_us) + "]"),
      seed_(seed),
      time_us_(time_us) {}

void SimInvariants::fail(const std::string& what, double t_us) const {
  throw InvariantViolation(what, seed_, t_us);
}

void SimInvariants::on_event(double t_us) {
  if (!cfg_.enabled) return;
  if (seen_event_ && t_us < last_time_us_) {
    fail("event time moved backwards (prev " + std::to_string(last_time_us_) +
             " us)",
         t_us);
  }
  seen_event_ = true;
  last_time_us_ = t_us;
}

void SimInvariants::on_queue_depth(std::uint32_t node, std::size_t depth,
                                   std::size_t capacity, double t_us) {
  if (!cfg_.enabled) return;
  if (depth > capacity) {
    fail("node " + std::to_string(node) + " queue depth " +
             std::to_string(depth) + " exceeds capacity " +
             std::to_string(capacity),
         t_us);
  }
}

void SimInvariants::on_node_drained(std::uint32_t node, bool alive,
                                    bool serving, bool horizon_cut,
                                    bool tx_in_flight, double t_us) {
  if (!cfg_.enabled) return;
  // A dead node holds no schedulable state, and an idle one owes nothing.
  // A serving node must either still have work on the scheduler (the event
  // queue drained, so only an in-flight transmission's kTxEnd could remain
  // — it cannot here) or have been cut off by the horizon.
  if (alive && serving && !horizon_cut && !tx_in_flight) {
    fail("node " + std::to_string(node) +
             " wedged: serving with no scheduled step and no horizon cut",
         t_us);
  }
}

void SimInvariants::on_conservation(std::uint32_t node, std::size_t generated,
                                    std::size_t accounted, double t_us) {
  if (!cfg_.enabled) return;
  if (generated != accounted) {
    fail("node " + std::to_string(node) + " conservation broken: generated " +
             std::to_string(generated) + " != accounted " +
             std::to_string(accounted),
         t_us);
  }
}

}  // namespace sledzig::sim

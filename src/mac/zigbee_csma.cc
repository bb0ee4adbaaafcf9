#include "mac/zigbee_csma.h"

#include <algorithm>
#include <cmath>

#include "zigbee/frame.h"

namespace sledzig::mac {

double SymbolErrorModel::symbol_error_prob(common::Db sinr_db,
                                           bool preamble) const {
  const common::Db mid = preamble ? preamble_midpoint_db : payload_midpoint_db;
  const common::Db width = preamble ? preamble_width_db : payload_width_db;
  const double p = 1.0 / (1.0 + std::exp((sinr_db - mid) / width));
  return preamble ? preamble_max_error * p : p;
}

double SymbolErrorModel::sensitivity_loss_prob(
    common::Dbm signal_dbm, common::Dbm sensitivity_dbm) const {
  return 1.0 /
         (1.0 + std::exp((signal_dbm - sensitivity_dbm) / sensitivity_width_db));
}

double zigbee_frame_airtime_us(std::size_t payload_octets) {
  return zigbee::frame_duration_us(payload_octets);
}

ZigbeeCsmaMachine::ZigbeeCsmaMachine(const ZigbeeMacParams& params,
                                     std::uint64_t seed)
    : params_(params), rng_(seed) {}

ZigbeeCsmaMachine::Step ZigbeeCsmaMachine::begin_csma(double now) {
  nb_ = 0;
  be_ = std::min(params_.min_be, params_.max_be);
  return schedule_cca(now);
}

ZigbeeCsmaMachine::Step ZigbeeCsmaMachine::schedule_cca(double now) {
  const auto slots =
      rng_.uniform_int(0, (std::int64_t{1} << be_) - 1);
  awaiting_ = Awaiting::kCca;
  return {Step::Kind::kCcaEndAt,
          now + static_cast<double>(slots) * params_.backoff_period_us +
              params_.cca_us};
}

ZigbeeCsmaMachine::Step ZigbeeCsmaMachine::frame_ready(double now) {
  retries_left_ = params_.max_frame_retries;
  return begin_csma(now);
}

ZigbeeCsmaMachine::Step ZigbeeCsmaMachine::cca_result(double now, bool busy) {
  if (!busy) {
    awaiting_ = Awaiting::kTxStart;
    return {Step::Kind::kTxStartAt, now + params_.turnaround_us};
  }
  ++nb_;
  be_ = std::min(be_ + 1, params_.max_be);
  if (nb_ > params_.max_backoffs) {
    awaiting_ = Awaiting::kNone;
    return {Step::Kind::kDropCca, now};
  }
  return schedule_cca(now);
}

void ZigbeeCsmaMachine::tx_started() { awaiting_ = Awaiting::kNone; }

ZigbeeCsmaMachine::Step ZigbeeCsmaMachine::tx_done(double now,
                                                   bool delivered) {
  if (!delivered && retries_left_ > 0) {
    --retries_left_;
    // The ACK never arrives; CSMA for the retry starts only after the full
    // macAckWaitDuration has elapsed (802.15.4 6.4.3).
    return begin_csma(now + params_.ack_wait_us);
  }
  awaiting_ = Awaiting::kNone;
  return {};
}

void ZigbeeCsmaMachine::reset() {
  awaiting_ = Awaiting::kNone;
  nb_ = 0;
  be_ = 0;
  retries_left_ = 0;
}

}  // namespace sledzig::mac

#include "sledzig/channels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "wifi/subcarriers.h"

namespace sledzig::core {

std::string to_string(OverlapChannel ch) {
  switch (ch) {
    case OverlapChannel::kCh1: return "CH1";
    case OverlapChannel::kCh2: return "CH2";
    case OverlapChannel::kCh3: return "CH3";
    case OverlapChannel::kCh4: return "CH4";
  }
  return "?";
}

double channel_center_offset_hz(OverlapChannel ch) {
  switch (ch) {
    case OverlapChannel::kCh1: return -7e6;
    case OverlapChannel::kCh2: return -2e6;
    case OverlapChannel::kCh3: return 3e6;
    case OverlapChannel::kCh4: return 8e6;
  }
  throw std::invalid_argument("channel_center_offset_hz: bad channel");
}

double channel_center_subcarriers(OverlapChannel ch) {
  return channel_center_offset_hz(ch) / wifi::kSubcarrierSpacingHz;
}

std::size_t default_forced_count(OverlapChannel ch) {
  return ch == OverlapChannel::kCh4 ? 5 : 7;
}

std::vector<int> forced_data_subcarriers(OverlapChannel ch, std::size_t count) {
  if (count > wifi::kNumDataSubcarriers) {
    throw std::invalid_argument("forced_data_subcarriers: count > 48");
  }
  const double center = channel_center_subcarriers(ch);
  std::vector<int> by_distance =
      wifi::channel_plan(wifi::ChannelWidth::k20MHz).data_indices;
  std::stable_sort(by_distance.begin(), by_distance.end(),
                   [center](int a, int b) {
                     return std::abs(a - center) < std::abs(b - center);
                   });
  std::vector<int> chosen(by_distance.begin(), by_distance.begin() + count);
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::vector<int> forced_data_subcarriers(OverlapChannel ch) {
  return forced_data_subcarriers(ch, default_forced_count(ch));
}

bool window_contains_pilot(OverlapChannel ch) {
  return ch != OverlapChannel::kCh4;
}

unsigned testbed_zigbee_channel(OverlapChannel ch) {
  switch (ch) {
    case OverlapChannel::kCh1: return 23;
    case OverlapChannel::kCh2: return 24;
    case OverlapChannel::kCh3: return 25;
    case OverlapChannel::kCh4: return 26;
  }
  throw std::invalid_argument("testbed_zigbee_channel: bad channel");
}

std::optional<OverlapChannel> overlap_for_zigbee_channel(unsigned channel) {
  switch (channel) {
    case 23: return OverlapChannel::kCh1;
    case 24: return OverlapChannel::kCh2;
    case 25: return OverlapChannel::kCh3;
    case 26: return OverlapChannel::kCh4;
    default: return std::nullopt;
  }
}

std::vector<int> forced_data_subcarriers(
    std::span<const OverlapChannel> channels) {
  std::vector<int> all;
  for (OverlapChannel ch : channels) {
    const auto subs = forced_data_subcarriers(ch);
    all.insert(all.end(), subs.begin(), subs.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

double wifi_channel_frequency_hz(unsigned channel) {
  if (channel < 1 || channel > 13) {
    throw std::invalid_argument("wifi_channel_frequency_hz: channel 1..13");
  }
  return (2412.0 + 5.0 * static_cast<double>(channel - 1)) * 1e6;
}

std::vector<int> window_data_subcarriers(const wifi::ChannelPlan& plan,
                                         double center_offset_hz,
                                         double bandwidth_hz) {
  if (bandwidth_hz <= 0.0) {
    throw std::invalid_argument("window_data_subcarriers: bandwidth > 0");
  }
  const double spacing = plan.subcarrier_spacing_hz();
  const double center = center_offset_hz / spacing;
  // Half the victim bandwidth plus one subcarrier of leakage margin
  // (section IV-B's "two adjacent subcarriers" argument).
  const double margin = bandwidth_hz / 2.0 / spacing + 1.0;
  std::vector<int> out;
  for (int idx : plan.data_indices) {
    if (std::abs(static_cast<double>(idx) - center) <= margin) {
      out.push_back(idx);
    }
  }
  return out;
}

double zigbee_offset_hz(unsigned zigbee_channel, double wifi_center_hz) {
  const double zb =
      (2405.0 + 5.0 * static_cast<double>(zigbee_channel - 11)) * 1e6;
  return zb - wifi_center_hz;
}

double ble_advertising_offset_hz(unsigned adv_channel, double wifi_center_hz) {
  double freq = 0.0;
  switch (adv_channel) {
    case 37: freq = 2402e6; break;
    case 38: freq = 2426e6; break;
    case 39: freq = 2480e6; break;
    default:
      throw std::invalid_argument(
          "ble_advertising_offset_hz: channel 37, 38 or 39");
  }
  return freq - wifi_center_hz;
}

}  // namespace sledzig::core

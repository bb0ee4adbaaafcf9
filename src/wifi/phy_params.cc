#include "wifi/phy_params.h"

#include <stdexcept>

namespace sledzig::wifi {

std::size_t bits_per_subcarrier(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1;
    case Modulation::kQpsk: return 2;
    case Modulation::kQam16: return 4;
    case Modulation::kQam64: return 6;
    case Modulation::kQam256: return 8;
  }
  throw std::invalid_argument("bits_per_subcarrier: bad modulation");
}

RateFraction rate_fraction(CodingRate r) {
  switch (r) {
    case CodingRate::kR12: return {1, 2};
    case CodingRate::kR23: return {2, 3};
    case CodingRate::kR34: return {3, 4};
    case CodingRate::kR56: return {5, 6};
  }
  throw std::invalid_argument("rate_fraction: bad coding rate");
}

std::string to_string(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return "BPSK";
    case Modulation::kQpsk: return "QPSK";
    case Modulation::kQam16: return "QAM-16";
    case Modulation::kQam64: return "QAM-64";
    case Modulation::kQam256: return "QAM-256";
  }
  return "?";
}

std::string to_string(ChannelWidth w) {
  switch (w) {
    case ChannelWidth::k20MHz: return "20MHz";
    case ChannelWidth::k40MHz: return "40MHz";
  }
  return "?";
}

std::string to_string(CodingRate r) {
  switch (r) {
    case CodingRate::kR12: return "1/2";
    case CodingRate::kR23: return "2/3";
    case CodingRate::kR34: return "3/4";
    case CodingRate::kR56: return "5/6";
  }
  return "?";
}

const std::array<PhyMode, 7>& paper_phy_modes() {
  static const std::array<PhyMode, 7> modes = {{
      {Modulation::kQam16, CodingRate::kR12, 11.0},
      {Modulation::kQam16, CodingRate::kR34, 15.0},
      {Modulation::kQam64, CodingRate::kR23, 18.0},
      {Modulation::kQam64, CodingRate::kR34, 20.0},
      {Modulation::kQam64, CodingRate::kR56, 25.0},
      {Modulation::kQam256, CodingRate::kR34, 29.0},
      {Modulation::kQam256, CodingRate::kR56, 31.0},
  }};
  return modes;
}

}  // namespace sledzig::wifi

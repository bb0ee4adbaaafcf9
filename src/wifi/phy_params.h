// Static 802.11 OFDM PHY parameters (20 MHz channel).
//
// The paper evaluates the seven modulation/coding combinations of its
// Tables III/IV.  Note one paper typo we compensate for: the row printed as
// "QAM-16, 2/3" carries 144 data bits per OFDM symbol, which is only
// consistent with coding rate 3/4 (192 coded bits * 3/4); rate 2/3 would give
// 128.  We expose the real rate math and list the paper combination as
// {Qam16, R34}.
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace sledzig::wifi {

inline constexpr std::size_t kNumSubcarriers = 64;   // FFT size
inline constexpr std::size_t kNumDataSubcarriers = 48;
inline constexpr std::size_t kNumPilotSubcarriers = 4;
inline constexpr std::size_t kCyclicPrefixLen = 16;  // 0.8 us at 20 MS/s
inline constexpr std::size_t kSymbolLen = kNumSubcarriers + kCyclicPrefixLen;
inline constexpr double kSampleRateHz = 20e6;
inline constexpr double kSubcarrierSpacingHz = kSampleRateHz / kNumSubcarriers;  // 312.5 kHz
inline constexpr double kSymbolDurationUs = 4.0;
inline constexpr double kPreambleDurationUs = 16.0;  // 10 STS + 2 LTS
inline constexpr std::size_t kTailBits = 6;          // flush the K=7 encoder

enum class Modulation { kBpsk, kQpsk, kQam16, kQam64, kQam256 };
enum class CodingRate { kR12, kR23, kR34, kR56 };

/// Channel bandwidth.  The paper evaluates 20 MHz and notes the "similar
/// idea can be easily extended to wider channel scenarios"; the 40 MHz plan
/// implements that extension (802.11n-style 128-point FFT, 108 data + 6
/// pilot subcarriers).
enum class ChannelWidth { k20MHz, k40MHz };

std::string to_string(ChannelWidth w);

/// Coded bits carried by one subcarrier (N_BPSC).  Per-symbol counts are
/// a plan's: coded_bits_per_symbol / data_bits_per_symbol in subcarriers.h.
std::size_t bits_per_subcarrier(Modulation m);

/// Rate as numerator/denominator.
struct RateFraction {
  std::size_t num = 1;
  std::size_t den = 2;
};
RateFraction rate_fraction(CodingRate r);

std::string to_string(Modulation m);
std::string to_string(CodingRate r);

/// One modulation/coding combination evaluated by the paper.
struct PhyMode {
  Modulation modulation;
  CodingRate rate;
  /// Minimum receive SNR (dB) for reliable decoding; Table IV of the paper.
  double min_snr_db;
};

/// The seven combinations in the paper's Tables III/IV, in table order.
/// (The paper's "QAM-16, 2/3" row is listed here as rate 3/4; see header
/// comment.)
const std::array<PhyMode, 7>& paper_phy_modes();

}  // namespace sledzig::wifi

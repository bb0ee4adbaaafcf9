// Frame-path digest (`perf` label): one FNV-1a hash over what the WiFi /
// SledZig frame path produces for a fixed set of phy_link-style frames.
//
// Per frame the hash covers the SledZig transmit PSDU, the receiver's
// scrambled-domain stream (the Viterbi output) and the decoded payload.
// Frames cover the three paper modes x CH1-CH4 x {60, 400, 1500} B with
// SledZig on and off, received through a 20 kHz CFO and an 8-bit ADC at
// 36 dB SNR and at 25 dB, where about half of the QAM-256 frames fail, so
// soft-Viterbi near-ties are exercised.  One QAM-64 2/3 frame protects
// CH1-CH3 at once, whose plan is a single cluster spanning the frame.
// A second leg runs the same frames through the hard-decision receiver
// (`WifiRxConfig::soft_decision = false`), where most marginal QAM-256
// frames fail, so near-ties of the Hamming metric are exercised too.
//
// A third digest hashes where `synchronize_packet` puts each of the same
// buffers (detected, packet start, the bit pattern of the CFO estimate):
// a start that moves inside the cyclic prefix, or a CFO that differs in
// its last bit, can still decode the same bits.
//
// The soft digest was recorded before the demapper, Viterbi and
// constraint-plan rewrites, the hard one before hard decisions joined the
// LLR decode chain, and the sync one before the blocked correlation scans;
// any change to any of them is a behaviour change of the frame path, not a
// tolerance to adjust.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "channel/impairments.h"
#include "channel/medium.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sledzig/encoder.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"

namespace sledzig {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv1a(std::uint64_t& h, std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
}

void fnv1a_u64(std::uint64_t& h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  fnv1a(h, bytes);
}

struct Frame {
  core::SledzigConfig cfg;
  bool sledzig_on = true;
  std::size_t octets = 0;
  double rx_dbm = 0.0;
};

constexpr double kCleanDbm = -45.0;  // 36 dB over the -81 dBm full-band floor
constexpr double kMarginalDbm = -56.0;  // 25 dB: QAM-256 3/4 fails about half
constexpr std::size_t kLeadSamples = 160;

std::vector<Frame> digest_frames() {
  const std::pair<wifi::Modulation, wifi::CodingRate> modes[] = {
      {wifi::Modulation::kQam16, wifi::CodingRate::kR12},
      {wifi::Modulation::kQam64, wifi::CodingRate::kR23},
      {wifi::Modulation::kQam256, wifi::CodingRate::kR34},
  };
  std::vector<Frame> frames;
  for (double dbm : {kCleanDbm, kMarginalDbm}) {
    for (const auto& [m, r] : modes) {
      for (auto ch : core::kAllOverlapChannels) {
        for (std::size_t octets : {60u, 400u, 1500u}) {
          for (bool on : {true, false}) {
            frames.push_back(Frame{core::SledzigConfig{m, r, ch}, on, octets,
                                   dbm});
          }
        }
      }
    }
  }
  Frame multi{core::SledzigConfig{wifi::Modulation::kQam64,
                                  wifi::CodingRate::kR23,
                                  core::OverlapChannel::kCh1},
              true, 200, kCleanDbm};
  multi.cfg.extra_channels = {core::OverlapChannel::kCh2,
                              core::OverlapChannel::kCh3};
  frames.push_back(multi);
  return frames;
}

struct Outcome {
  std::uint64_t digest = kFnvOffset;
  std::size_t qam256_marginal = 0;
  std::size_t qam256_marginal_failed = 0;
};

/// Frame `i`'s payload, transmitted PSDU and received buffer: a 160-sample
/// lead, a 20 kHz CFO and an 8-bit ADC at the frame's SNR.
struct Mixed {
  common::Bytes payload;
  common::Bytes psdu;
  common::CplxVec samples;
};

Mixed mix_frame(const Frame& f, std::size_t i) {
  channel::ImpairmentConfig imp;
  imp.cfo = true;
  imp.cfo_hz = 20e3;
  imp.quantization = true;
  imp.quant_bits = 8;

  Mixed m;
  m.payload = common::Rng(common::derive_seed(0xd16e57, i)).bytes(f.octets);
  m.psdu = m.payload;
  if (f.sledzig_on) {
    const auto enc = core::sledzig_encode(m.payload, f.cfg);
    EXPECT_EQ(enc.num_violations, 0u) << "frame " << i;
    m.psdu = enc.transmit_psdu;
  }
  wifi::WifiTxConfig tx;
  tx.modulation = f.cfg.modulation;
  tx.rate = f.cfg.rate;
  tx.scrambler_seed = f.cfg.scrambler_seed;
  const auto packet = wifi::wifi_transmit(m.psdu, tx);

  const std::uint64_t channel_seed = common::derive_seed(0xc4a77e1, i);
  common::Rng rng(channel_seed);
  const channel::Emission e{&packet.samples, f.rx_dbm, 0.0, kLeadSamples,
                            &imp, channel_seed};
  m.samples = channel::mix_at_receiver(
      std::vector<channel::Emission>{e},
      packet.samples.size() + 3 * kLeadSamples, rng);
  return m;
}

Outcome run_frames(const wifi::WifiRxConfig& rx_cfg) {
  Outcome out;
  const auto frames = digest_frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    const auto [payload, psdu, samples] = mix_frame(f, i);
    const auto rx = wifi::wifi_receive(samples, rx_cfg);

    std::optional<common::Bytes> decoded;
    if (rx.ok()) {
      decoded = f.sledzig_on ? core::sledzig_decode(rx.psdu, f.cfg)
                             : std::optional<common::Bytes>(rx.psdu);
    }
    fnv1a_u64(out.digest, psdu.size());
    fnv1a(out.digest, psdu);
    fnv1a_u64(out.digest, static_cast<std::uint64_t>(rx.error));
    fnv1a_u64(out.digest, rx.scrambled_stream.size());
    fnv1a(out.digest, rx.scrambled_stream);
    fnv1a_u64(out.digest, decoded ? decoded->size() : ~std::uint64_t{0});
    if (decoded) fnv1a(out.digest, *decoded);

    if (f.cfg.modulation == wifi::Modulation::kQam256 &&
        f.rx_dbm == kMarginalDbm) {
      ++out.qam256_marginal;
      if (!decoded || *decoded != payload) ++out.qam256_marginal_failed;
    }
  }
  return out;
}

TEST(FramePathDigest, MatchesDigestRecordedBeforeKernelRewrites) {
  const Outcome out = run_frames(wifi::WifiRxConfig{});
  EXPECT_EQ(out.digest, 0x07812574ed340703ull) << std::hex << "digest 0x" << out.digest;
  // The marginal SNR must keep exercising failures and successes alike.
  EXPECT_GE(out.qam256_marginal_failed * 4, out.qam256_marginal);
  EXPECT_LE(out.qam256_marginal_failed * 4, out.qam256_marginal * 3);
}

TEST(FramePathDigest, HardDecisionReceiveMatchesRecordedDigest) {
  wifi::WifiRxConfig rx_cfg;
  rx_cfg.soft_decision = false;
  const Outcome out = run_frames(rx_cfg);
  EXPECT_EQ(out.digest, 0x803834f640305804ull) << std::hex << "digest 0x" << out.digest;
  // Hard decisions lose most marginal QAM-256 frames, but not all of them.
  EXPECT_GT(out.qam256_marginal_failed, 0u);
  EXPECT_LT(out.qam256_marginal_failed, out.qam256_marginal);
}

TEST(FramePathDigest, SynchronizationMatchesRecordedDigest) {
  std::uint64_t digest = kFnvOffset;
  std::size_t detected = 0;
  const auto frames = digest_frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto sync = wifi::synchronize_packet(mix_frame(frames[i], i).samples,
                                               wifi::WifiRxConfig{}.detection_threshold,
                                               wifi::ChannelWidth::k20MHz);
    fnv1a_u64(digest, sync.has_value());
    fnv1a_u64(digest, sync ? sync->packet_start : 0);
    fnv1a_u64(digest, std::bit_cast<std::uint64_t>(sync ? sync->cfo_hz : 0.0));
    detected += sync.has_value();
  }
  EXPECT_EQ(digest, 0x41e3c7f882d08803ull) << std::hex << "digest 0x" << digest;
  // Every frame is found, even where the marginal QAM-256 ones fail to
  // decode.
  EXPECT_EQ(detected, frames.size());
}

}  // namespace
}  // namespace sledzig

// Engineering micro-benchmarks (google-benchmark): throughput of the PHY
// blocks and the SledZig encoder itself, plus the simulator's ZigBee
// delivery kernel.  Not a paper figure — this answers "can a WiFi
// transmitter afford to run SledZig per packet?"
//
// BENCH_microbench.json at the repository root is this binary's output,
// run with --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
// --benchmark_out=BENCH_microbench.json.
// Its context records the build type, SLEDZIG_NATIVE and the sweep-pool
// thread count next to google-benchmark's own host fields.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "channel/medium.h"
#include "common/dsp.h"
#include "common/fft.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sledzig/encoder.h"
#include "sim/delivery.h"
#include "sledzig/significant_bits.h"
#include "wifi/convolutional.h"
#include "wifi/qam.h"
#include "wifi/receiver.h"
#include "wifi/transmitter.h"
#include "zigbee/chips.h"
#include "zigbee/oqpsk.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

using namespace sledzig;

namespace {

void BM_Fft64(benchmark::State& state) {
  common::Rng rng(1);
  common::CplxVec x(64);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    auto y = common::fft(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft64);

void BM_Fft256InPlace(benchmark::State& state) {
  common::Rng rng(14);
  common::CplxVec x(256);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  common::CplxVec work;
  for (auto _ : state) {
    common::fft_into(x, work, /*inverse=*/false);
    benchmark::DoNotOptimize(work);
  }
}
BENCHMARK(BM_Fft256InPlace);

void BM_FrequencyShift(benchmark::State& state) {
  common::Rng rng(15);
  common::CplxVec x(static_cast<std::size_t>(state.range(0)));
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    auto y = common::frequency_shift(x, 3e6, channel::kMediumSampleRateHz);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrequencyShift)->Arg(4096)->Arg(65536);

// The draws under ZigBee delivery (one uniform() per symbol) and the
// channel noise (two gaussian() per sample): one draw per iteration, so
// the time column reads ns per draw.
void BM_RngUniform(benchmark::State& state) {
  common::Rng rng(23);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_RngGaussian(benchmark::State& state) {
  common::Rng rng(24);
  for (auto _ : state) benchmark::DoNotOptimize(rng.gaussian(1.0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngGaussian);

void BM_MixAtReceiver(benchmark::State& state) {
  common::Rng rng(16);
  wifi::WifiTxConfig cfg;
  const auto packet = wifi::wifi_transmit(rng.bytes(500), cfg);
  const channel::Emission e{&packet.samples, -50.0, 4e6, 256, nullptr, 1};
  const std::vector<channel::Emission> emissions{e, e};
  for (auto _ : state) {
    common::Rng noise_rng(17);
    auto mixed = channel::mix_at_receiver(emissions,
                                          packet.samples.size() + 512,
                                          noise_rng);
    benchmark::DoNotOptimize(mixed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(packet.samples.size()));
}
BENCHMARK(BM_MixAtReceiver);

void BM_BandPower(benchmark::State& state) {
  common::Rng rng(18);
  common::CplxVec x(16384);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    const double p = common::band_power(x, channel::kMediumSampleRateHz,
                                        -1e6, 1e6, 256);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_BandPower);

void BM_WifiRoundtrip(benchmark::State& state) {
  // End-to-end hot path of every Monte-Carlo trial: transmit -> impaired
  // medium -> receive.
  common::Rng rng(19);
  const auto psdu = rng.bytes(200);
  wifi::WifiTxConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  for (auto _ : state) {
    const auto packet = wifi::wifi_transmit(psdu, cfg);
    common::Rng trial_rng(20);
    const channel::Emission e{&packet.samples, -45.0, 0.0, 160, nullptr, 20};
    const auto mixed = channel::mix_at_receiver(
        std::vector<channel::Emission>{e}, packet.samples.size() + 480,
        trial_rng);
    auto rx = wifi::wifi_receive(mixed, wifi::WifiRxConfig{});
    benchmark::DoNotOptimize(rx);
  }
  state.SetBytesProcessed(state.iterations() * 200);
}
BENCHMARK(BM_WifiRoundtrip);

void BM_ConvolutionalEncode(benchmark::State& state) {
  common::Rng rng(2);
  const auto bits = rng.bits(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto coded = wifi::convolutional_encode(bits);
    benchmark::DoNotOptimize(coded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConvolutionalEncode)->Arg(1024)->Arg(8192);

void BM_ViterbiDecode(benchmark::State& state) {
  common::Rng rng(3);
  auto bits = rng.bits(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < wifi::kTailBits; ++i) bits.push_back(0);
  const auto hard = wifi::hard_llrs(wifi::convolutional_encode(bits));
  for (auto _ : state) {
    auto decoded = wifi::viterbi_decode(hard);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViterbiDecode)->Arg(1024)->Arg(4096);

/// LLRs of a random terminated codeword at +-4 plus Gaussian noise of
/// `sigma`.  Clean inputs are the branch predictor's best case; real frames
/// look like the noisy ones.
std::vector<double> codeword_llrs(std::uint64_t seed, std::size_t steps,
                                  double sigma) {
  common::Rng rng(seed);
  auto bits = rng.bits(steps);
  for (std::size_t i = 0; i < wifi::kTailBits; ++i) bits.push_back(0);
  const auto coded = wifi::convolutional_encode(bits);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = (coded[i] ? 4.0 : -4.0) + rng.gaussian(sigma);
  }
  return llrs;
}

void BM_ViterbiDecodeNoisy(benchmark::State& state) {
  const auto llrs =
      codeword_llrs(21, static_cast<std::size_t>(state.range(0)), 2.0);
  std::vector<double> hard(llrs.size());
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    hard[i] = llrs[i] > 0.0 ? 1.0 : -1.0;
  }
  for (auto _ : state) {
    auto decoded = wifi::viterbi_decode(hard);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViterbiDecodeNoisy)->Arg(1024)->Arg(4096);

void BM_ViterbiDecodeSoftNoisy(benchmark::State& state) {
  const auto llrs =
      codeword_llrs(22, static_cast<std::size_t>(state.range(0)), 2.0);
  for (auto _ : state) {
    auto decoded = wifi::viterbi_decode(llrs);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViterbiDecodeSoftNoisy)->Arg(1024)->Arg(4096);

/// The paper's three phy_link modes, by benchmark argument.
core::SledzigConfig paper_mode(std::int64_t index) {
  constexpr std::pair<wifi::Modulation, wifi::CodingRate> kModes[] = {
      {wifi::Modulation::kQam16, wifi::CodingRate::kR12},
      {wifi::Modulation::kQam64, wifi::CodingRate::kR23},
      {wifi::Modulation::kQam256, wifi::CodingRate::kR34},
  };
  const auto [m, r] = kModes[index];
  return core::SledzigConfig{m, r, core::OverlapChannel::kCh2};
}

void BM_BuildConstraintPlan(benchmark::State& state) {
  // A 1000 B payload with its 2-octet length header, as sledzig_encode
  // sizes it before the extra bits.
  const auto cfg = paper_mode(state.range(0));
  for (auto _ : state) {
    auto plan = core::build_constraint_plan(cfg, 0, 1002 * 8);
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel(wifi::to_string(cfg.modulation));
}
BENCHMARK(BM_BuildConstraintPlan)->DenseRange(0, 2);

void BM_QamDemapSoft(benchmark::State& state) {
  // One OFDM symbol's 48 equalised points at 30 dB SNR.
  const auto m = paper_mode(state.range(0)).modulation;
  common::Rng rng(23);
  const auto n_bpsc = wifi::bits_per_subcarrier(m);
  const auto points = wifi::qam_map(rng.bits(48 * n_bpsc), m);
  common::CplxVec noisy(points.begin(), points.end());
  for (auto& p : noisy) p += rng.complex_gaussian(1e-3);
  for (auto _ : state) {
    auto llrs = wifi::qam_demap_soft(noisy, m);
    benchmark::DoNotOptimize(llrs);
  }
  state.SetItemsProcessed(state.iterations() * 48);
  state.SetLabel(wifi::to_string(m));
}
BENCHMARK(BM_QamDemapSoft)->DenseRange(0, 2);

void BM_WifiTransmit(benchmark::State& state) {
  common::Rng rng(4);
  const auto psdu = rng.bytes(1000);
  wifi::WifiTxConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  for (auto _ : state) {
    auto packet = wifi::wifi_transmit(psdu, cfg);
    benchmark::DoNotOptimize(packet);
  }
  state.SetBytesProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WifiTransmit);

void BM_WifiReceive(benchmark::State& state) {
  common::Rng rng(5);
  wifi::WifiTxConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  const auto packet = wifi::wifi_transmit(rng.bytes(1000), cfg);
  for (auto _ : state) {
    auto result = wifi::wifi_receive(packet.samples, wifi::WifiRxConfig{});
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WifiReceive);

void BM_SledzigEncode(benchmark::State& state) {
  common::Rng rng(6);
  const auto payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  core::SledzigConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  cfg.channel = core::OverlapChannel::kCh4;
  for (auto _ : state) {
    auto enc = core::sledzig_encode(payload, cfg);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SledzigEncode)->Arg(100)->Arg(1000);

void BM_SledzigEncodeThreeChannels(benchmark::State& state) {
  // Adjacent protected windows (CH1-CH3) merge into one constraint cluster
  // spanning the frame; 600 B is the in-band memo's payload size.
  common::Rng rng(24);
  const auto payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  core::SledzigConfig cfg{wifi::Modulation::kQam64, wifi::CodingRate::kR23,
                          core::OverlapChannel::kCh1};
  cfg.extra_channels = {core::OverlapChannel::kCh2, core::OverlapChannel::kCh3};
  for (auto _ : state) {
    auto enc = core::sledzig_encode(payload, cfg);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SledzigEncodeThreeChannels)->Arg(600);

void BM_SledzigEncodePhyLinkMix(benchmark::State& state) {
  // perfbench's phy_link frame mix: the three paper modes cycled frame by
  // frame over CH1-CH4 at 100, 400 and 1000 B, with every fourth frame
  // instead taking a size spread evenly over 60..1500 B (a golden-ratio
  // sequence).  One encode per iteration, cycling over 144 frames.
  constexpr std::size_t kRecurringSizes[] = {100, 400, 1000};
  common::Rng rng(25);
  double spread = 0.5;
  std::vector<std::pair<core::SledzigConfig, common::Bytes>> frames;
  for (std::size_t i = 0; i < 144; ++i) {
    auto cfg = paper_mode(static_cast<std::int64_t>(i % 3));
    cfg.channel = core::kAllOverlapChannels[(i / 3) % 4];
    std::size_t size = kRecurringSizes[(i / 12) % 3];
    if (i % 4 == 3) {
      spread += 0.6180339887498949;
      spread -= std::floor(spread);
      size = 60 + static_cast<std::size_t>(spread * 1441);
    }
    frames.emplace_back(cfg, rng.bytes(size));
  }
  std::size_t next = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const auto& [cfg, payload] = frames[next++ % frames.size()];
    auto enc = core::sledzig_encode(payload, cfg);
    benchmark::DoNotOptimize(enc);
    bytes += static_cast<std::int64_t>(payload.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SledzigEncodePhyLinkMix);

void BM_SledzigDecode(benchmark::State& state) {
  common::Rng rng(7);
  core::SledzigConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  cfg.channel = core::OverlapChannel::kCh4;
  const auto enc = core::sledzig_encode(rng.bytes(1000), cfg);
  for (auto _ : state) {
    auto dec = core::sledzig_decode(enc.transmit_psdu, cfg);
    benchmark::DoNotOptimize(dec);
  }
  state.SetBytesProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SledzigDecode);

void BM_ZigbeeSpreadDespread(benchmark::State& state) {
  common::Rng rng(8);
  const auto bits = rng.bits(4 * 256);
  for (auto _ : state) {
    auto chips = zigbee::spread(bits);
    auto back = zigbee::despread(chips);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ZigbeeSpreadDespread);

void BM_ZigbeeModDemod(benchmark::State& state) {
  common::Rng rng(9);
  const auto tx = zigbee::zigbee_transmit(rng.bytes(60));
  for (auto _ : state) {
    auto rx = zigbee::zigbee_receive(tx.samples);
    benchmark::DoNotOptimize(rx);
  }
}
BENCHMARK(BM_ZigbeeModDemod);

void BM_ViterbiDecodeSoft(benchmark::State& state) {
  common::Rng rng(10);
  auto bits = rng.bits(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < wifi::kTailBits; ++i) bits.push_back(0);
  const auto coded = wifi::convolutional_encode(bits);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? 4.0 : -4.0;
  }
  for (auto _ : state) {
    auto decoded = wifi::viterbi_decode(llrs);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViterbiDecodeSoft)->Arg(1024)->Arg(4096);

void BM_WifiSynchronizeCfo(benchmark::State& state) {
  common::Rng rng(11);
  wifi::WifiTxConfig cfg;
  const auto packet = wifi::wifi_transmit(rng.bytes(200), cfg);
  for (auto _ : state) {
    auto sync = wifi::synchronize_packet(packet.samples, 0.55,
                                         wifi::ChannelWidth::k20MHz);
    benchmark::DoNotOptimize(sync);
  }
}
BENCHMARK(BM_WifiSynchronizeCfo);

void BM_WifiSynchronizePhyLink(benchmark::State& state) {
  // A phy_link-sized buffer: a 1000 B QAM-64 2/3 frame mixed at 36 dB
  // (-45 dBm over the -81 dBm floor) behind a 160-sample lead.
  common::Rng rng(24);
  wifi::WifiTxConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  const auto packet = wifi::wifi_transmit(rng.bytes(1000), cfg);
  common::Rng noise_rng(25);
  const channel::Emission e{&packet.samples, -45.0, 0.0, 160, nullptr, 25};
  const auto mixed = channel::mix_at_receiver(
      std::vector<channel::Emission>{e}, packet.samples.size() + 480,
      noise_rng);
  for (auto _ : state) {
    auto sync = wifi::synchronize_packet(mixed, 0.55,
                                         wifi::ChannelWidth::k20MHz);
    benchmark::DoNotOptimize(sync);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mixed.size()));
}
BENCHMARK(BM_WifiSynchronizePhyLink);

void BM_ZigbeeSoftDespread(benchmark::State& state) {
  common::Rng rng(12);
  const auto chips = zigbee::spread(rng.bits(4 * 64));
  const auto wave = zigbee::oqpsk_modulate(chips);
  for (auto _ : state) {
    auto bits = zigbee::oqpsk_despread_soft(wave, 64);
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ZigbeeSoftDespread);

void BM_Wifi40Transmit(benchmark::State& state) {
  common::Rng rng(13);
  const auto psdu = rng.bytes(1000);
  wifi::WifiTxConfig cfg;
  cfg.modulation = wifi::Modulation::kQam64;
  cfg.rate = wifi::CodingRate::kR23;
  cfg.width = wifi::ChannelWidth::k40MHz;
  for (auto _ : state) {
    auto packet = wifi::wifi_transmit(psdu, cfg);
    benchmark::DoNotOptimize(packet);
  }
  state.SetBytesProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Wifi40Transmit);

void BM_ZigbeeSymbolsSurvive(benchmark::State& state) {
  // ZigBee delivery over frames shaped like the 1100-node campus's: 116
  // symbols, 37 staged WiFi/ZigBee interferers starting up to 4 ms before
  // the frame, and error probabilities that lose roughly one frame in
  // six.  The counters report the shape: entries overlapping the frame
  // and distinct boundaries (frame ends included), both per frame.
  constexpr double kSym = zigbee::kSymbolDurationUs;
  constexpr std::size_t kFrames = 64;
  constexpr std::size_t kStaged = 37;
  common::Rng gen(21);
  sim::ZigbeeReception rx{10000.0, 10000.0 + 116.0 * kSym + 8.0, 1e-4};
  std::vector<std::vector<sim::RelevantTx>> frames(kFrames);
  std::vector<double> inside;
  std::size_t boundaries = 0;
  std::size_t overlapping = 0;
  for (auto& staged : frames) {
    inside.clear();
    for (std::size_t i = 0; i < kStaged; ++i) {
      sim::RelevantTx x{};
      x.start_us = gen.uniform(rx.start_us - 4000.0, rx.end_us);
      const bool wifi = gen.uniform() < 0.6;
      x.payload_start_us = x.start_us + (wifi ? 20.0 : 0.0);
      x.end_us = x.payload_start_us + (wifi ? gen.uniform(300.0, 6000.0)
                                            : gen.uniform(600.0, 4200.0));
      x.payload_mw = common::MilliWatt{gen.uniform(1e-10, 1e-8)};
      x.preamble_mw = wifi ? common::MilliWatt{x.payload_mw.value() * 1.5}
                           : x.payload_mw;
      x.p_err_payload = gen.uniform(0.0, 3e-3);
      x.p_err_preamble = gen.uniform(0.0, 3e-3);
      staged.push_back(x);
      overlapping += x.end_us > rx.start_us ? 1 : 0;
      for (const double v : {x.start_us, x.payload_start_us, x.end_us}) {
        if (v > rx.start_us && v < rx.end_us) inside.push_back(v);
      }
    }
    std::sort(staged.begin(), staged.end(),
              [](const sim::RelevantTx& a, const sim::RelevantTx& b) {
                return a.start_us < b.start_us;
              });
    std::sort(inside.begin(), inside.end());
    boundaries += static_cast<std::size_t>(
                      std::unique(inside.begin(), inside.end()) -
                      inside.begin()) +
                  2;
  }
  common::Rng rng(22);
  sim::DeliveryScratch scratch;
  std::size_t f = 0;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    const bool ok = sim::zigbee_symbols_survive(rx, frames[f], scratch, rng);
    delivered += ok ? 1 : 0;
    f = f + 1 == kFrames ? 0 : f + 1;
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["overlapping"] =
      static_cast<double>(overlapping) / static_cast<double>(kFrames);
  state.counters["boundaries"] =
      static_cast<double>(boundaries) / static_cast<double>(kFrames);
  state.counters["delivered"] = static_cast<double>(delivered) /
                                static_cast<double>(state.iterations());
}
BENCHMARK(BM_ZigbeeSymbolsSurvive);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", SLEDZIG_BUILD_TYPE);
  benchmark::AddCustomContext("sledzig_native",
                              SLEDZIG_NATIVE_BUILD ? "ON" : "OFF");
  // Every kernel runs on the calling thread; the pool size is what the
  // sweep benches would use on this host.
  benchmark::AddCustomContext("threads",
                              std::to_string(common::default_pool().size()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

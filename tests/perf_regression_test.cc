// Regression suite for the hot-path optimisation work (`perf` ctest label):
//
//   1. The cached-plan FFT matches a naive O(n^2) DFT reference.
//   2. The flattened Viterbi decoders reproduce recorded pre-refactor
//      outputs bit-for-bit on noisy/erasure-laden inputs.
//   3. Parallel sweeps are thread-invariant: a 1-thread and an 8-thread
//      pool produce byte-identical results (the determinism contract of
//      src/common/parallel.h).
//   4. ThreadPool edge behaviour: exception propagation, nested calls,
//      empty batches, seed-stream independence.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numbers>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/fft.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "wifi/convolutional.h"
#include "wifi/phy_params.h"
#include "wifi/qam.h"

namespace sledzig {
namespace {

// ---------------------------------------------------------------------------
// FFT vs naive DFT reference

common::CplxVec naive_dft(const common::CplxVec& x, bool inverse) {
  const std::size_t n = x.size();
  const double sign = inverse ? 1.0 : -1.0;
  common::CplxVec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    common::Cplx acc = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k * t) / static_cast<double>(n);
      acc += x[t] * common::Cplx(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(FftPlanCache, MatchesNaiveDftAcrossSizes) {
  common::Rng rng(0xfeed);
  for (std::size_t n : {2u, 8u, 64u, 256u, 1024u}) {
    common::CplxVec x(n);
    for (auto& s : x) s = rng.complex_gaussian(1.0);

    const auto ref = naive_dft(x, /*inverse=*/false);
    auto got = x;
    common::fft_inplace(got, /*inverse=*/false);
    ASSERT_EQ(got.size(), ref.size());
    // Naive DFT accumulates rounding over n terms; tolerance scales gently.
    const double tol = 1e-9 * static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(got[k] - ref[k]), 0.0, tol) << "n=" << n
                                                       << " bin=" << k;
    }
  }
}

TEST(FftPlanCache, InverseRoundTripsAndMatchesNaive) {
  common::Rng rng(0xcafe);
  common::CplxVec x(128);
  for (auto& s : x) s = rng.complex_gaussian(2.0);

  const auto spec = common::fft(x);
  const auto back = common::ifft(spec);
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-10);
  }

  const auto ref = naive_dft(x, /*inverse=*/true);
  auto got = x;
  common::fft_inplace(got, /*inverse=*/true);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(got[k] - ref[k]), 0.0, 1e-9);
  }
}

TEST(FftPlanCache, PlanLookupIsStableAndRejectsBadSizes) {
  const auto& a = common::FftPlan::get(64);
  const auto& b = common::FftPlan::get(64);
  EXPECT_EQ(&a, &b);  // one cached plan per size
  EXPECT_EQ(a.size(), 64u);
  EXPECT_THROW(common::FftPlan::get(48), std::invalid_argument);
  EXPECT_THROW(common::FftPlan::get(0), std::invalid_argument);
}

TEST(FftPlanCache, FftIntoMatchesCopyingFft) {
  common::Rng rng(0xf00d);
  common::CplxVec x(256);
  for (auto& s : x) s = rng.complex_gaussian(1.0);
  const auto ref = common::fft(x);
  common::CplxVec out;
  common::fft_into(x, out, /*inverse=*/false);
  ASSERT_EQ(out.size(), ref.size());
  EXPECT_EQ(0, std::memcmp(out.data(), ref.data(),
                           out.size() * sizeof(common::Cplx)));
}

// ---------------------------------------------------------------------------
// Flattened Viterbi vs recorded pre-refactor outputs
//
// The inputs reproduce deterministically from fixed seeds; the expected
// strings were captured from the decoder before the survivor-storage
// flattening and must match bit-for-bit (same metrics, same float
// association order, same tie-breaks).

common::Bits parse_bits(const char* s) {
  common::Bits out;
  for (; *s; ++s) {
    if (*s == '0' || *s == '1') out.push_back(*s == '1');
  }
  return out;
}

constexpr const char* kHardGolden =
    "0111001101010101100111010110100111001010111100010100001010101111"
    "0100100101000111111001011001011001101010010101100101110101101101"
    "1111001000000100100100110111001111110100011000110011000111110001"
    "001001011001101100111010110100110110010010000001000000";

constexpr const char* kSoftGolden =
    "0000111101011111101100100110110001010001011000000000111011101011"
    "1011100010000100100001100110101011010111000100000011011010010100"
    "1110001110010000111000110001010010001011001100011000111100001001"
    "101001110110110101011111000001011011010011100001000000";

common::Bits golden_info() {
  common::Rng rng(0x5eed);
  auto info = rng.bits(240);
  for (std::size_t i = 0; i < wifi::kTailBits; ++i) info.push_back(0);
  return info;
}

TEST(ViterbiFlattened, HardDecisionMatchesPreRefactorGolden) {
  const auto coded = wifi::convolutional_encode(golden_info());
  // Hard decisions as LLRs of +-1: every fifth flipped, every eleventh
  // erased.
  auto hard = wifi::hard_llrs(coded);
  for (std::size_t i = 0; i < hard.size(); i += 5) hard[i] = -hard[i];
  for (std::size_t i = 0; i < hard.size(); i += 11) hard[i] = 0.0;
  const auto decoded = wifi::viterbi_decode(hard, /*terminated=*/true);
  EXPECT_EQ(decoded, parse_bits(kHardGolden));
}

TEST(ViterbiFlattened, SoftDecisionMatchesPreRefactorGolden) {
  const auto coded = wifi::convolutional_encode(golden_info());
  common::Rng noise(0xbead);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = (coded[i] ? 2.0 : -2.0) + noise.gaussian(3.5);
  }
  const auto decoded = wifi::viterbi_decode(llrs, /*terminated=*/true);
  EXPECT_EQ(decoded, parse_bits(kSoftGolden));
}

TEST(ViterbiFlattened, CleanCodewordDecodesToInput) {
  const auto info = golden_info();
  const auto coded = wifi::convolutional_encode(info);
  EXPECT_EQ(wifi::viterbi_decode(wifi::hard_llrs(coded), /*terminated=*/true),
            info);
}

// ---------------------------------------------------------------------------
// Thread invariance of parallel sweeps

TEST(ParallelDeterminism, SweepIsByteIdenticalAcrossThreadCounts) {
  // A miniature Monte-Carlo sweep whose trials draw randomness through
  // derive_seed — exactly the pattern the benches use.
  const auto sweep = [](common::ThreadPool& pool) {
    return common::parallel_map(pool, 64, [](std::size_t i) {
      common::Rng rng(common::derive_seed(0xabcdef, i));
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += rng.gaussian(1.0);
      return acc;
    });
  };
  common::ThreadPool serial(1);
  common::ThreadPool wide(8);
  const auto a = sweep(serial);
  const auto b = sweep(wide);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

TEST(ParallelDeterminism, ThroughputExperimentThreadInvariant) {
  // End-to-end: the figure benches' trial driver (one engine run of the
  // two-node testbed per index) through 1 vs 8 threads.
  const auto run = [](common::ThreadPool& pool) {
    return common::parallel_map(pool, 4, [](std::size_t i) {
      const auto cfg = sim::two_node_paper_scenario(
          core::SledzigConfig{}, true, 1.0, 4.0, 1.0, 2.0, 1 + i);
      return sim::run_scenario(cfg).zigbee[0].throughput_kbps;
    });
  };
  common::ThreadPool serial(1);
  common::ThreadPool wide(8);
  const auto a = run(serial);
  const auto b = run(wide);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

TEST(ParallelDeterminism, DerivedSeedsAreDistinctAndIndexPure) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seen.insert(common::derive_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 10000u);  // no collisions in a realistic sweep
  // Pure function of (base, index).
  EXPECT_EQ(common::derive_seed(7, 3), common::derive_seed(7, 3));
  EXPECT_NE(common::derive_seed(7, 3), common::derive_seed(8, 3));
}

// ---------------------------------------------------------------------------
// ThreadPool behaviour

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each_index(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyAndSingleBatchesWork) {
  common::ThreadPool pool(4);
  int calls = 0;
  pool.for_each_index(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.for_each_index(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_index(
                   100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("trial 37 failed");
                   }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> ok{0};
  pool.for_each_index(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, NestedParallelCallsRunSeriallyWithoutDeadlock) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.for_each_index(8, [&](std::size_t outer) {
    // Nested use of the same pool must degrade to an inline serial loop.
    pool.for_each_index(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, SizeCountsCallerAndSurvivesRepeatedBatches) {
  common::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  common::ThreadPool one(1);
  EXPECT_EQ(one.size(), 1u);
  common::ThreadPool zero(0);  // treated as 1
  EXPECT_EQ(zero.size(), 1u);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.for_each_index(20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 20);
}

TEST(ThreadPool, ParallelMapHandlesBoolWithoutBitRaces) {
  common::ThreadPool pool(8);
  const auto out =
      common::parallel_map(pool, 4096, [](std::size_t i) { return i % 3 == 0; });
  ASSERT_EQ(out.size(), 4096u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i % 3 == 0) << "index " << i;
  }
}

}  // namespace
}  // namespace sledzig

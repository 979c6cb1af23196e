#include "dsp/wavelet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

#include "common/error.hpp"
#include "common/random.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {
namespace {

RealVector random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

Real max_abs_error(const RealVector& a, const RealVector& b) {
  EXPECT_EQ(a.size(), b.size());
  Real m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

// --- Filter-bank identities -------------------------------------------

class WaveletFilterTest : public ::testing::TestWithParam<int> {};

TEST_P(WaveletFilterTest, LowpassSumsToSqrt2) {
  const Wavelet w = Wavelet::daubechies(GetParam());
  Real sum = 0.0;
  for (const Real h : w.lowpass()) {
    sum += h;
  }
  EXPECT_NEAR(sum, std::sqrt(2.0), 1e-12);
}

TEST_P(WaveletFilterTest, LowpassOrthonormalToEvenShifts) {
  const Wavelet w = Wavelet::daubechies(GetParam());
  const auto& h = w.lowpass();
  const std::size_t n = h.size();
  for (std::size_t shift = 0; shift < n; shift += 2) {
    Real dot = 0.0;
    for (std::size_t k = 0; k + shift < n; ++k) {
      dot += h[k] * h[k + shift];
    }
    EXPECT_NEAR(dot, shift == 0 ? 1.0 : 0.0, 1e-12) << "shift " << shift;
  }
}

TEST_P(WaveletFilterTest, HighpassSumsToZero) {
  const Wavelet w = Wavelet::daubechies(GetParam());
  Real sum = 0.0;
  for (const Real g : w.highpass()) {
    sum += g;
  }
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST_P(WaveletFilterTest, LowAndHighpassAreOrthogonal) {
  const Wavelet w = Wavelet::daubechies(GetParam());
  const auto& h = w.lowpass();
  const auto& g = w.highpass();
  Real dot = 0.0;
  for (std::size_t k = 0; k < h.size(); ++k) {
    dot += h[k] * g[k];
  }
  EXPECT_NEAR(dot, 0.0, 1e-12);
}

TEST_P(WaveletFilterTest, FilterLengthIsTwiceVanishingMoments) {
  const int vm = GetParam();
  const Wavelet w = Wavelet::daubechies(vm);
  EXPECT_EQ(w.length(), static_cast<std::size_t>(2 * vm));
}

INSTANTIATE_TEST_SUITE_P(Daubechies, WaveletFilterTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(Wavelet, VanishingMomentsKillPolynomials) {
  // dbN highpass annihilates polynomials of degree < N.
  const Wavelet db4 = Wavelet::daubechies(4);
  const auto& g = db4.highpass();
  for (int degree = 0; degree < 4; ++degree) {
    Real dot = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      dot += g[k] * std::pow(static_cast<Real>(k), degree);
    }
    EXPECT_NEAR(dot, 0.0, 1e-9) << "degree " << degree;
  }
}

TEST(Wavelet, RejectsUnsupportedOrder) {
  EXPECT_THROW(Wavelet::daubechies(0), InvalidArgument);
  EXPECT_THROW(Wavelet::daubechies(11), InvalidArgument);
}

TEST(Wavelet, HaarIsDb1) {
  const Wavelet haar = Wavelet::haar();
  EXPECT_EQ(haar.length(), 2u);
  EXPECT_NEAR(haar.lowpass()[0], 1.0 / std::sqrt(2.0), 1e-15);
}

// --- Single-level transform -------------------------------------------
// One analysis level is wavedec_into(..., 1, ...): details[0] and approx.

WaveletDecomposition single_level(const RealVector& x, const Wavelet& w,
                                  Workspace& ws) {
  WaveletDecomposition level;
  wavedec_into(x, w, 1, ws, level);
  return level;
}

TEST(Dwt, HaarKnownValues) {
  const RealVector x = {1.0, 3.0, 2.0, 6.0};
  Workspace ws;
  const WaveletDecomposition level = single_level(x, Wavelet::haar(), ws);
  const Real s = std::sqrt(2.0);
  ASSERT_EQ(level.approx.size(), 2u);
  EXPECT_NEAR(level.approx[0], 4.0 / s, 1e-12);
  EXPECT_NEAR(level.approx[1], 8.0 / s, 1e-12);
  EXPECT_NEAR(level.details[0][0], -2.0 / s, 1e-12);
  EXPECT_NEAR(level.details[0][1], -4.0 / s, 1e-12);
}

TEST(Dwt, PeriodicPreservesEnergy) {
  const RealVector x = random_signal(256, 42);
  Workspace ws;
  const WaveletDecomposition level =
      single_level(x, Wavelet::daubechies(4), ws);
  Real in = 0.0;
  for (const Real v : x) {
    in += v * v;
  }
  Real out = 0.0;
  for (const Real v : level.approx) {
    out += v * v;
  }
  for (const Real v : level.details[0]) {
    out += v * v;
  }
  EXPECT_NEAR(out, in, 1e-9 * in);
}

TEST(Dwt, ConstantSignalHasZeroDetail) {
  const RealVector x(64, 3.0);
  Workspace ws;
  for (int vm : {1, 2, 3, 4}) {
    const WaveletDecomposition level =
        single_level(x, Wavelet::daubechies(vm), ws);
    for (const Real d : level.details[0]) {
      EXPECT_NEAR(d, 0.0, 1e-12);
    }
  }
}

TEST(Dwt, OddLengthPeriodicPads) {
  const RealVector x = random_signal(33, 8);
  Workspace ws;
  EXPECT_EQ(single_level(x, Wavelet::haar(), ws).approx.size(), 17u);
}

// --- Perfect reconstruction -------------------------------------------

class ReconstructionTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(ReconstructionTest, SingleLevelRoundTrip) {
  const auto [vm, n] = GetParam();
  const Wavelet w = Wavelet::daubechies(vm);
  const RealVector x = random_signal(n, 100 + n);
  Workspace ws;
  const WaveletDecomposition level = single_level(x, w, ws);
  const RealVector back = idwt_single(level.approx, level.details[0], w, n);
  EXPECT_LT(max_abs_error(back, x), 1e-10) << "vm=" << vm << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReconstructionTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(std::size_t{16}, std::size_t{37},
                                         std::size_t{64}, std::size_t{100},
                                         std::size_t{256})));

class MultiLevelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiLevelTest, WavedecWaverecRoundTripPeriodic) {
  const std::size_t levels = GetParam();
  const RealVector x = random_signal(512, 55);
  const Wavelet db4 = Wavelet::daubechies(4);
  Workspace ws;
  WaveletDecomposition dec;
  wavedec_into(x, db4, levels, ws, dec);
  const RealVector back = waverec(dec, db4);
  EXPECT_LT(max_abs_error(back, x), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Levels, MultiLevelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7));

TEST(Wavedec, PaperConfigurationShape) {
  // 4 s window at 256 Hz -> 1024 samples, db4, 7 levels, periodic mode.
  const RealVector x = random_signal(1024, 77);
  Workspace ws;
  WaveletDecomposition dec;
  wavedec_into(x, Wavelet::daubechies(4), 7, ws, dec);
  EXPECT_EQ(dec.levels(), 7u);
  EXPECT_EQ(dec.detail_at_level(1).size(), 512u);
  EXPECT_EQ(dec.detail_at_level(6).size(), 16u);
  EXPECT_EQ(dec.detail_at_level(7).size(), 8u);
  EXPECT_EQ(dec.approx.size(), 8u);
}

TEST(Wavedec, DetailLevelAccessorValidatesRange) {
  const RealVector x = random_signal(64, 3);
  Workspace ws;
  WaveletDecomposition dec;
  wavedec_into(x, Wavelet::haar(), 3, ws, dec);
  EXPECT_THROW(dec.detail_at_level(0), InvalidArgument);
  EXPECT_THROW(dec.detail_at_level(4), InvalidArgument);
}

TEST(Wavedec, SeparatesFrequencyBands) {
  // A slow sine should put most energy into deep levels / approximation;
  // a fast sine into the shallow detail levels.
  constexpr Real pi = std::numbers::pi_v<Real>;
  RealVector slow(1024);
  RealVector fast(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    slow[i] = std::sin(2.0 * pi * 2.0 * static_cast<Real>(i) / 256.0);
    fast[i] = std::sin(2.0 * pi * 100.0 * static_cast<Real>(i) / 256.0);
  }
  const Wavelet db4 = Wavelet::daubechies(4);
  Workspace ws;
  RealVector slow_energy;
  RealVector fast_energy;
  wavedec_into(slow, db4, 7, ws, ws.decomposition);
  wavelet_energy_distribution_into(ws.decomposition, slow_energy);
  wavedec_into(fast, db4, 7, ws, ws.decomposition);
  wavelet_energy_distribution_into(ws.decomposition, fast_energy);
  // fast (100 Hz at fs=256) -> level 1 detail (64-128 Hz).
  EXPECT_GT(fast_energy[0], 0.8);
  // slow (2 Hz) -> levels 6/7/approx (0-4 Hz region).
  EXPECT_GT(slow_energy[5] + slow_energy[6] + slow_energy[7], 0.8);
}

TEST(WaveletEnergy, DistributionSumsToOne) {
  const RealVector x = random_signal(512, 91);
  Workspace ws;
  RealVector energy;
  wavedec_into(x, Wavelet::daubechies(4), 5, ws, ws.decomposition);
  wavelet_energy_distribution_into(ws.decomposition, energy);
  ASSERT_EQ(energy.size(), 6u);
  Real sum = 0.0;
  for (const Real e : energy) {
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Dwt, LinearityOfAnalysis) {
  const RealVector a = random_signal(128, 1);
  const RealVector b = random_signal(128, 2);
  RealVector combo(128);
  for (std::size_t i = 0; i < 128; ++i) {
    combo[i] = 2.0 * a[i] - 0.5 * b[i];
  }
  const Wavelet db3 = Wavelet::daubechies(3);
  Workspace ws;
  const RealVector da = single_level(a, db3, ws).details[0];
  const RealVector db = single_level(b, db3, ws).details[0];
  const RealVector dc = single_level(combo, db3, ws).details[0];
  for (std::size_t i = 0; i < dc.size(); ++i) {
    EXPECT_NEAR(dc[i], 2.0 * da[i] - 0.5 * db[i], 1e-10);
  }
}

TEST(Wavedec, MinLengthIsTheShortestDecomposableSignal) {
  // The paper's 7-level periodic db4 transform needs 65 samples.
  EXPECT_EQ(min_periodic_wavedec_length(7), 65u);
  Workspace ws;
  WaveletDecomposition dec;
  for (int vm = 1; vm <= 4; ++vm) {
    const Wavelet w = Wavelet::daubechies(vm);
    for (std::size_t levels = 1; levels <= 7; ++levels) {
      const std::size_t n = min_periodic_wavedec_length(levels);
      EXPECT_NO_THROW(wavedec_into(random_signal(n, n), w, levels, ws, dec))
          << "vm=" << vm << " levels=" << levels;
      EXPECT_THROW(wavedec_into(random_signal(n - 1, n), w, levels, ws, dec),
                   InvalidArgument)
          << "vm=" << vm << " levels=" << levels;
    }
  }
}

TEST(Idwt, RejectsMismatchedCoefficients) {
  const RealVector a(8, 1.0);
  const RealVector d(7, 0.0);
  EXPECT_THROW(idwt_single(a, d, Wavelet::haar(), 16), InvalidArgument);
}

}  // namespace
}  // namespace esl::dsp

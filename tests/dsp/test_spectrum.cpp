#include "dsp/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/random.hpp"
#include "dsp/window.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {
namespace {

constexpr Real k_pi = std::numbers::pi_v<Real>;
constexpr Real k_fs = 256.0;

RealVector sine(Real hz, Real amplitude, std::size_t n, Real fs = k_fs) {
  RealVector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude * std::sin(2.0 * k_pi * hz * static_cast<Real>(i) / fs);
  }
  return x;
}

RealVector white_noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

TEST(Periodogram, FrequencyAxis) {
  Workspace ws;
  Psd psd;
  periodogram_into(sine(10.0, 1.0, 1024), k_fs, ws, psd);
  ASSERT_EQ(psd.frequency.size(), 513u);
  EXPECT_DOUBLE_EQ(psd.frequency.front(), 0.0);
  EXPECT_DOUBLE_EQ(psd.frequency.back(), 128.0);
  EXPECT_NEAR(psd.bin_width(), 0.25, 1e-12);
}

TEST(Periodogram, SinePowerConcentratesAtTone) {
  Workspace ws;
  Psd psd;
  periodogram_into(sine(10.0, 1.0, 1024), k_fs, ws, psd);
  // Peak bin should be at 10 Hz.
  std::size_t peak = 0;
  for (std::size_t k = 1; k < psd.density.size(); ++k) {
    if (psd.density[k] > psd.density[peak]) {
      peak = k;
    }
  }
  EXPECT_NEAR(psd.frequency[peak], 10.0, 0.3);
}

TEST(Periodogram, TotalPowerMatchesSineVariance) {
  // A sine of amplitude A has power A^2/2 (variance).
  const Real amplitude = 3.0;
  Workspace ws;
  Psd psd;
  periodogram_into(sine(10.0, amplitude, 4096), k_fs, ws, psd);
  EXPECT_NEAR(total_power(psd), amplitude * amplitude / 2.0, 0.05);
}

TEST(Periodogram, ParsevalForWhiteNoise) {
  // Exact Parseval for the tapered signal: the integrated one-sided PSD
  // equals sum((x w)^2) / sum(w^2) for the Hann taper w.
  const RealVector x = white_noise(8192, 3);
  Workspace ws;
  Psd psd;
  periodogram_into(x, k_fs, ws, psd);
  Real integrated = 0.0;
  for (const Real d : psd.density) {
    integrated += d * psd.bin_width();
  }
  const RealVector w = hann_window(x.size());
  Real tapered_energy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    tapered_energy += (x[i] * w[i]) * (x[i] * w[i]);
  }
  const Real expected = tapered_energy / window_power(w);
  EXPECT_NEAR(integrated, expected, 1e-9 * expected);
}

TEST(Periodogram, RejectsBadInputs) {
  Workspace ws;
  Psd psd;
  const RealVector x = {1.0};
  EXPECT_THROW(periodogram_into(x, k_fs, ws, psd), InvalidArgument);
  const RealVector ok = {1.0, 2.0, 3.0};
  EXPECT_THROW(periodogram_into(ok, 0.0, ws, psd), InvalidArgument);
}

TEST(BandPower, SineFallsInItsBand) {
  // 6 Hz sine -> theta band [4, 8).
  Workspace ws;
  Psd psd;
  periodogram_into(sine(6.0, 2.0, 2048), k_fs, ws, psd);
  const Real theta = band_power(psd, bands::kTheta);
  const Real alpha = band_power(psd, bands::kAlpha);
  const Real beta = band_power(psd, bands::kBeta);
  EXPECT_GT(theta, 100.0 * alpha);
  EXPECT_GT(theta, 100.0 * beta);
  EXPECT_NEAR(theta, 2.0, 0.1);  // amplitude 2 -> power 2
}

TEST(BandPower, DisjointBandsPartitionPower) {
  const RealVector x = white_noise(8192, 12);
  Workspace ws;
  Psd psd;
  periodogram_into(x, k_fs, ws, psd);
  const Real total = total_power(psd);
  const Real sum = band_power(psd, {0.5, 32.0}) + band_power(psd, {32.0, 64.0}) +
                   band_power(psd, {64.0, 128.0 + psd.bin_width()});
  EXPECT_NEAR(sum, total, 1e-9 * total);
}

TEST(BandPower, RejectsEmptyBand) {
  Workspace ws;
  Psd psd;
  periodogram_into(sine(6.0, 1.0, 512), k_fs, ws, psd);
  EXPECT_THROW(band_power(psd, {8.0, 8.0}), InvalidArgument);
  EXPECT_THROW(band_power(psd, {8.0, 4.0}), InvalidArgument);
}

TEST(RelativeBandPower, PureSineIsNearlyOne) {
  Workspace ws;
  Psd psd;
  periodogram_into(sine(6.0, 1.0, 4096), k_fs, ws, psd);
  EXPECT_GT(relative_band_power(psd, bands::kTheta), 0.95);
}

TEST(RelativeBandPower, SumsToOneAcrossPartition) {
  const RealVector x = white_noise(4096, 13);
  Workspace ws;
  Psd psd;
  periodogram_into(x, k_fs, ws, psd);
  const Real sum =
      relative_band_power(psd, {0.5, 30.0}) +
      relative_band_power(psd, {30.0, 128.0 + psd.bin_width()});
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RelativeBandPower, ZeroSignalGivesZero) {
  const RealVector x(512, 0.0);
  Workspace ws;
  Psd psd;
  periodogram_into(x, k_fs, ws, psd);
  EXPECT_DOUBLE_EQ(relative_band_power(psd, bands::kTheta), 0.0);
}

TEST(SpectralEdge, PureToneEdgeAtTone) {
  Workspace ws;
  Psd psd;
  periodogram_into(sine(20.0, 1.0, 4096), k_fs, ws, psd);
  EXPECT_NEAR(spectral_edge_frequency(psd, 0.5), 20.0, 0.5);
  EXPECT_NEAR(spectral_edge_frequency(psd, 0.9), 20.0, 0.5);
}

TEST(SpectralEdge, WhiteNoiseEdgeScalesWithFraction) {
  const RealVector x = white_noise(16384, 14);
  Workspace ws;
  Psd psd;
  periodogram_into(x, k_fs, ws, psd);
  const Real edge50 = spectral_edge_frequency(psd, 0.5);
  const Real edge90 = spectral_edge_frequency(psd, 0.9);
  // White noise: power uniform over [0.5, 128] -> edges near 64 / 115.
  EXPECT_NEAR(edge50, 64.0, 6.0);
  EXPECT_NEAR(edge90, 115.0, 6.0);
  EXPECT_LT(edge50, edge90);
}

TEST(SpectralEdge, RejectsBadFraction) {
  Workspace ws;
  Psd psd;
  periodogram_into(sine(6.0, 1.0, 512), k_fs, ws, psd);
  EXPECT_THROW(spectral_edge_frequency(psd, 0.0), InvalidArgument);
  EXPECT_THROW(spectral_edge_frequency(psd, 1.1), InvalidArgument);
}

TEST(PeakFrequency, FindsDominantTone) {
  RealVector x = sine(17.0, 3.0, 4096);
  const RealVector weak = sine(40.0, 0.5, 4096);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += weak[i];
  }
  Workspace ws;
  Psd psd;
  periodogram_into(x, k_fs, ws, psd);
  EXPECT_NEAR(peak_frequency(psd), 17.0, 0.5);
}

TEST(SpectralEntropy, ToneBelowNoise) {
  Workspace ws;
  Psd tone;
  periodogram_into(sine(10.0, 1.0, 4096), k_fs, ws, tone);
  Psd noise;
  periodogram_into(white_noise(4096, 15), k_fs, ws, noise);
  EXPECT_LT(spectral_entropy(tone), 0.5 * spectral_entropy(noise));
}

TEST(SpectralEntropy, ZeroForSilentSignal) {
  const RealVector x(512, 0.0);
  Workspace ws;
  Psd psd;
  periodogram_into(x, k_fs, ws, psd);
  EXPECT_DOUBLE_EQ(spectral_entropy(psd), 0.0);
}

}  // namespace
}  // namespace esl::dsp

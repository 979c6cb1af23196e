#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/random.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {
namespace {

constexpr Real k_pi = std::numbers::pi_v<Real>;

ComplexVector random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ComplexVector v(n);
  for (auto& x : v) {
    x = Complex(rng.normal(), rng.normal());
  }
  return v;
}

Real max_error(const ComplexVector& a, const ComplexVector& b) {
  EXPECT_EQ(a.size(), b.size());
  Real m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

TEST(PowerOfTwo, Detection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1023));
}

TEST(PowerOfTwo, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  ComplexVector x(8, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  Workspace ws;
  ComplexVector spectrum;
  fft_into(x, ws, spectrum);
  for (const auto& bin : spectrum) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantGivesDcOnly) {
  ComplexVector x(16, Complex(1.0, 0.0));
  Workspace ws;
  ComplexVector spectrum;
  fft_into(x, ws, spectrum);
  EXPECT_NEAR(spectrum[0].real(), 16.0, 1e-12);
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-10);
  }
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  ComplexVector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Real phase = 2.0 * k_pi * static_cast<Real>(tone * i) / static_cast<Real>(n);
    x[i] = Complex(std::cos(phase), 0.0);
  }
  Workspace ws;
  ComplexVector spectrum;
  fft_into(x, ws, spectrum);
  // cos -> two conjugate bins of magnitude n/2.
  EXPECT_NEAR(std::abs(spectrum[tone]), 32.0, 1e-9);
  EXPECT_NEAR(std::abs(spectrum[n - tone]), 32.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != tone && k != n - tone) {
      EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9) << "bin " << k;
    }
  }
}

class FftAgainstDftTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgainstDftTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const ComplexVector x = random_complex(n, 1234 + n);
  Workspace ws;
  ComplexVector fast;
  fft_into(x, ws, fast);
  const ComplexVector slow = dft_reference(x);
  EXPECT_LT(max_error(fast, slow), 1e-8 * static_cast<Real>(n));
}

TEST_P(FftAgainstDftTest, InverseRecoversInput) {
  const std::size_t n = GetParam();
  const ComplexVector x = random_complex(n, 999 + n);
  Workspace ws;
  ComplexVector spectrum;
  ComplexVector back;
  fft_into(x, ws, spectrum);
  ifft_into(spectrum, ws, back);
  EXPECT_LT(max_error(back, x), 1e-9 * static_cast<Real>(n));
}

TEST_P(FftAgainstDftTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  const ComplexVector x = random_complex(n, 777 + n);
  Workspace ws;
  ComplexVector spectrum;
  fft_into(x, ws, spectrum);
  Real time_energy = 0.0;
  for (const auto& v : x) {
    time_energy += std::norm(v);
  }
  Real freq_energy = 0.0;
  for (const auto& v : spectrum) {
    freq_energy += std::norm(v);
  }
  EXPECT_NEAR(freq_energy / static_cast<Real>(n), time_energy,
              1e-8 * time_energy);
}

// Powers of two exercise radix-2; the rest exercise Bluestein.
INSTANTIATE_TEST_SUITE_P(Sizes, FftAgainstDftTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 128, 3, 5, 7,
                                           12, 100, 255, 513));

TEST(Rfft, MatchesComplexFftHalfSpectrum) {
  Rng rng(5);
  RealVector x(128);
  for (auto& v : x) {
    v = rng.normal();
  }
  ComplexVector cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    cx[i] = Complex(x[i], 0.0);
  }
  Workspace ws;
  ComplexVector full;
  ComplexVector half;
  fft_into(cx, ws, full);
  rfft_into(x, ws, half);
  ASSERT_EQ(half.size(), 65u);
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-10);
  }
}

TEST(Rfft, HermitianSymmetryImplicit) {
  // Real input: X[n-k] = conj(X[k]); verify via the full transform.
  Rng rng(6);
  ComplexVector cx(32);
  for (auto& v : cx) {
    v = Complex(rng.normal(), 0.0);
  }
  Workspace ws;
  ComplexVector full;
  fft_into(cx, ws, full);
  for (std::size_t k = 1; k < 16; ++k) {
    EXPECT_NEAR(std::abs(full[32 - k] - std::conj(full[k])), 0.0, 1e-10);
  }
}

TEST(Fft, RejectsEmptyInput) {
  Workspace ws;
  ComplexVector out;
  EXPECT_THROW(fft_into(ComplexVector{}, ws, out), InvalidArgument);
  EXPECT_THROW(ifft_into(ComplexVector{}, ws, out), InvalidArgument);
  EXPECT_THROW(rfft_into(RealVector{}, ws, out), InvalidArgument);
}

TEST(FftRadix2, RejectsNonPowerOfTwo) {
  ComplexVector x(3);
  EXPECT_THROW(fft_radix2_inplace(x, false), InvalidArgument);
}

TEST(Fft, LinearityHolds) {
  const std::size_t n = 64;
  const ComplexVector a = random_complex(n, 10);
  const ComplexVector b = random_complex(n, 11);
  ComplexVector sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  Workspace ws;
  ComplexVector fa;
  ComplexVector fb;
  ComplexVector fsum;
  fft_into(a, ws, fa);
  fft_into(b, ws, fb);
  fft_into(sum, ws, fsum);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(fsum[k] - (2.0 * fa[k] + 3.0 * fb[k])), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace esl::dsp

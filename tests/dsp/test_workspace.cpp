// Bit-parity suite for the workspace-threaded DSP functions.
//
// Warm equals cold: every `*_into(..., Workspace&)` call on one
// long-lived workspace has to reproduce the same call on a fresh
// workspace exactly — across odd / even / power-of-two lengths (radix-2
// vs Bluestein FFT, odd-length DWT periodization) and 1–7 decomposition
// levels. Reusing the workspace across geometries exercises the
// twiddle, chirp, taper and frequency-grid cache invalidation.
// Power-of-two FFTs are additionally held to the scalar
// fft_radix2_inplace reference.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {
namespace {

RealVector noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

ComplexVector complex_noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ComplexVector x(n);
  for (auto& v : x) {
    v = Complex(rng.normal(), rng.normal());
  }
  return x;
}

void expect_identical(const RealVector& expected, const RealVector& actual,
                      const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " diverges at index " << i;
  }
}

void expect_identical(const ComplexVector& expected,
                      const ComplexVector& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].real(), actual[i].real())
        << what << " (real) diverges at index " << i;
    ASSERT_EQ(expected[i].imag(), actual[i].imag())
        << what << " (imag) diverges at index " << i;
  }
}

void expect_identical(const Psd& expected, const Psd& actual,
                      const char* what) {
  expect_identical(expected.frequency, actual.frequency, what);
  expect_identical(expected.density, actual.density, what);
}

void expect_identical(const WaveletDecomposition& expected,
                      const WaveletDecomposition& actual, const char* what) {
  ASSERT_EQ(expected.levels(), actual.levels()) << what;
  ASSERT_EQ(expected.signal_lengths, actual.signal_lengths) << what;
  for (std::size_t l = 0; l < expected.levels(); ++l) {
    expect_identical(expected.details[l], actual.details[l], what);
  }
  expect_identical(expected.approx, actual.approx, what);
}

// Power-of-two, even-composite and odd lengths: radix-2, Bluestein-even
// and Bluestein-odd code paths.
constexpr std::size_t k_lengths[] = {64, 256, 1024, 768, 1000, 257, 1023};

TEST(WorkspaceParity, FftMatchesAllocatingPath) {
  using Transform = void (*)(std::span<const Complex>, Workspace&,
                             ComplexVector&);
  Workspace ws;  // one workspace across every size: caches must invalidate
  ComplexVector out;
  ComplexVector expected;
  for (const std::size_t n : k_lengths) {
    const ComplexVector x = complex_noise(n, n);
    for (const Transform transform : {&fft_into, &ifft_into}) {
      const bool inverse = transform == &ifft_into;
      const char* what = inverse ? "ifft" : "fft";
      transform(x, ws, out);
      Workspace fresh;
      transform(x, fresh, expected);
      expect_identical(expected, out, what);
      if (is_power_of_two(n)) {
        ComplexVector reference(x);
        fft_radix2_inplace(reference, inverse);
        expect_identical(reference, out, what);
      }
    }
  }
}

TEST(WorkspaceParity, RfftMatchesAllocatingPath) {
  Workspace ws;
  ComplexVector out;
  ComplexVector expected;
  for (const std::size_t n : k_lengths) {
    const RealVector x = noise(n, n + 1);
    rfft_into(x, ws, out);
    Workspace fresh;
    rfft_into(x, fresh, expected);
    expect_identical(expected, out, "rfft");
  }
}

TEST(WorkspaceParity, PeriodogramMatchesAllocatingPath) {
  // The length and the sample rate alternate, so the cached frequency
  // grid is rebuilt on either key changing alone and reused when both
  // repeat.
  Workspace ws;
  Psd out;
  Psd expected;
  for (const std::size_t n : k_lengths) {
    const RealVector x = noise(n, 2 * n);
    for (const Real rate : {256.0, 173.0, 173.0, 256.0}) {
      periodogram_into(x, rate, ws, out);
      Workspace fresh;
      periodogram_into(x, rate, fresh, expected);
      expect_identical(expected, out, "periodogram");
      ASSERT_EQ(out.frequency.size(), n / 2 + 1);
      for (std::size_t k = 0; k < out.frequency.size(); ++k) {
        ASSERT_EQ(out.frequency[k],
                  static_cast<Real>(k) * rate / static_cast<Real>(n))
            << n << " samples at " << rate << " Hz, bin " << k;
      }
    }
  }
}

TEST(WorkspaceParity, PeriodogramIntoWorkspacePsdSlot) {
  // The result slot may be the workspace's own psd: the estimator must
  // not read it as scratch while writing it.
  Workspace ws;
  const RealVector x = noise(1000, 5);
  periodogram_into(x, 256.0, ws, ws.psd);
  Workspace fresh;
  Psd expected;
  periodogram_into(x, 256.0, fresh, expected);
  expect_identical(expected, ws.psd, "periodogram into slot");
}

TEST(WorkspaceParity, DwtSingleMatchesAllocatingPath) {
  // One analysis level, every Daubechies bank, even and odd lengths.
  Workspace ws;
  WaveletDecomposition expected;
  for (const std::size_t n : {16u, 33u, 256u, 1000u, 1023u}) {
    const RealVector x = noise(n, 3 * n);
    for (int vm = 1; vm <= 4; ++vm) {
      const Wavelet wavelet = Wavelet::daubechies(vm);
      wavedec_into(x, wavelet, 1, ws, ws.decomposition);
      Workspace fresh;
      wavedec_into(x, wavelet, 1, fresh, expected);
      expect_identical(expected, ws.decomposition, "dwt");
    }
  }
}

TEST(WorkspaceParity, WavedecMatchesAllocatingPathAcrossLevels) {
  Workspace ws;
  WaveletDecomposition expected;
  const Wavelet db4 = Wavelet::daubechies(4);
  for (const std::size_t n : {256u, 768u, 1000u, 1023u, 1024u}) {
    const RealVector x = noise(n, 4 * n);
    for (std::size_t levels = 1; levels <= 7; ++levels) {
      // Reuse one decomposition across level counts: shrinking and
      // growing the per-level buffers must not leave stale state.
      wavedec_into(x, db4, levels, ws, ws.decomposition);
      Workspace fresh;
      wavedec_into(x, db4, levels, fresh, expected);
      expect_identical(expected, ws.decomposition, "wavedec");
    }
  }
}

TEST(WorkspaceParity, WaveletEnergyDistributionIntoMatches) {
  const RealVector x = noise(1024, 9);
  Workspace ws;
  wavedec_into(x, Wavelet::daubechies(4), 7, ws, ws.decomposition);
  RealVector expected;
  wavelet_energy_distribution_into(ws.decomposition, expected);
  RealVector out = {1.0, 2.0, 3.0};  // stale contents must be discarded
  wavelet_energy_distribution_into(ws.decomposition, out);
  expect_identical(expected, out, "energy");
}

TEST(WorkspaceParity, InterleavedReuseKeepsParity) {
  // A long-lived per-session workspace sees many geometries; interleave
  // transforms of different sizes and re-verify against a fresh
  // workspace each time (catches any cache keyed on stale state).
  Workspace ws;
  Psd psd;
  ComplexVector spec;
  Psd expected_psd;
  ComplexVector expected_spec;
  WaveletDecomposition expected_dec;
  const Wavelet db4 = Wavelet::daubechies(4);
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t n : {1024u, 1000u, 257u}) {
      const RealVector x = noise(n, 17 * n + static_cast<std::size_t>(round));
      periodogram_into(x, 256.0, ws, psd);
      Workspace fresh_psd;
      periodogram_into(x, 256.0, fresh_psd, expected_psd);
      expect_identical(expected_psd, psd, "interleaved periodogram");
      rfft_into(x, ws, spec);
      Workspace fresh_spec;
      rfft_into(x, fresh_spec, expected_spec);
      expect_identical(expected_spec, spec, "interleaved rfft");
      wavedec_into(x, db4, 5, ws, ws.decomposition);
      Workspace fresh_dec;
      wavedec_into(x, db4, 5, fresh_dec, expected_dec);
      expect_identical(expected_dec, ws.decomposition, "interleaved wavedec");
    }
  }
}

}  // namespace
}  // namespace esl::dsp

// SIMD <-> scalar parity for the DSP kernel layer (common/simd.hpp).
//
// The kernels:: dispatch seam promises that every flavor — scalar,
// 128-bit, AVX2 — performs the same arithmetic in the same per-element
// order, so outputs are bit-identical, not merely close. These suites
// force each level the host supports and assert element-exact equality
// against the scalar flavor for every vectorized hot path: FFT
// butterflies (radix-2 and Bluestein), the even-length rfft split, the
// Hann periodogram (taper multiply + |X|^2 density), and the periodic
// DWT across levels 1-7. The even-length rfft specialization is
// additionally proven against the O(n^2) DFT oracle, since it is a
// genuinely different algorithm from the full transform.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/simd_level.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {
namespace {

using kernels::SimdLevel;
using LevelGuard = esl::testing::SimdLevelGuard;
using esl::testing::supported_simd_levels;

std::vector<SimdLevel> supported_levels() { return supported_simd_levels(); }

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

/// Odd, even-but-not-power-of-two, and power-of-two lengths: every FFT
/// routing (radix-2, Bluestein, half-complex split over both).
const std::size_t k_lengths[] = {2,  3,   4,   15,  16,  100, 255,
                                 256, 513, 768, 1000, 1024};

TEST(SimdParity, LevelDispatchClampsAndNames) {
  LevelGuard guard;
  EXPECT_EQ(kernels::set_active_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(kernels::active_level(), SimdLevel::kScalar);
  // Requesting more than the host supports clamps to the detected level.
  EXPECT_EQ(kernels::set_active_level(SimdLevel::kAvx2),
            kernels::detected_level());
  EXPECT_STREQ(kernels::level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(kernels::level_name(SimdLevel::kSse2), "sse2");
  EXPECT_STREQ(kernels::level_name(SimdLevel::kAvx2), "avx2");
}

TEST(SimdParity, FftAndInverseBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (const std::size_t n : k_lengths) {
    SCOPED_TRACE("n " + std::to_string(n));
    const ComplexVector x = complex_noise(n, 100 + n);

    kernels::set_active_level(SimdLevel::kScalar);
    Workspace scalar_ws;
    ComplexVector forward_reference;
    ComplexVector inverse_reference;
    fft_into(x, scalar_ws, forward_reference);
    ifft_into(x, scalar_ws, inverse_reference);

    for (const SimdLevel level : supported_levels()) {
      SCOPED_TRACE(kernels::level_name(level));
      kernels::set_active_level(level);
      Workspace ws;
      ComplexVector forward;
      ComplexVector inverse;
      fft_into(x, ws, forward);
      ifft_into(x, ws, inverse);
      EXPECT_EQ(forward, forward_reference);  // bit-identical, no tolerance
      EXPECT_EQ(inverse, inverse_reference);
    }
  }
}

TEST(SimdParity, RfftBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (const std::size_t n : k_lengths) {
    SCOPED_TRACE("n " + std::to_string(n));
    const RealVector x = noise(n, 200 + n);

    kernels::set_active_level(SimdLevel::kScalar);
    Workspace scalar_ws;
    ComplexVector reference;
    rfft_into(x, scalar_ws, reference);

    for (const SimdLevel level : supported_levels()) {
      SCOPED_TRACE(kernels::level_name(level));
      kernels::set_active_level(level);
      Workspace ws;
      ComplexVector out;
      rfft_into(x, ws, out);
      EXPECT_EQ(out, reference);
    }
  }
}

TEST(SimdParity, EvenLengthRfftSplitMatchesDftOracle) {
  // The half-complex split is a different algorithm from the full
  // transform it replaced, so prove it against the O(n^2) oracle at
  // every level (and at radix-2, Bluestein-half and n/2-odd routings).
  LevelGuard guard;
  for (const std::size_t n : {2u, 6u, 16u, 100u, 768u, 1024u}) {
    SCOPED_TRACE("n " + std::to_string(n));
    const RealVector x = noise(n, 300 + n);
    ComplexVector cx(n);
    for (std::size_t i = 0; i < n; ++i) {
      cx[i] = Complex(x[i], 0.0);
    }
    const ComplexVector oracle = dft_reference(cx);
    for (const SimdLevel level : supported_levels()) {
      SCOPED_TRACE(kernels::level_name(level));
      kernels::set_active_level(level);
      Workspace ws;
      ComplexVector out;
      rfft_into(x, ws, out);
      ASSERT_EQ(out.size(), n / 2 + 1);
      for (std::size_t k = 0; k < out.size(); ++k) {
        EXPECT_NEAR(std::abs(out[k] - oracle[k]), 0.0,
                    1e-9 * static_cast<Real>(n))
            << "bin " << k;
      }
    }
  }
}

TEST(SimdParity, PeriodogramBitIdenticalAcrossLevelsAndLengths) {
  LevelGuard guard;
  for (const std::size_t n : {15u, 16u, 768u, 1000u, 1024u}) {
    const RealVector x = noise(n, 400 + n);
    SCOPED_TRACE("n " + std::to_string(n));

    kernels::set_active_level(SimdLevel::kScalar);
    Workspace scalar_ws;
    Psd reference;
    periodogram_into(x, 256.0, scalar_ws, reference);

    for (const SimdLevel level : supported_levels()) {
      SCOPED_TRACE(kernels::level_name(level));
      kernels::set_active_level(level);
      Workspace ws;
      Psd psd;
      periodogram_into(x, 256.0, ws, psd);
      EXPECT_EQ(psd.frequency, reference.frequency);
      EXPECT_EQ(psd.density, reference.density);
    }
  }
}

TEST(SimdParity, WavedecBitIdenticalAcrossLevelsAndDepths) {
  LevelGuard guard;
  const Wavelet db4 = Wavelet::daubechies(4);
  for (const std::size_t n : {768u, 1000u, 1024u}) {
    const RealVector x = noise(n, 500 + n);
    for (std::size_t depth = 1; depth <= 7; ++depth) {
      SCOPED_TRACE("n " + std::to_string(n) + " depth " +
                   std::to_string(depth));

      kernels::set_active_level(SimdLevel::kScalar);
      Workspace scalar_ws;
      WaveletDecomposition reference;
      wavedec_into(x, db4, depth, scalar_ws, reference);

      for (const SimdLevel level : supported_levels()) {
        SCOPED_TRACE(kernels::level_name(level));
        kernels::set_active_level(level);
        Workspace ws;
        WaveletDecomposition decomposition;
        wavedec_into(x, db4, depth, ws, decomposition);
        EXPECT_EQ(decomposition.approx, reference.approx);
        ASSERT_EQ(decomposition.details.size(), reference.details.size());
        for (std::size_t d = 0; d < reference.details.size(); ++d) {
          EXPECT_EQ(decomposition.details[d], reference.details[d]);
        }
      }
    }
  }
}

TEST(SimdParity, MidStreamLevelFlipIsSeamless) {
  // Flipping the dispatch level between windows of one stream (as a
  // hot-swap or a bench would) must not disturb workspace caches or
  // results — every level reads/writes the same cached tables.
  LevelGuard guard;
  const RealVector x = noise(1024, 9001);
  kernels::set_active_level(SimdLevel::kScalar);
  Workspace reference_ws;
  Psd reference;
  periodogram_into(x, 256.0, reference_ws, reference);

  Workspace ws;
  Psd psd;
  const std::vector<SimdLevel> levels = supported_levels();
  for (std::size_t round = 0; round < 3 * levels.size(); ++round) {
    kernels::set_active_level(levels[round % levels.size()]);
    periodogram_into(x, 256.0, ws, psd);
    EXPECT_EQ(psd.density, reference.density) << "round " << round;
  }
}

}  // namespace
}  // namespace esl::dsp

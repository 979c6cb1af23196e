#include "sim/eeg_synth.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/workspace.hpp"

namespace esl::sim {
namespace {

TEST(PinkNoise, RoughlyUnitScaleAndZeroMean) {
  PinkNoise pink((Rng(1)));
  RealVector x(50000);
  for (auto& v : x) {
    v = pink.next();
  }
  EXPECT_NEAR(stats::mean(x), 0.0, 0.1);
  const Real sd = stats::stddev(x);
  EXPECT_GT(sd, 0.4);
  EXPECT_LT(sd, 2.5);
}

TEST(PinkNoise, SpectrumFallsWithFrequency) {
  PinkNoise pink((Rng(2)));
  RealVector x(65536);
  for (auto& v : x) {
    v = pink.next();
  }
  dsp::Workspace ws;
  dsp::Psd psd;
  dsp::periodogram_into(x, 256.0, ws, psd);
  // 1/f: average density in [1,4] Hz should clearly exceed [40,100] Hz.
  const Real low = dsp::band_power(psd, {1.0, 4.0}) / 3.0;
  const Real high = dsp::band_power(psd, {40.0, 100.0}) / 60.0;
  EXPECT_GT(low, 5.0 * high);
}

TEST(Background, LengthAndDeterminism) {
  BackgroundParams params;
  const RealVector a = synthesize_background(params, 4096, Rng(3));
  const RealVector b = synthesize_background(params, 4096, Rng(3));
  ASSERT_EQ(a.size(), 4096u);
  for (std::size_t i = 0; i < a.size(); i += 17) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Background, DifferentSeedsDiffer) {
  BackgroundParams params;
  const RealVector a = synthesize_background(params, 1024, Rng(4));
  const RealVector b = synthesize_background(params, 1024, Rng(5));
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Background, RmsTracksConfiguredAmplitude) {
  BackgroundParams params;
  params.pink_rms_uv = 30.0;
  params.alpha_rms_uv = 12.0;
  const RealVector x = synthesize_background(params, 131072, Rng(6));
  const Real rms = stats::rms(x);
  // Components add in power; total should be in the physiological range.
  EXPECT_GT(rms, 15.0);
  EXPECT_LT(rms, 80.0);
}

TEST(Background, AlphaBumpPresent) {
  BackgroundParams params;
  params.alpha_rms_uv = 25.0;  // exaggerate for a clear bump
  params.pink_rms_uv = 10.0;
  const RealVector x = synthesize_background(params, 131072, Rng(7));
  dsp::Workspace ws;
  dsp::Psd psd;
  dsp::periodogram_into(x, params.sample_rate_hz, ws, psd);
  const Real alpha_density = dsp::band_power(psd, dsp::bands::kAlpha) / 5.0;
  const Real beta_density = dsp::band_power(psd, {16.0, 30.0}) / 14.0;
  EXPECT_GT(alpha_density, 3.0 * beta_density);
}

TEST(Background, ScalesWithPinkAmplitude) {
  BackgroundParams quiet;
  quiet.pink_rms_uv = 10.0;
  quiet.alpha_rms_uv = 4.0;
  BackgroundParams loud = quiet;
  loud.pink_rms_uv = 40.0;
  loud.alpha_rms_uv = 16.0;
  const Real rms_quiet = stats::rms(synthesize_background(quiet, 32768, Rng(8)));
  const Real rms_loud = stats::rms(synthesize_background(loud, 32768, Rng(8)));
  EXPECT_GT(rms_loud, 2.5 * rms_quiet);
}

TEST(Background, RejectsBadParameters) {
  BackgroundParams params;
  EXPECT_THROW(synthesize_background(params, 4, Rng(1)), InvalidArgument);
  params.sample_rate_hz = 0.0;
  EXPECT_THROW(synthesize_background(params, 1024, Rng(1)), InvalidArgument);
}

}  // namespace
}  // namespace esl::sim

#include "sim/artifact_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/workspace.hpp"

namespace esl::sim {
namespace {

TEST(MotionArtifact, ConfinedToItsInterval) {
  RealVector channel(256 * 120, 0.0);
  MotionArtifactParams params;
  params.duration_s = 40.0;
  add_motion_artifact(channel, 256 * 30, params, Rng(1));
  EXPECT_DOUBLE_EQ(
      stats::rms(std::span<const Real>(channel).subspan(0, 256 * 30)), 0.0);
  EXPECT_GT(stats::rms(std::span<const Real>(channel).subspan(256 * 40, 256 * 20)),
            50.0);
  EXPECT_DOUBLE_EQ(
      stats::rms(std::span<const Real>(channel).subspan(256 * 71)), 0.0);
}

TEST(MotionArtifact, MuchLargerThanBackgroundScale) {
  RealVector channel(256 * 60, 0.0);
  MotionArtifactParams params;
  params.duration_s = 50.0;
  params.gain_uv = 420.0;
  add_motion_artifact(channel, 0, params, Rng(2));
  // Peak excursions in the hundreds of microvolts.
  EXPECT_GT(stats::max(channel) - stats::min(channel), 400.0);
}

TEST(MotionArtifact, EnergyIsLowFrequency) {
  RealVector channel(256 * 60, 0.0);
  MotionArtifactParams params;
  params.duration_s = 50.0;
  add_motion_artifact(channel, 0, params, Rng(3));
  const auto window = std::span<const Real>(channel).subspan(256 * 10, 8192);
  dsp::Workspace ws;
  dsp::Psd psd;
  dsp::periodogram_into(window, 256.0, ws, psd);
  EXPECT_GT(dsp::band_power(psd, {0.3, 4.0}),
            10.0 * dsp::band_power(psd, {8.0, 30.0}));
}

TEST(MotionArtifact, StartBeyondChannelIsNoOp) {
  RealVector channel(1024, 0.0);
  MotionArtifactParams params;
  add_motion_artifact(channel, 4096, params, Rng(4));
  EXPECT_DOUBLE_EQ(stats::rms(channel), 0.0);
}

TEST(MuscleArtifact, EnergyIsHighFrequency) {
  RealVector channel(256 * 30, 0.0);
  MuscleArtifactParams params;
  params.duration_s = 10.0;
  add_muscle_artifact(channel, 0, params, Rng(5));
  const auto window = std::span<const Real>(channel).subspan(256 * 2, 1024);
  dsp::Workspace ws;
  dsp::Psd psd;
  dsp::periodogram_into(window, 256.0, ws, psd);
  EXPECT_GT(dsp::band_power(psd, {20.0, 70.0}),
            5.0 * dsp::band_power(psd, {0.5, 10.0}));
}

TEST(MuscleArtifact, RespectsNyquistClamp) {
  RealVector channel(128 * 10, 0.0);
  MuscleArtifactParams params;
  params.sample_rate_hz = 128.0;
  params.high_hz = 70.0;  // above 0.45 * fs -> clamped internally
  params.duration_s = 5.0;
  add_muscle_artifact(channel, 0, params, Rng(6));
  EXPECT_GT(stats::rms(channel), 0.0);
}

TEST(BlinkArtifact, ProducesRequestedPulses) {
  RealVector channel(256 * 10, 0.0);
  BlinkArtifactParams params;
  params.blink_count = 3;
  params.blink_spacing_s = 2.0;
  params.blink_width_s = 0.3;
  add_blink_artifact(channel, 256, params, Rng(7));
  // Each pulse region is non-zero; the gaps between pulses are zero.
  const auto rms_at = [&](Seconds t, Seconds len) {
    return stats::rms(std::span<const Real>(channel).subspan(
        static_cast<std::size_t>(t * 256.0),
        static_cast<std::size_t>(len * 256.0)));
  };
  EXPECT_GT(rms_at(1.05, 0.2), 1.0);
  EXPECT_GT(rms_at(3.05, 0.2), 1.0);
  EXPECT_GT(rms_at(5.05, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(rms_at(2.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(rms_at(7.0, 2.0), 0.0);
}

TEST(BlinkArtifact, PulsesClipAtChannelEnd) {
  RealVector channel(256, 0.0);
  BlinkArtifactParams params;
  params.blink_count = 10;
  add_blink_artifact(channel, 128, params, Rng(8));
  EXPECT_EQ(channel.size(), 256u);
  EXPECT_GT(stats::rms(channel), 0.0);
}

TEST(Artifacts, Deterministic) {
  RealVector a(4096, 0.0);
  RealVector b(4096, 0.0);
  MotionArtifactParams params;
  params.duration_s = 10.0;
  add_motion_artifact(a, 0, params, Rng(9));
  add_motion_artifact(b, 0, params, Rng(9));
  for (std::size_t i = 0; i < a.size(); i += 7) {
    EXPECT_EQ(a[i], b[i]);
  }
}

}  // namespace
}  // namespace esl::sim

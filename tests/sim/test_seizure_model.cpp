#include "sim/seizure_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/workspace.hpp"

namespace esl::sim {
namespace {

TEST(IctalDischarge, AddsEnergyOnlyInsideInterval) {
  RealVector channel(256 * 120, 0.0);
  IctalParams params;
  params.duration_s = 30.0;
  add_ictal_discharge(channel, 256 * 40, params, 1.0, Rng(1));

  const auto rms_range = [&](std::size_t from, std::size_t to) {
    return stats::rms(std::span<const Real>(channel).subspan(from, to - from));
  };
  EXPECT_DOUBLE_EQ(rms_range(0, 256 * 40), 0.0);
  EXPECT_GT(rms_range(256 * 45, 256 * 65), 20.0);
  EXPECT_DOUBLE_EQ(rms_range(256 * 71, 256 * 120), 0.0);
}

TEST(IctalDischarge, PeakAmplitudeTracksGain) {
  RealVector channel(256 * 60, 0.0);
  IctalParams params;
  params.duration_s = 40.0;
  params.gain_uv = 100.0;
  params.ictal_noise_uv = 0.0;
  add_ictal_discharge(channel, 256 * 10, params, 1.0, Rng(2));
  const Real peak = stats::max(channel);
  EXPECT_GT(peak, 60.0);
  EXPECT_LT(peak, 140.0);
}

TEST(IctalDischarge, ChannelGainScalesLinearly) {
  RealVector full(256 * 60, 0.0);
  RealVector half(256 * 60, 0.0);
  IctalParams params;
  params.duration_s = 30.0;
  params.ictal_noise_uv = 0.0;
  add_ictal_discharge(full, 0, params, 1.0, Rng(3));
  add_ictal_discharge(half, 0, params, 0.5, Rng(3));
  for (std::size_t i = 0; i < full.size(); i += 31) {
    EXPECT_NEAR(half[i], 0.5 * full[i], 1e-9);
  }
}

TEST(IctalDischarge, FrequencyChirpsDownward) {
  RealVector channel(256 * 80, 0.0);
  IctalParams params;
  params.duration_s = 60.0;
  params.start_hz = 7.0;
  params.end_hz = 2.5;
  params.ictal_noise_uv = 0.0;
  params.harmonic_fraction = 0.0;
  add_ictal_discharge(channel, 256 * 5, params, 1.0, Rng(4));

  dsp::Workspace ws;
  dsp::Psd psd;
  const auto peak_hz = [&](Seconds t) {
    const auto window =
        std::span<const Real>(channel).subspan(static_cast<std::size_t>(t * 256), 2048);
    dsp::periodogram_into(window, 256.0, ws, psd);
    return dsp::peak_frequency(psd);
  };
  const Real early = peak_hz(10.0);  // near onset
  const Real late = peak_hz(55.0);   // near offset
  EXPECT_GT(early, late + 1.0);
  EXPECT_NEAR(early, 7.0, 1.5);
  EXPECT_NEAR(late, 2.5, 1.5);
}

TEST(IctalDischarge, EnergyConcentratesInThetaDelta) {
  RealVector channel(256 * 60, 0.0);
  IctalParams params;
  params.duration_s = 50.0;
  add_ictal_discharge(channel, 0, params, 1.0, Rng(5));
  const auto window = std::span<const Real>(channel).subspan(256 * 20, 4096);
  dsp::Workspace ws;
  dsp::Psd psd;
  dsp::periodogram_into(window, 256.0, ws, psd);
  const Real slow = dsp::band_power(psd, dsp::bands::kDelta) +
                    dsp::band_power(psd, dsp::bands::kTheta);
  EXPECT_GT(slow / dsp::total_power(psd), 0.6);
}

TEST(IctalDischarge, ClipsAtChannelEnd) {
  RealVector channel(256 * 20, 0.0);
  IctalParams params;
  params.duration_s = 60.0;  // longer than the remaining channel
  add_ictal_discharge(channel, 256 * 10, params, 1.0, Rng(6));
  EXPECT_GT(stats::rms(std::span<const Real>(channel).subspan(256 * 15)), 1.0);
  // No out-of-bounds write is the real check (ASAN-level); length intact.
  EXPECT_EQ(channel.size(), static_cast<std::size_t>(256 * 20));
}

TEST(IctalDischarge, OnsetBeyondChannelIsNoOp) {
  RealVector channel(1024, 0.0);
  IctalParams params;
  add_ictal_discharge(channel, 2048, params, 1.0, Rng(7));
  EXPECT_DOUBLE_EQ(stats::rms(channel), 0.0);
}

TEST(IctalDischarge, RejectsBadParameters) {
  RealVector channel(1024, 0.0);
  IctalParams params;
  params.duration_s = -1.0;
  EXPECT_THROW(add_ictal_discharge(channel, 0, params, 1.0, Rng(1)),
               InvalidArgument);
  params = IctalParams{};
  params.start_hz = 0.0;
  EXPECT_THROW(add_ictal_discharge(channel, 0, params, 1.0, Rng(1)),
               InvalidArgument);
}

TEST(Postictal, DecaysToZero) {
  RealVector channel(256 * 60, 0.0);
  PostictalParams params;
  params.tail_s = 30.0;
  params.gain_uv = 30.0;
  add_postictal_slowing(channel, 0, params, 1.0, Rng(8));
  const Real early = stats::rms(std::span<const Real>(channel).subspan(0, 256 * 5));
  const Real late =
      stats::rms(std::span<const Real>(channel).subspan(256 * 25, 256 * 5));
  EXPECT_GT(early, 3.0 * late);
  // Nothing after the tail.
  EXPECT_DOUBLE_EQ(
      stats::rms(std::span<const Real>(channel).subspan(256 * 31)), 0.0);
}

TEST(Postictal, ZeroTailIsNoOp) {
  RealVector channel(1024, 0.0);
  PostictalParams params;
  params.tail_s = 0.0;
  add_postictal_slowing(channel, 0, params, 1.0, Rng(9));
  EXPECT_DOUBLE_EQ(stats::rms(channel), 0.0);
}

TEST(Postictal, DominatedBySlowActivity) {
  RealVector channel(256 * 40, 0.0);
  PostictalParams params;
  params.tail_s = 35.0;
  params.gain_uv = 30.0;
  params.slow_hz = 1.5;
  add_postictal_slowing(channel, 0, params, 1.0, Rng(10));
  const auto window = std::span<const Real>(channel).subspan(0, 4096);
  dsp::Workspace ws;
  dsp::Psd psd;
  dsp::periodogram_into(window, 256.0, ws, psd);
  EXPECT_GT(dsp::relative_band_power(psd, dsp::bands::kDelta), 0.5);
}

}  // namespace
}  // namespace esl::sim

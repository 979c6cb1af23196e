#include "dsp/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/statistics.hpp"

namespace esl::dsp {
namespace {

constexpr Real k_pi = std::numbers::pi_v<Real>;
constexpr Real k_fs = 256.0;

RealVector sine(Real hz, std::size_t n, Real fs = k_fs) {
  RealVector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * k_pi * hz * static_cast<Real>(i) / fs);
  }
  return x;
}

/// RMS of the steady-state tail (skips the transient).
Real steady_rms(const RealVector& x) {
  const std::size_t skip = x.size() / 4;
  return stats::rms(std::span<const Real>(x).subspan(skip));
}

class ButterworthOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ButterworthOrderTest, LowpassMinus3dbAtCutoff) {
  const BiquadCascade lp = butterworth_lowpass(GetParam(), 20.0, k_fs);
  EXPECT_NEAR(lp.magnitude_at(20.0, k_fs), 1.0 / std::sqrt(2.0), 0.02);
}

TEST_P(ButterworthOrderTest, HighpassMinus3dbAtCutoff) {
  const BiquadCascade hp = butterworth_highpass(GetParam(), 20.0, k_fs);
  EXPECT_NEAR(hp.magnitude_at(20.0, k_fs), 1.0 / std::sqrt(2.0), 0.02);
}

TEST_P(ButterworthOrderTest, LowpassPassbandFlatStopbandRejects) {
  const std::size_t order = GetParam();
  const BiquadCascade lp = butterworth_lowpass(order, 20.0, k_fs);
  EXPECT_NEAR(lp.magnitude_at(2.0, k_fs), 1.0, 0.02);
  // At 4x cutoff the attenuation should be at least ~12 dB/order-ish.
  const Real stop = lp.magnitude_at(80.0, k_fs);
  EXPECT_LT(stop, std::pow(0.3, static_cast<Real>(order)));
}

TEST_P(ButterworthOrderTest, MonotonicMagnitude) {
  const BiquadCascade lp = butterworth_lowpass(GetParam(), 30.0, k_fs);
  Real previous = lp.magnitude_at(1.0, k_fs);
  for (Real f = 6.0; f < 120.0; f += 5.0) {
    const Real current = lp.magnitude_at(f, k_fs);
    EXPECT_LE(current, previous + 1e-9) << "at " << f << " Hz";
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ButterworthOrderTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8));

TEST(Butterworth, TimeDomainAttenuationMatchesResponse) {
  BiquadCascade lp = butterworth_lowpass(4, 10.0, k_fs);
  const RealVector pass = lp.filter(sine(2.0, 4096));
  lp.reset();
  const RealVector stop = lp.filter(sine(60.0, 4096));
  EXPECT_NEAR(steady_rms(pass), std::sqrt(0.5), 0.02);
  EXPECT_LT(steady_rms(stop), 0.01);
}

TEST(Butterworth, BandpassPassesCenterRejectsEdges) {
  // The HP+LP cascade of a narrow band keeps a few dB of insertion loss
  // at the center; the requirement is strong selectivity, not unity gain.
  const BiquadCascade bp = butterworth_bandpass(2, 8.0, 12.0, k_fs);
  const Real center = bp.magnitude_at(10.0, k_fs);
  EXPECT_GT(center, 0.6);
  EXPECT_LT(bp.magnitude_at(1.0, k_fs), 0.1);
  EXPECT_LT(bp.magnitude_at(50.0, k_fs), 0.1);
  EXPECT_GT(center, 5.0 * bp.magnitude_at(2.0, k_fs));
  EXPECT_GT(center, 5.0 * bp.magnitude_at(40.0, k_fs));
}

TEST(Butterworth, RejectsBadParameters) {
  EXPECT_THROW(butterworth_lowpass(0, 10.0, k_fs), InvalidArgument);
  EXPECT_THROW(butterworth_lowpass(2, 0.0, k_fs), InvalidArgument);
  EXPECT_THROW(butterworth_lowpass(2, 200.0, k_fs), InvalidArgument);
  EXPECT_THROW(butterworth_bandpass(2, 12.0, 8.0, k_fs), InvalidArgument);
}

TEST(Biquad, IdentityPassesSignalThrough) {
  BiquadCascade identity(std::vector<Biquad>{Biquad{}});
  const RealVector x = sine(10.0, 100);
  const RealVector y = identity.filter(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-12);
  }
}

TEST(Biquad, ResetClearsState) {
  BiquadCascade lp = butterworth_lowpass(2, 10.0, k_fs);
  const RealVector x = sine(5.0, 256);
  const RealVector first = lp.filter(x);
  lp.reset();
  const RealVector second = lp.filter(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], second[i]);
  }
}

}  // namespace
}  // namespace esl::dsp

#include "entropy/sample_entropy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/random.hpp"

namespace esl::entropy {
namespace {

RealVector random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

RealVector sine(std::size_t n, Real period) {
  constexpr Real pi = std::numbers::pi_v<Real>;
  RealVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * pi * static_cast<Real>(i) / period);
  }
  return v;
}

TEST(SampleEntropy, RegularSignalLowerThanNoise) {
  const RealVector regular = sine(300, 25.0);
  const RealVector noise = random_signal(300, 1);
  const Real h_regular = sample_entropy_relative(regular, 2, 0.2);
  const Real h_noise = sample_entropy_relative(noise, 2, 0.2);
  EXPECT_LT(h_regular, h_noise);
}

TEST(SampleEntropy, ConstantSignalIsZero) {
  const RealVector c(100, 2.0);
  EXPECT_DOUBLE_EQ(sample_entropy_relative(c, 2, 0.2), 0.0);
}

TEST(SampleEntropy, PeriodicSignalNearZero) {
  // A strictly periodic signal has almost every m-match extend to m+1.
  const RealVector x = sine(400, 20.0);
  EXPECT_LT(sample_entropy_relative(x, 2, 0.2), 0.3);
}

TEST(SampleEntropy, IncreasesWithTighterTolerance) {
  const RealVector x = random_signal(400, 2);
  const Real loose = sample_entropy_relative(x, 2, 0.5);
  const Real tight = sample_entropy_relative(x, 2, 0.15);
  EXPECT_GE(tight, loose);
}

TEST(SampleEntropy, PaperTolerancesOrdered) {
  // k = 0.2 is stricter than k = 0.35 -> entropy at least as large.
  const RealVector x = random_signal(200, 3);
  EXPECT_GE(sample_entropy_relative(x, 2, 0.2),
            sample_entropy_relative(x, 2, 0.35));
}

TEST(SampleEntropy, WhiteNoiseMatchesTheoryRoughly) {
  // For iid Gaussian noise with r = 0.2 sigma, SampEn(2) is ~2.2-3.0.
  const RealVector x = random_signal(2000, 4);
  const Real h = sample_entropy_relative(x, 2, 0.2);
  EXPECT_GT(h, 1.5);
  EXPECT_LT(h, 4.0);
}

TEST(SampleEntropy, ShortSignalConventionIsZero) {
  const RealVector tiny = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sample_entropy(tiny, 2, 0.1), 0.0);
}

TEST(SampleEntropy, TinyDwtLevelProducesFiniteValue) {
  // Level 6 of a 1024-sample window has 16 coefficients (paper setup).
  const RealVector level6 = random_signal(16, 5);
  const Real h02 = sample_entropy_relative(level6, 2, 0.2);
  const Real h035 = sample_entropy_relative(level6, 2, 0.35);
  EXPECT_TRUE(std::isfinite(h02));
  EXPECT_TRUE(std::isfinite(h035));
  EXPECT_GE(h02, 0.0);
}

TEST(SampleEntropy, NoMatchesReturnsRichmanMoormanBound) {
  // A steep ramp with tiny tolerance: B > 0 requires matches; with r
  // huge at m but no extension... construct: pairs equal at length m
  // but never at m+1.
  const RealVector x = {0.0, 0.0, 10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 30.0};
  const Real h = sample_entropy(x, 2, 0.5);
  const Real n_m = static_cast<Real>(x.size() - 2);
  EXPECT_NEAR(h, std::log(n_m * (n_m - 1.0)) - std::log(2.0), 1e-9);
}

TEST(SampleEntropy, RejectsBadParameters) {
  const RealVector x = random_signal(50, 6);
  EXPECT_THROW(sample_entropy(x, 0, 0.1), InvalidArgument);
  EXPECT_THROW(sample_entropy(x, 2, -0.1), InvalidArgument);
  EXPECT_THROW(sample_entropy_relative(x, 2, 0.0), InvalidArgument);
}

}  // namespace
}  // namespace esl::entropy

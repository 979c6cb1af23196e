#include "common/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"

namespace esl::stats {
namespace {

const RealVector k_simple = {1.0, 2.0, 3.0, 4.0, 5.0};

TEST(Mean, KnownValue) { EXPECT_DOUBLE_EQ(mean(k_simple), 3.0); }

TEST(Mean, SingleElement) {
  const RealVector one = {7.5};
  EXPECT_DOUBLE_EQ(mean(one), 7.5);
}

TEST(Mean, RejectsEmpty) {
  EXPECT_THROW(mean(RealVector{}), InvalidArgument);
}

TEST(Variance, KnownValue) {
  // Population variance of 1..5 is 2.
  EXPECT_DOUBLE_EQ(variance(k_simple), 2.0);
}

TEST(Variance, ZeroForConstant) {
  const RealVector c = {4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(variance(c), 0.0);
}

TEST(Stddev, SqrtOfVariance) {
  EXPECT_DOUBLE_EQ(stddev(k_simple), std::sqrt(2.0));
}

TEST(Median, OddCount) { EXPECT_DOUBLE_EQ(median(k_simple), 3.0); }

TEST(Median, EvenCountAveragesCenter) {
  const RealVector v = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Median, UnsortedInput) {
  const RealVector v = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(v), 5.0);
}

TEST(Median, RobustToOutlier) {
  const RealVector v = {1.0, 2.0, 3.0, 4.0, 1000.0};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

// k_simple is sorted ascending, as quantile_from_sorted requires.
TEST(Quantile, EndpointsAreMinMax) {
  EXPECT_DOUBLE_EQ(quantile_from_sorted(k_simple, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_from_sorted(k_simple, 1.0), 5.0);
}

TEST(Quantile, MidpointIsMedian) {
  EXPECT_DOUBLE_EQ(quantile_from_sorted(k_simple, 0.5), median(k_simple));
}

TEST(Quantile, LinearInterpolation) {
  const RealVector v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_from_sorted(v, 0.25), 2.5);
}

TEST(Quantile, RejectsOutOfRangeQ) {
  EXPECT_THROW(quantile_from_sorted(k_simple, -0.1), InvalidArgument);
  EXPECT_THROW(quantile_from_sorted(k_simple, 1.1), InvalidArgument);
}

TEST(GeometricMean, KnownValue) {
  const RealVector v = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(v), 4.0, 1e-12);
}

TEST(GeometricMean, EqualsValueForConstant) {
  const RealVector v = {0.5, 0.5, 0.5};
  EXPECT_NEAR(geometric_mean(v), 0.5, 1e-12);
}

TEST(GeometricMean, BelowArithmeticMean) {
  const RealVector v = {1.0, 9.0};
  EXPECT_LT(geometric_mean(v), mean(v));
}

TEST(GeometricMean, RejectsNonPositive) {
  const RealVector v = {1.0, 0.0};
  EXPECT_THROW(geometric_mean(v), InvalidArgument);
}

TEST(Skewness, ZeroForSymmetric) {
  EXPECT_NEAR(skewness(k_simple), 0.0, 1e-12);
}

TEST(Skewness, PositiveForRightTail) {
  const RealVector v = {1.0, 1.0, 1.0, 1.0, 10.0};
  EXPECT_GT(skewness(v), 1.0);
}

TEST(Skewness, ZeroForConstant) {
  const RealVector v = {2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(skewness(v), 0.0);
}

TEST(Kurtosis, NegativeForUniformLike) {
  // Uniform distribution has excess kurtosis -1.2.
  RealVector v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<Real>(i));
  }
  EXPECT_NEAR(kurtosis_excess(v), -1.2, 0.05);
}

TEST(Kurtosis, ZeroForConstant) {
  const RealVector v = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(kurtosis_excess(v), 0.0);
}

TEST(Rms, KnownValue) {
  const RealVector v = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(rms(v), std::sqrt(12.5));
}

TEST(MinMax, KnownValues) {
  EXPECT_DOUBLE_EQ(min(k_simple), 1.0);
  EXPECT_DOUBLE_EQ(max(k_simple), 5.0);
}

TEST(LineLength, MonotonicEqualsRange) {
  EXPECT_DOUBLE_EQ(line_length(k_simple), 4.0);
}

TEST(LineLength, ZigZagSumsAbsoluteSteps) {
  const RealVector v = {0.0, 1.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(line_length(v), 3.0);
}

TEST(ZeroCrossings, SineLikePattern) {
  const RealVector v = {1.0, -1.0, 1.0, -1.0, 1.0};
  EXPECT_EQ(zero_crossings(v), 4u);
}

TEST(ZeroCrossings, MonotonicCrossesOnce) {
  EXPECT_EQ(zero_crossings(k_simple), 1u);
}

TEST(RunningStats, MatchesBatchComputation) {
  RunningStats acc;
  for (const Real v : k_simple) {
    acc.add(v);
  }
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.mean(), mean(k_simple));
  EXPECT_NEAR(acc.variance(), variance(k_simple), 1e-12);
  EXPECT_NEAR(acc.stddev(), stddev(k_simple), 1e-12);
}

TEST(RunningStats, NumericallyStableWithLargeOffset) {
  RunningStats acc;
  const Real offset = 1.0e9;
  for (int i = 0; i < 1000; ++i) {
    acc.add(offset + static_cast<Real>(i % 2));
  }
  EXPECT_NEAR(acc.variance(), 0.25, 1e-6);
}

TEST(RunningStats, ThrowsBeforeFirstSample) {
  RunningStats acc;
  EXPECT_THROW(acc.mean(), InvalidArgument);
  EXPECT_THROW(acc.variance(), InvalidArgument);
}

/// hjorth_parameters with throwaway derivative scratch.
Hjorth hjorth_of(std::span<const Real> values) {
  RealVector d1;
  RealVector d2;
  return hjorth_parameters(values, d1, d2);
}

TEST(Hjorth, ActivityIsVariance) {
  const Hjorth h = hjorth_of(k_simple);
  EXPECT_DOUBLE_EQ(h.activity, variance(k_simple));
}

TEST(Hjorth, LinearSignalHasZeroComplexity) {
  // First derivative constant -> second derivative zero.
  const Hjorth h = hjorth_of(k_simple);
  EXPECT_DOUBLE_EQ(h.complexity, 0.0);
}

TEST(Hjorth, FasterSignalHasHigherMobility) {
  RealVector slow;
  RealVector fast;
  constexpr Real pi = std::numbers::pi_v<Real>;
  for (int i = 0; i < 256; ++i) {
    slow.push_back(std::sin(2.0 * pi * 1.0 * i / 256.0));
    fast.push_back(std::sin(2.0 * pi * 16.0 * i / 256.0));
  }
  EXPECT_GT(hjorth_of(fast).mobility, hjorth_of(slow).mobility);
}

TEST(Hjorth, NeedsThreeSamples) {
  const RealVector v = {1.0, 2.0};
  EXPECT_THROW(hjorth_of(v), InvalidArgument);
}

}  // namespace
}  // namespace esl::stats

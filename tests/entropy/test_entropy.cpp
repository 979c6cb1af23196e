#include "entropy/entropy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "entropy/histogram.hpp"

namespace esl::entropy {
namespace {

// The binning core of renyi_of_signal.

TEST(Histogram, CountsAndRange) {
  const RealVector x = {0.0, 0.5, 1.0, 1.5, 2.0};
  std::vector<std::size_t> counts = {7, 7};  // stale contents are replaced
  const HistogramRange range = histogram_counts_into(x, 4, counts);
  EXPECT_EQ(counts.size(), 4u);
  EXPECT_DOUBLE_EQ(range.low, 0.0);
  EXPECT_DOUBLE_EQ(range.high, 2.0);
  std::size_t total = 0;
  for (const std::size_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, 5u);
}

TEST(Histogram, MaxValueLandsInLastBin) {
  const RealVector x = {0.0, 1.0};
  std::vector<std::size_t> counts;
  histogram_counts_into(x, 2, counts);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(Histogram, ConstantSignalSingleBin) {
  const RealVector x(10, 3.0);
  std::vector<std::size_t> counts;
  histogram_counts_into(x, 8, counts);
  ASSERT_EQ(counts.size(), 8u);
  EXPECT_EQ(counts[0], 10u);
  for (std::size_t b = 1; b < 8; ++b) {
    EXPECT_EQ(counts[b], 0u);
  }
}

TEST(Histogram, RejectsBadInputs) {
  const RealVector x = {1.0};
  std::vector<std::size_t> counts;
  EXPECT_THROW(histogram_counts_into(x, 0, counts), InvalidArgument);
  EXPECT_THROW(histogram_counts_into(RealVector{}, 4, counts),
               InvalidArgument);
}

TEST(Shannon, UniformIsLogN) {
  const RealVector p = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(shannon(p), std::log(4.0), 1e-12);
}

TEST(Shannon, DegenerateIsZero) {
  const RealVector p = {1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(shannon(p), 0.0);
}

TEST(Shannon, KnownBinaryEntropy) {
  const RealVector p = {0.5, 0.5};
  EXPECT_NEAR(shannon(p), std::log(2.0), 1e-12);
}

TEST(Shannon, RejectsNonDistribution) {
  const RealVector not_normalized = {0.5, 0.2};
  EXPECT_THROW(shannon(not_normalized), InvalidArgument);
  const RealVector negative = {1.2, -0.2};
  EXPECT_THROW(shannon(negative), InvalidArgument);
}

TEST(Renyi, UniformIsLogNForAllOrders) {
  const RealVector p = {0.25, 0.25, 0.25, 0.25};
  for (const Real alpha : {0.5, 2.0, 3.0, 10.0}) {
    EXPECT_NEAR(renyi(p, alpha), std::log(4.0), 1e-12) << "alpha " << alpha;
  }
}

TEST(Renyi, ConvergesToShannonAsAlphaApproachesOne) {
  const RealVector p = {0.7, 0.2, 0.1};
  const Real target = shannon(p);
  EXPECT_NEAR(renyi(p, 1.0001), target, 1e-3);
  EXPECT_NEAR(renyi(p, 0.9999), target, 1e-3);
}

TEST(Renyi, DecreasingInAlpha) {
  const RealVector p = {0.6, 0.3, 0.1};
  EXPECT_GE(renyi(p, 0.5), renyi(p, 2.0));
  EXPECT_GE(renyi(p, 2.0), renyi(p, 5.0));
}

TEST(Renyi, CollisionEntropyKnownValue) {
  // alpha=2: -log(sum p^2).
  const RealVector p = {0.5, 0.5};
  EXPECT_NEAR(renyi(p, 2.0), -std::log(0.5), 1e-12);
}

TEST(Renyi, RejectsBadAlpha) {
  const RealVector p = {0.5, 0.5};
  EXPECT_THROW(renyi(p, 1.0), InvalidArgument);
  EXPECT_THROW(renyi(p, 0.0), InvalidArgument);
  EXPECT_THROW(renyi(p, -2.0), InvalidArgument);
}

TEST(SignalEntropy, NoiseAboveSine) {
  Rng rng(2);
  RealVector noise(1024);
  for (auto& v : noise) {
    v = rng.normal();
  }
  RealVector spiky(1024, 0.0);
  spiky[0] = 1.0;  // almost-constant signal: tight distribution
  std::vector<std::size_t> counts;
  RealVector probabilities;
  EXPECT_GT(renyi_of_signal(noise, 2.0, 16, counts, probabilities),
            renyi_of_signal(spiky, 2.0, 16, counts, probabilities));
}

TEST(SignalEntropy, ConstantSignalIsZero) {
  const RealVector c(64, 5.0);
  std::vector<std::size_t> counts;
  RealVector probabilities;
  EXPECT_DOUBLE_EQ(renyi_of_signal(c, 2.0, 16, counts, probabilities), 0.0);
}

TEST(SignalEntropy, BoundedByLogBins) {
  Rng rng(3);
  RealVector x(4096);
  for (auto& v : x) {
    v = rng.uniform();
  }
  std::vector<std::size_t> counts;
  RealVector probabilities;
  const Real h = renyi_of_signal(x, 2.0, 16, counts, probabilities);
  EXPECT_LE(h, std::log(16.0) + 1e-9);
  EXPECT_NEAR(h, std::log(16.0), 0.02);
}

}  // namespace
}  // namespace esl::entropy

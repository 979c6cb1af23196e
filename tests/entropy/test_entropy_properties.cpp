// Parameterized property sweeps over the entropy measures.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/random.hpp"
#include "entropy/entropy.hpp"
#include "entropy/permutation_entropy.hpp"
#include "entropy/sample_entropy.hpp"

namespace esl::entropy {
namespace {

RealVector noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

std::size_t factorial(std::size_t n) {
  std::size_t f = 1;
  for (std::size_t i = 2; i <= n; ++i) {
    f *= i;
  }
  return f;
}

class PeOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PeOrderTest, NoiseApproachesMaximumEntropy) {
  const std::size_t order = GetParam();
  const RealVector x = noise(60000, 100 + order);
  std::vector<std::size_t> counts;
  const Real h = permutation_entropy(x, order, 1, counts);
  const Real h_max = std::log(static_cast<Real>(factorial(order)));
  EXPECT_GT(h, 0.9 * h_max);
  EXPECT_LE(h, h_max + 1e-9);
}

TEST_P(PeOrderTest, BoundedByLogFactorial) {
  const std::size_t order = GetParam();
  std::vector<std::size_t> counts;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RealVector x = noise(200, seed);
    EXPECT_LE(permutation_entropy(x, order, 1, counts),
              std::log(static_cast<Real>(factorial(order))) + 1e-9);
  }
}

TEST_P(PeOrderTest, InvariantUnderAffinePositiveTransform) {
  const std::size_t order = GetParam();
  const RealVector x = noise(500, 200 + order);
  RealVector scaled(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    scaled[i] = 7.5 * x[i] + 100.0;
  }
  std::vector<std::size_t> counts;
  EXPECT_DOUBLE_EQ(permutation_entropy(x, order, 1, counts),
                   permutation_entropy(scaled, order, 1, counts));
}

TEST_P(PeOrderTest, NegationReversesPatternsButKeepsEntropy) {
  // Negation maps every ordinal pattern to its mirror — a bijection on
  // patterns, so the entropy (a permutation-invariant functional of the
  // distribution) is unchanged.
  const std::size_t order = GetParam();
  const RealVector x = noise(500, 300 + order);
  RealVector negated(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    negated[i] = -x[i];
  }
  std::vector<std::size_t> counts;
  EXPECT_NEAR(permutation_entropy(x, order, 1, counts),
              permutation_entropy(negated, order, 1, counts), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Orders, PeOrderTest, ::testing::Values(2, 3, 4, 5));

class SampEnMTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SampEnMTest, RegularBelowNoiseForAllTemplateLengths) {
  const std::size_t m = GetParam();
  constexpr Real pi = std::numbers::pi_v<Real>;
  RealVector regular(400);
  for (std::size_t i = 0; i < regular.size(); ++i) {
    regular[i] = std::sin(2.0 * pi * static_cast<Real>(i) / 25.0);
  }
  const RealVector random = noise(400, 400 + m);
  EXPECT_LT(sample_entropy_relative(regular, m, 0.2),
            sample_entropy_relative(random, m, 0.2));
}

TEST_P(SampEnMTest, ScaleInvarianceWithRelativeTolerance) {
  const std::size_t m = GetParam();
  const RealVector x = noise(300, 500 + m);
  RealVector scaled(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    scaled[i] = 1000.0 * x[i];
  }
  EXPECT_NEAR(sample_entropy_relative(x, m, 0.2),
              sample_entropy_relative(scaled, m, 0.2), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(TemplateLengths, SampEnMTest,
                         ::testing::Values(1, 2, 3));

class RenyiAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(RenyiAlphaTest, BoundedByLogSupportSize) {
  const Real alpha = GetParam();
  const RealVector p = {0.4, 0.3, 0.2, 0.1};
  EXPECT_LE(renyi(p, alpha), std::log(4.0) + 1e-12);
  EXPECT_GE(renyi(p, alpha), 0.0);
}

TEST_P(RenyiAlphaTest, MaximizedByUniform) {
  const Real alpha = GetParam();
  const RealVector uniform = {0.25, 0.25, 0.25, 0.25};
  const RealVector skewed = {0.7, 0.1, 0.1, 0.1};
  EXPECT_GT(renyi(uniform, alpha), renyi(skewed, alpha));
}

INSTANTIATE_TEST_SUITE_P(Alphas, RenyiAlphaTest,
                         ::testing::Values(0.5, 2.0, 3.0, 5.0));

}  // namespace
}  // namespace esl::entropy

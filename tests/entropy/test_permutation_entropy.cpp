#include "entropy/permutation_entropy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

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

TEST(OrdinalPattern, IdentityPermutationIsZero) {
  const RealVector ascending = {1.0, 2.0, 3.0};
  EXPECT_EQ(ordinal_pattern_index(ascending), 0u);
}

TEST(OrdinalPattern, ReversedIsLastIndex) {
  const RealVector descending = {3.0, 2.0, 1.0};
  EXPECT_EQ(ordinal_pattern_index(descending), 5u);  // 3! - 1
}

TEST(OrdinalPattern, AllOrderThreePatternsDistinct) {
  const std::vector<RealVector> patterns = {
      {1.0, 2.0, 3.0}, {1.0, 3.0, 2.0}, {2.0, 1.0, 3.0},
      {3.0, 1.0, 2.0}, {2.0, 3.0, 1.0}, {3.0, 2.0, 1.0},
  };
  std::vector<std::size_t> indices;
  for (const auto& p : patterns) {
    indices.push_back(ordinal_pattern_index(p));
  }
  std::sort(indices.begin(), indices.end());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
  }
}

TEST(OrdinalPattern, TiesBreakByTemporalOrder) {
  // Equal values: earlier sample ranks lower -> treated as ascending.
  const RealVector tied = {2.0, 2.0, 2.0};
  EXPECT_EQ(ordinal_pattern_index(tied), 0u);
}

TEST(OrdinalPattern, InvariantUnderMonotonicTransform) {
  const RealVector x = {0.3, -1.0, 2.5, 0.9};
  RealVector transformed(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    transformed[i] = std::exp(2.0 * x[i]) + 5.0;
  }
  EXPECT_EQ(ordinal_pattern_index(x), ordinal_pattern_index(transformed));
}

TEST(Distribution, RespectsDelay) {
  // Period-2 alternation looks monotone at delay 2.
  RealVector alt(64);
  for (std::size_t i = 0; i < alt.size(); ++i) {
    alt[i] = (i % 2 == 0) ? 0.0 : 1.0;
  }
  std::vector<std::size_t> counts;
  const Real pe_delay1 = permutation_entropy(alt, 3, 1, counts);
  const Real pe_delay2 = permutation_entropy(alt, 3, 2, counts);
  EXPECT_GT(pe_delay1, 0.0);
  EXPECT_NEAR(pe_delay2, 0.0, 1e-12);
}

TEST(PermutationEntropy, ZeroForMonotonicSignal) {
  RealVector ramp(64);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<Real>(i) * 0.5;
  }
  std::vector<std::size_t> counts;
  EXPECT_NEAR(permutation_entropy(ramp, 5, 1, counts), 0.0, 1e-12);
}

TEST(PermutationEntropy, NearMaximalForWhiteNoise) {
  const RealVector x = random_signal(20000, 2);
  std::vector<std::size_t> counts;
  const Real h = permutation_entropy(x, 3, 1, counts);
  EXPECT_NEAR(h, std::log(6.0), 0.01);
}

TEST(PermutationEntropy, RegularSignalBelowNoise) {
  constexpr Real pi = std::numbers::pi_v<Real>;
  RealVector sine(512);
  for (std::size_t i = 0; i < sine.size(); ++i) {
    sine[i] = std::sin(2.0 * pi * static_cast<Real>(i) / 32.0);
  }
  const RealVector noise = random_signal(512, 3);
  std::vector<std::size_t> counts;
  EXPECT_LT(permutation_entropy(sine, 4, 1, counts),
            permutation_entropy(noise, 4, 1, counts));
}

TEST(PermutationEntropy, ShortSignalConventionIsZero) {
  const RealVector tiny = {1.0, 2.0};
  std::vector<std::size_t> counts;
  EXPECT_DOUBLE_EQ(permutation_entropy(tiny, 5, 1, counts), 0.0);
}

TEST(PermutationEntropy, PaperOrdersOnTinyDwtLevels) {
  // Level 7 of a 1024-sample window has 8 coefficients; the paper's
  // n = 5 and n = 7 still have to produce finite values.
  const RealVector level7 = random_signal(8, 4);
  std::vector<std::size_t> counts;
  EXPECT_GE(permutation_entropy(level7, 5, 1, counts), 0.0);
  EXPECT_GE(permutation_entropy(level7, 7, 1, counts), 0.0);
  EXPECT_LE(permutation_entropy(level7, 7, 1, counts), std::log(2.0) + 1e-12);
}

// PE divided by its maximum log(order!) lies in [0, 1].
TEST(PermutationEntropyNormalized, LiesInUnitInterval) {
  const RealVector x = random_signal(300, 5);
  std::vector<std::size_t> counts;
  for (const auto& [order, order_factorial] :
       {std::pair{3u, 6.0}, std::pair{4u, 24.0}, std::pair{5u, 120.0}}) {
    const Real h = permutation_entropy(x, order, 1, counts) /
                   std::log(order_factorial);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
}

TEST(PermutationEntropyNormalized, WhiteNoiseNearOne) {
  const RealVector x = random_signal(50000, 6);
  std::vector<std::size_t> counts;
  EXPECT_GT(permutation_entropy(x, 3, 1, counts) / std::log(6.0), 0.99);
}

TEST(Distribution, RejectsBadParameters) {
  const RealVector x = random_signal(50, 7);
  std::vector<std::size_t> counts;
  EXPECT_THROW(permutation_entropy(x, 1, 1, counts), InvalidArgument);
  EXPECT_THROW(permutation_entropy(x, 11, 1, counts), InvalidArgument);
  EXPECT_THROW(permutation_entropy(x, 3, 0, counts), InvalidArgument);
}

TEST(OrdinalPattern, RejectsOversizedWindow) {
  const RealVector x(11, 0.0);
  EXPECT_THROW(ordinal_pattern_index(x), InvalidArgument);
}

}  // namespace
}  // namespace esl::entropy

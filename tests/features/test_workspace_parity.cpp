// Bit-parity of the workspace-threaded feature extraction seam.
//
// Warm equals cold: extract_into on one long-lived workspace (the
// per-session pattern the streaming engine uses) must reproduce the same
// call on a fresh workspace exactly — per window, across window lengths
// that exercise both FFT code paths and the odd-length DWT
// periodization, and as the workspace moves between geometries. Also
// covers the scratch-taking stats / entropy functions the extractors are
// built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "common/statistics.hpp"
#include "dsp/workspace.hpp"
#include "entropy/entropy.hpp"
#include "entropy/permutation_entropy.hpp"
#include "features/eglass_features.hpp"
#include "features/paper_features.hpp"

namespace esl::features {
namespace {

RealVector noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

void expect_identical(const RealVector& expected, const RealVector& actual,
                      const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " diverges at index " << i;
  }
}

TEST(WorkspaceParity, EglassExtractIntoMatchesExtract) {
  const EglassFeatureExtractor extractor(2);
  dsp::Workspace workspace;  // reused across lengths and windows
  RealVector row;
  RealVector expected;
  for (const std::size_t length : {256u, 768u, 1000u, 1024u}) {
    for (int w = 0; w < 3; ++w) {
      const RealVector a = noise(length, 100 * length + 2 * w);
      const RealVector b = noise(length, 100 * length + 2 * w + 1);
      const std::vector<std::span<const Real>> window = {a, b};
      extractor.extract_into(window, 256.0, row, workspace);
      dsp::Workspace fresh;
      extractor.extract_into(window, 256.0, expected, fresh);
      expect_identical(expected, row, "e-Glass row");
    }
  }
}

TEST(WorkspaceParity, PaperExtractIntoMatchesExtract) {
  const PaperFeatureExtractor extractor;
  dsp::Workspace workspace;
  RealVector row;
  RealVector expected;
  for (const std::size_t length : {512u, 1000u, 1024u}) {
    for (int w = 0; w < 3; ++w) {
      const RealVector a = noise(length, 200 * length + 2 * w);
      const RealVector b = noise(length, 200 * length + 2 * w + 1);
      const std::vector<std::span<const Real>> window = {a, b};
      extractor.extract_into(window, 256.0, row, workspace);
      dsp::Workspace fresh;
      extractor.extract_into(window, 256.0, expected, fresh);
      expect_identical(expected, row, "paper row");
    }
  }
}

TEST(WorkspaceParity, QuantileFromSortedMatchesSelection) {
  // The e-Glass IQR reads its two order statistics per quantile with
  // std::nth_element instead of a full sort; both must interpolate the
  // same ranks to the same bits.
  const RealVector x = noise(1001, 4);
  RealVector sorted(x);
  std::sort(sorted.begin(), sorted.end());
  for (const Real q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const Real position = q * static_cast<Real>(x.size() - 1);
    const auto lower = static_cast<std::size_t>(position);
    const std::size_t upper = std::min(lower + 1, x.size() - 1);
    RealVector selected(x);
    std::nth_element(selected.begin(), selected.begin() + lower,
                     selected.end());
    const Real at_lower = selected[lower];
    std::nth_element(selected.begin(), selected.begin() + upper,
                     selected.end());
    const Real weight = position - static_cast<Real>(lower);
    ASSERT_EQ((1.0 - weight) * at_lower + weight * selected[upper],
              stats::quantile_from_sorted(sorted, q))
        << "q = " << q;
  }
}

// Warm equals cold for the entropy scratch: one count vector reused
// across lengths and orders (crossing the sparse and dense paths) must
// give what a fresh one gives.
TEST(WorkspaceParity, PermutationEntropyScratchOverloadMatches) {
  std::vector<std::size_t> scratch;
  for (const std::size_t n : {8u, 16u, 500u, 8u}) {
    const RealVector x = noise(n, 6 * n);
    for (const std::size_t order : {3u, 5u, 7u}) {
      std::vector<std::size_t> fresh;
      ASSERT_EQ(entropy::permutation_entropy(x, order, 1, fresh),
                entropy::permutation_entropy(x, order, 1, scratch))
          << "n = " << n << ", order = " << order;
    }
  }
}

TEST(WorkspaceParity, RenyiOfSignalScratchOverloadMatches) {
  std::vector<std::size_t> counts;
  RealVector probabilities;
  const auto expect_fresh_scratch_agrees = [&](const RealVector& x) {
    std::vector<std::size_t> fresh_counts;
    RealVector fresh_probabilities;
    ASSERT_EQ(entropy::renyi_of_signal(x, 2.0, 16, fresh_counts,
                                       fresh_probabilities),
              entropy::renyi_of_signal(x, 2.0, 16, counts, probabilities));
  };
  for (const std::size_t n : {8u, 100u}) {
    expect_fresh_scratch_agrees(noise(n, 7 * n));
  }
  // Constant signal collapses into one bin.
  expect_fresh_scratch_agrees(RealVector(32, 1.5));
}

}  // namespace
}  // namespace esl::features

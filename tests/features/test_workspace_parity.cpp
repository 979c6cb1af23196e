// Bit-parity of the workspace-threaded feature extraction seam.
//
// Warm equals cold: extract_into on one long-lived workspace (the
// per-session pattern the streaming engine uses) must reproduce the same
// call on a fresh workspace exactly — per window, across window lengths
// that exercise both FFT code paths and the odd-length DWT
// periodization, and as the workspace moves between geometries. Also
// covers the scratch-aware stats / entropy overloads the extractors are
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

TEST(WorkspaceParity, QuantileFromSortedMatchesQuantile) {
  const RealVector x = noise(1001, 4);
  RealVector sorted(x);
  std::sort(sorted.begin(), sorted.end());
  for (const Real q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    ASSERT_EQ(stats::quantile(x, q), stats::quantile_from_sorted(sorted, q))
        << "q = " << q;
  }
}

TEST(WorkspaceParity, PermutationEntropyScratchOverloadMatches) {
  std::vector<std::size_t> scratch;
  // Short signals take the sparse path at high orders, long ones the
  // dense path; the scratch overload must match on both.
  for (const std::size_t n : {8u, 16u, 500u}) {
    const RealVector x = noise(n, 6 * n);
    for (const std::size_t order : {3u, 5u, 7u}) {
      ASSERT_EQ(entropy::permutation_entropy(x, order),
                entropy::permutation_entropy(x, order, 1, scratch))
          << "n = " << n << ", order = " << order;
    }
  }
}

TEST(WorkspaceParity, RenyiOfSignalScratchOverloadMatches) {
  std::vector<std::size_t> counts;
  RealVector probabilities;
  for (const std::size_t n : {8u, 100u}) {
    const RealVector x = noise(n, 7 * n);
    ASSERT_EQ(entropy::renyi_of_signal(x, 2.0, 16),
              entropy::renyi_of_signal(x, 2.0, 16, counts, probabilities));
  }
  // Constant signal collapses into one bin.
  const RealVector flat(32, 1.5);
  ASSERT_EQ(entropy::renyi_of_signal(flat, 2.0, 16),
            entropy::renyi_of_signal(flat, 2.0, 16, counts, probabilities));
}

}  // namespace
}  // namespace esl::features

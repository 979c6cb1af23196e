// Cross-checks between the feature extractors and the DSP substrate they
// are built on: each paper feature must equal the value obtained by
// composing the public DSP APIs directly. Catches silent drift between
// the pipeline and its parts.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"
#include "entropy/entropy.hpp"
#include "entropy/permutation_entropy.hpp"
#include "entropy/sample_entropy.hpp"
#include "features/eglass_features.hpp"
#include "features/paper_features.hpp"

namespace esl::features {
namespace {

RealVector random_window(std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(1024);
  for (auto& v : x) {
    v = rng.normal(0.0, 30.0);
  }
  return x;
}

class ConsistencySeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsistencySeedTest, SpectralFeaturesMatchDirectDspCalls) {
  const RealVector left = random_window(GetParam());
  const RealVector right = random_window(GetParam() + 1000);
  const PaperFeatureExtractor extractor;
  dsp::Workspace ws;
  RealVector features;
  extractor.extract_into({left, right}, 256.0, features, ws);

  dsp::Workspace direct;
  dsp::Psd psd_left;
  dsp::Psd psd_right;
  dsp::periodogram_into(left, 256.0, direct, psd_left);
  dsp::periodogram_into(right, 256.0, direct, psd_right);
  EXPECT_DOUBLE_EQ(features[0], dsp::band_power(psd_left, dsp::bands::kTheta));
  EXPECT_DOUBLE_EQ(features[1],
                   dsp::relative_band_power(psd_left, dsp::bands::kTheta));
  EXPECT_DOUBLE_EQ(features[2], dsp::band_power(psd_left, dsp::bands::kDelta));
  EXPECT_DOUBLE_EQ(features[3],
                   dsp::relative_band_power(psd_right, dsp::bands::kTheta));
}

TEST_P(ConsistencySeedTest, NonlinearFeaturesMatchDirectEntropyCalls) {
  const RealVector left = random_window(GetParam());
  const RealVector right = random_window(GetParam() + 2000);
  const PaperFeatureExtractor extractor;
  dsp::Workspace ws;
  RealVector features;
  extractor.extract_into({left, right}, 256.0, features, ws);

  dsp::Workspace direct;
  dsp::WaveletDecomposition dec;
  dsp::wavedec_into(right, dsp::Wavelet::daubechies(4), 7, direct, dec);
  std::vector<std::size_t> counts;
  RealVector probabilities;
  EXPECT_DOUBLE_EQ(features[4], entropy::permutation_entropy(
                                    dec.detail_at_level(7), 5, 1, counts));
  EXPECT_DOUBLE_EQ(features[5], entropy::permutation_entropy(
                                    dec.detail_at_level(7), 7, 1, counts));
  EXPECT_DOUBLE_EQ(features[6], entropy::permutation_entropy(
                                    dec.detail_at_level(6), 7, 1, counts));
  EXPECT_DOUBLE_EQ(features[7],
                   entropy::renyi_of_signal(dec.detail_at_level(3), 2.0, 16,
                                            counts, probabilities));
  EXPECT_DOUBLE_EQ(
      features[8],
      entropy::sample_entropy_relative(dec.detail_at_level(6), 2, 0.2));
  EXPECT_DOUBLE_EQ(
      features[9],
      entropy::sample_entropy_relative(dec.detail_at_level(6), 2, 0.35));
}

TEST_P(ConsistencySeedTest, EglassSpectralBlockMatchesDsp) {
  const RealVector window = random_window(GetParam() + 3000);
  const EglassFeatureExtractor extractor(1);
  dsp::Workspace ws;
  RealVector features;
  extractor.extract_into({window}, 256.0, features, ws);

  dsp::Workspace direct;
  dsp::Psd psd;
  dsp::periodogram_into(window, 256.0, direct, psd);
  // Spectral block starts after the 12 time-domain features.
  EXPECT_DOUBLE_EQ(features[12], dsp::total_power(psd));
  EXPECT_DOUBLE_EQ(features[13], dsp::band_power(psd, dsp::bands::kDelta));
  EXPECT_DOUBLE_EQ(features[17], dsp::band_power(psd, dsp::bands::kGamma));
  EXPECT_DOUBLE_EQ(features[23], dsp::spectral_edge_frequency(psd, 0.9));
  EXPECT_DOUBLE_EQ(features[24], dsp::peak_frequency(psd));
  EXPECT_DOUBLE_EQ(features[25], dsp::spectral_entropy(psd));
}

TEST_P(ConsistencySeedTest, EglassWaveletEnergiesMatchDistribution) {
  const RealVector window = random_window(GetParam() + 4000);
  const EglassFeatureExtractor extractor(1);
  dsp::Workspace ws;
  RealVector features;
  extractor.extract_into({window}, 256.0, features, ws);

  dsp::Workspace direct;
  dsp::WaveletDecomposition dec;
  dsp::wavedec_into(window, dsp::Wavelet::daubechies(4), 7, direct, dec);
  RealVector energy;
  dsp::wavelet_energy_distribution_into(dec, energy);
  // DWT block: 26 + (level-1)*4, third entry = energy fraction.
  for (std::size_t level = 1; level <= 7; ++level) {
    EXPECT_DOUBLE_EQ(features[26 + (level - 1) * 4 + 2], energy[level - 1])
        << "level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencySeedTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace esl::features

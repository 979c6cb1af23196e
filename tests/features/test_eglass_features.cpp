#include "features/eglass_features.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.hpp"
#include "dsp/workspace.hpp"
#include "features/extractor.hpp"
#include "sim/cohort.hpp"

namespace esl::features {
namespace {

TEST(EglassFeatures, FiftyFourPerChannel) {
  EXPECT_EQ(EglassFeatureExtractor::per_channel_names().size(),
            k_eglass_features_per_channel);
  const EglassFeatureExtractor two(2);
  EXPECT_EQ(two.feature_names().size(), 108u);
  const EglassFeatureExtractor one(1);
  EXPECT_EQ(one.feature_names().size(), 54u);
}

TEST(EglassFeatures, NamesAreUniqueAndPrefixed) {
  const EglassFeatureExtractor extractor(2);
  const auto names = extractor.feature_names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_EQ(names[0].rfind("ch0.", 0), 0u);
  EXPECT_EQ(names[54].rfind("ch1.", 0), 0u);
}

TEST(EglassFeatures, OutputMatchesNameCount) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(0, 12.0, 1);
  const EglassFeatureExtractor extractor(2);
  const WindowedFeatures out = extract_windowed_features(record, extractor);
  EXPECT_EQ(out.features.cols(), 108u);
  EXPECT_EQ(out.count(), 9u);
}

TEST(EglassFeatures, AllValuesFinite) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(1, 20.0, 2);
  const EglassFeatureExtractor extractor(2);
  const WindowedFeatures out = extract_windowed_features(record, extractor);
  for (std::size_t w = 0; w < out.count(); ++w) {
    for (std::size_t f = 0; f < out.features.cols(); ++f) {
      EXPECT_TRUE(std::isfinite(out.features(w, f)))
          << "window " << w << " feature " << f;
    }
  }
}

TEST(EglassFeatures, ConstantWindowIsDegenerateButFinite) {
  const EglassFeatureExtractor extractor(1);
  const RealVector constant(1024, 5.0);
  dsp::Workspace ws;
  RealVector out;
  extractor.extract_into({constant}, 256.0, out, ws);
  ASSERT_EQ(out.size(), 54u);
  for (const Real v : out) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_DOUBLE_EQ(out[0], 5.0);  // mean
  EXPECT_DOUBLE_EQ(out[1], 0.0);  // variance
}

TEST(EglassFeatures, SeizureChangesManyFeatures) {
  const sim::CohortSimulator simulator;
  const auto& event = simulator.events().front();
  const auto record = simulator.synthesize_sample(event, 0, 600.0, 700.0);
  const auto seizure = record.seizures().front();

  const EglassFeatureExtractor extractor(2);
  const auto& samples0 = record.channel(0).samples;
  const auto& samples1 = record.channel(1).samples;
  const auto window_at = [&](Seconds t) {
    const std::size_t s = record.seconds_to_sample(t);
    return std::vector<std::span<const Real>>{
        std::span<const Real>(samples0).subspan(s, 1024),
        std::span<const Real>(samples1).subspan(s, 1024)};
  };
  dsp::Workspace ws;
  RealVector ictal;
  RealVector background;
  extractor.extract_into(window_at(seizure.midpoint()), 256.0, ictal, ws);
  extractor.extract_into(window_at(seizure.onset - 120.0), 256.0, background,
                         ws);
  std::size_t changed = 0;
  for (std::size_t f = 0; f < ictal.size(); ++f) {
    const Real denom = std::max({std::abs(background[f]), std::abs(ictal[f]), 1e-12});
    if (std::abs(ictal[f] - background[f]) / denom > 0.5) {
      ++changed;
    }
  }
  // A seizure should move a large part of the feature vector.
  EXPECT_GT(changed, 30u);
}

TEST(EglassFeatures, RejectsTooFewChannels) {
  const EglassFeatureExtractor extractor(2);
  const RealVector window(1024, 0.0);
  dsp::Workspace ws;
  RealVector out;
  EXPECT_THROW(extractor.extract_into({window}, 256.0, out, ws),
               InvalidArgument);
}

TEST(EglassFeatures, RejectsTinyWindows) {
  // The 7-level periodic db4 decomposition needs 65 samples, and the
  // extractor's own check says so before the decomposition runs.
  const EglassFeatureExtractor extractor(1);
  EXPECT_EQ(extractor.min_window_length(), 65u);
  dsp::Workspace ws;
  RealVector out;
  for (const std::size_t length : {8u, 64u}) {
    const RealVector window(length, 0.0);
    EXPECT_THROW(extractor.extract_into({window}, 256.0, out, ws),
                 InvalidArgument)
        << length << " samples";
  }
  RealVector shortest(65);
  for (std::size_t i = 0; i < shortest.size(); ++i) {
    shortest[i] = std::sin(0.3 * static_cast<Real>(i));
  }
  extractor.extract_into({shortest}, 16.25, out, ws);
  ASSERT_EQ(out.size(), 54u);
  for (const Real v : out) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(EglassFeatures, RejectsZeroChannels) {
  EXPECT_THROW(EglassFeatureExtractor{0}, InvalidArgument);
}

}  // namespace
}  // namespace esl::features

#include "features/extractor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "sim/cohort.hpp"

namespace esl::features {
namespace {

/// Trivial extractor: [mean(ch0), rms(ch1)].
class ProbeExtractor final : public WindowFeatureExtractor {
 public:
  std::vector<std::string> feature_names() const override {
    return {"mean0", "rms1"};
  }
  std::size_t required_channels() const override { return 2; }
  void extract_into(const std::vector<std::span<const Real>>& channels,
                    Real /*sample_rate_hz*/, RealVector& out,
                    dsp::Workspace& /*workspace*/) const override {
    out = {stats::mean(channels[0]), stats::rms(channels[1])};
  }
};

signal::EegRecord ramp_record(Seconds seconds = 20.0) {
  signal::EegRecord record(256.0, "ramp");
  const auto n = static_cast<std::size_t>(seconds * 256.0);
  RealVector ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    ramp[i] = static_cast<Real>(i);
  }
  record.add_channel(signal::montage::kF7T3, ramp);
  record.add_channel(signal::montage::kF8T4, RealVector(n, 2.0));
  return record;
}

TEST(Extractor, PaperPlanProducesOneRowPerSecond) {
  const signal::EegRecord record = ramp_record(20.0);
  const WindowedFeatures out =
      extract_windowed_features(record, ProbeExtractor{});
  // (20 - 4) / 1 + 1 = 17 windows.
  EXPECT_EQ(out.count(), 17u);
  EXPECT_EQ(out.features.cols(), 2u);
  EXPECT_DOUBLE_EQ(out.hop_seconds, 1.0);
  EXPECT_DOUBLE_EQ(out.window_seconds, 4.0);
}

TEST(Extractor, WindowStartTimesAreSeconds) {
  const WindowedFeatures out =
      extract_windowed_features(ramp_record(10.0), ProbeExtractor{});
  ASSERT_EQ(out.window_start_s.size(), 7u);
  for (std::size_t w = 0; w < out.count(); ++w) {
    EXPECT_DOUBLE_EQ(out.window_start_s[w], static_cast<Seconds>(w));
  }
}

TEST(Extractor, FeatureValuesComeFromCorrectWindows) {
  const WindowedFeatures out =
      extract_windowed_features(ramp_record(10.0), ProbeExtractor{});
  // mean of ramp window starting at second w: 256*w + 511.5.
  for (std::size_t w = 0; w < out.count(); ++w) {
    EXPECT_NEAR(out.features(w, 0), 256.0 * static_cast<Real>(w) + 511.5,
                1e-9);
    EXPECT_DOUBLE_EQ(out.features(w, 1), 2.0);
  }
}

TEST(Extractor, IndexSecondConversionsRoundTrip) {
  const WindowedFeatures out =
      extract_windowed_features(ramp_record(30.0), ProbeExtractor{});
  EXPECT_DOUBLE_EQ(out.index_to_seconds(5), 5.0);
  EXPECT_EQ(out.seconds_to_index(5.2), 5u);
  EXPECT_EQ(out.seconds_to_index(-1.0), 0u);
  EXPECT_EQ(out.seconds_to_index(1e9), out.count() - 1);
  EXPECT_THROW(out.index_to_seconds(out.count()), InvalidArgument);
}

TEST(Extractor, CustomOverlapChangesHop) {
  const WindowedFeatures out =
      extract_windowed_features(ramp_record(20.0), ProbeExtractor{}, 4.0, 0.5);
  EXPECT_DOUBLE_EQ(out.hop_seconds, 2.0);
  EXPECT_EQ(out.count(), 9u);  // (20-4)/2 + 1
}

TEST(Extractor, RejectsRecordWithTooFewChannels) {
  signal::EegRecord record(256.0, "mono");
  record.add_channel(signal::montage::kF7T3, RealVector(2560, 0.0));
  EXPECT_THROW(extract_windowed_features(record, ProbeExtractor{}),
               InvalidArgument);
}

TEST(Extractor, RejectsRecordShorterThanWindow) {
  signal::EegRecord record(256.0, "short");
  record.add_channel(signal::montage::kF7T3, RealVector(512, 0.0));
  record.add_channel(signal::montage::kF8T4, RealVector(512, 0.0));
  EXPECT_THROW(extract_windowed_features(record, ProbeExtractor{}),
               InvalidArgument);
}

}  // namespace
}  // namespace esl::features

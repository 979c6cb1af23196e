#include "features/streaming.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "features/paper_features.hpp"
#include "sim/cohort.hpp"

namespace esl::features {
namespace {

signal::EegRecord short_record() {
  const sim::CohortSimulator simulator;
  return simulator.synthesize_background_record(0, 20.0, 1);
}

std::vector<std::span<const Real>> record_views(
    const signal::EegRecord& record, std::size_t offset, std::size_t count) {
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(
        std::span<const Real>(record.channel(c).samples).subspan(offset, count));
  }
  return views;
}

/// Collects every emitted row (the sink owns copies; `row` spans are only
/// valid during on_window).
class RowCollector final : public WindowSink {
 public:
  void on_window(std::size_t /*index*/, Seconds /*start_s*/,
                 std::span<const Real> row) override {
    rows.emplace_back(row.begin(), row.end());
  }

  std::vector<RealVector> rows;
};

TEST(Streaming, MatchesBatchExtractionExactly) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  const WindowedFeatures batch = extract_windowed_features(record, extractor);

  StreamingExtractor streaming(extractor, record.sample_rate_hz());
  // Feed in odd-sized chunks to stress the buffering.
  RowCollector sink;
  std::size_t position = 0;
  const std::size_t total = record.length_samples();
  const std::size_t chunk_sizes[] = {1, 7, 250, 1024, 999, 3000};
  std::size_t chunk_index = 0;
  while (position < total) {
    const std::size_t chunk =
        std::min(chunk_sizes[chunk_index % 6], total - position);
    ++chunk_index;
    streaming.push(record_views(record, position, chunk), sink);
    position += chunk;
  }
  const std::vector<RealVector>& rows = sink.rows;

  ASSERT_EQ(rows.size(), batch.count());
  for (std::size_t w = 0; w < rows.size(); ++w) {
    const auto batch_row = batch.features.row(w);
    for (std::size_t f = 0; f < batch_row.size(); ++f) {
      EXPECT_EQ(rows[w][f], batch_row[f]) << "window " << w << " feature " << f;
    }
    EXPECT_DOUBLE_EQ(streaming.window_start_s(w), batch.window_start_s[w]);
  }
}

TEST(Streaming, EmitsNothingBeforeFirstFullWindow) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  RowCollector sink;
  EXPECT_EQ(streaming.push(record_views(record, 0, 1023), sink), 0u);
  EXPECT_TRUE(sink.rows.empty());
  EXPECT_EQ(streaming.emitted(), 0u);
  EXPECT_EQ(streaming.buffered(), 1023u);
}

TEST(Streaming, OneSampleCompletesTheWindow) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  RowCollector sink;
  streaming.push(record_views(record, 0, 1023), sink);
  EXPECT_EQ(streaming.push(record_views(record, 1023, 1), sink), 1u);
  EXPECT_EQ(sink.rows.size(), 1u);
  EXPECT_EQ(streaming.emitted(), 1u);
}

TEST(Streaming, LargeBlockEmitsManyWindows) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  RowCollector sink;
  const std::size_t emitted =
      streaming.push(record_views(record, 0, record.length_samples()), sink);
  // 20 s -> 17 windows at 4 s / 1 s hop.
  EXPECT_EQ(emitted, 17u);
  EXPECT_EQ(sink.rows.size(), 17u);
}

TEST(Streaming, GeometryAccessors) {
  const PaperFeatureExtractor extractor;
  const StreamingExtractor streaming(extractor, 256.0, 4.0, 0.75);
  EXPECT_EQ(streaming.window_length(), 1024u);
  EXPECT_EQ(streaming.hop(), 256u);
}

TEST(Streaming, WindowStartTimeValidation) {
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  EXPECT_THROW(streaming.window_start_s(0), InvalidArgument);
}

TEST(Streaming, PushValidatesChannelBlocks) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  RowCollector sink;
  // Too few channels.
  std::vector<std::span<const Real>> one = {
      std::span<const Real>(record.channel(0).samples).subspan(0, 100)};
  EXPECT_THROW(streaming.push(one, sink), InvalidArgument);
  // Mismatched lengths.
  std::vector<std::span<const Real>> uneven = {
      std::span<const Real>(record.channel(0).samples).subspan(0, 100),
      std::span<const Real>(record.channel(1).samples).subspan(0, 99)};
  EXPECT_THROW(streaming.push(uneven, sink), InvalidArgument);
}

TEST(Streaming, ConstructorValidation) {
  const PaperFeatureExtractor extractor;
  EXPECT_THROW(StreamingExtractor(extractor, 0.0), InvalidArgument);
  EXPECT_THROW(StreamingExtractor(extractor, 256.0, -1.0), InvalidArgument);
  EXPECT_THROW(StreamingExtractor(extractor, 256.0, 4.0, 1.0),
               InvalidArgument);
  // Shorter than the extractor's minimum window: 4 s at 16 Hz is 64
  // samples, one short of the 7-level periodic DWT's 65 (16.25 Hz).
  ASSERT_EQ(extractor.min_window_length(), 65u);
  EXPECT_THROW(StreamingExtractor(extractor, 16.0), InvalidArgument);
  EXPECT_EQ(StreamingExtractor(extractor, 16.25).window_length(), 65u);
}

}  // namespace
}  // namespace esl::features

#include "engine/patient_session.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "features/eglass_features.hpp"
#include "features/extractor.hpp"
#include "sim/cohort.hpp"

namespace esl::engine {
namespace {

/// Shared short background record (cheap) for chunking tests.
class PatientSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sim::CohortSimulator simulator;
    record_ = new signal::EegRecord(
        simulator.synthesize_background_record(0, 60.0, 11));
  }
  static void TearDownTestSuite() {
    delete record_;
    record_ = nullptr;
  }

  static std::vector<std::span<const Real>> chunk_views(
      const signal::EegRecord& record, std::size_t offset, std::size_t count) {
    std::vector<std::span<const Real>> views;
    for (std::size_t c = 0; c < record.channel_count(); ++c) {
      views.push_back(std::span<const Real>(record.channel(c).samples)
                          .subspan(offset, count));
    }
    return views;
  }

  /// Streams the whole record in `chunk` sized pieces.
  static void stream(PatientSession& session, const signal::EegRecord& record,
                     std::size_t chunk) {
    const std::size_t length = record.length_samples();
    for (std::size_t offset = 0; offset < length; offset += chunk) {
      const std::size_t n = std::min(chunk, length - offset);
      session.ingest(chunk_views(record, offset, n));
    }
  }

  static signal::EegRecord* record_;
};

signal::EegRecord* PatientSessionTest::record_ = nullptr;

TEST_F(PatientSessionTest, ChunkedFeatureRowsMatchBatchBitForBit) {
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);

  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  PatientSession session(0, extractor, config);
  stream(session, *record_, 997);  // prime-sized chunks, misaligned to hops

  ASSERT_EQ(session.pending().rows(), batch.count());
  EXPECT_EQ(session.pending(), batch.features);  // bit-for-bit
  for (std::size_t w = 0; w < batch.count(); ++w) {
    EXPECT_EQ(session.pending_window_indices()[w], w);
    EXPECT_DOUBLE_EQ(session.window_start_s(w), batch.window_start_s[w]);
  }
}

TEST_F(PatientSessionTest, SingleSampleChunksMatchBatch) {
  const features::EglassFeatureExtractor extractor(2);
  // 12 s is enough for a few windows while keeping 1-sample pushes cheap.
  const sim::CohortSimulator simulator;
  const signal::EegRecord record =
      simulator.synthesize_background_record(0, 12.0, 12);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(record, extractor);

  SessionConfig config;
  config.sample_rate_hz = record.sample_rate_hz();
  PatientSession session(1, extractor, config);
  stream(session, record, 1);

  ASSERT_EQ(session.pending().rows(), batch.count());
  EXPECT_EQ(session.pending(), batch.features);
}

TEST_F(PatientSessionTest, WindowsCompleteAtTheirLastSample) {
  // No row before the first full window; its last sample completes it;
  // one large block then completes every remaining window at once.
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  PatientSession session(10, extractor, config);

  EXPECT_EQ(session.ingest(chunk_views(*record_, 0, 1023)), 0u);
  EXPECT_TRUE(session.pending().empty());
  EXPECT_EQ(session.windows_emitted(), 0u);
  EXPECT_EQ(session.buffered_samples(), 1023u);
  EXPECT_THROW(session.window_start_s(0), InvalidArgument);

  EXPECT_EQ(session.ingest(chunk_views(*record_, 1023, 1)), 1u);
  EXPECT_EQ(session.windows_emitted(), 1u);
  EXPECT_EQ(session.buffered_samples(), 1024u - 256u);
  EXPECT_DOUBLE_EQ(session.window_start_s(0), 0.0);
  EXPECT_THROW(session.window_start_s(1), InvalidArgument);

  const std::size_t rest = record_->length_samples() - 1024;
  EXPECT_EQ(session.ingest(chunk_views(*record_, 1024, rest)),
            batch.count() - 1);
  EXPECT_EQ(session.pending(), batch.features);
}

TEST_F(PatientSessionTest, RejectedChunkLeavesSessionUnchanged) {
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;
  PatientSession session(11, extractor, config);
  const std::size_t half = record_->length_samples() / 2;
  session.ingest(chunk_views(*record_, 0, half));
  const std::size_t emitted = session.windows_emitted();
  const std::size_t buffered = session.buffered_samples();
  const signal::EegRecord history = session.history_record();

  const auto next = chunk_views(*record_, half, 100);
  const std::vector<std::span<const Real>> too_few = {next[0]};
  EXPECT_THROW(session.ingest(too_few), InvalidArgument);
  const std::vector<std::span<const Real>> uneven = {next[0],
                                                     next[1].first(99)};
  EXPECT_THROW(session.ingest(uneven), InvalidArgument);

  EXPECT_EQ(session.windows_emitted(), emitted);
  EXPECT_EQ(session.buffered_samples(), buffered);
  EXPECT_EQ(session.pending().rows(), emitted);
  const signal::EegRecord after = session.history_record();
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    EXPECT_EQ(after.channel(c).samples, history.channel(c).samples);
  }
  // The stream goes on as if the rejected chunks never arrived.
  session.ingest(chunk_views(*record_, half, record_->length_samples() - half));
  EXPECT_EQ(session.pending(), batch.features);
}

TEST_F(PatientSessionTest, ClearPendingKeepsGlobalWindowIndices) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  PatientSession session(2, extractor, config);

  const std::size_t half = record_->length_samples() / 2;
  session.ingest(chunk_views(*record_, 0, half));
  const std::size_t first_batch = session.pending().rows();
  ASSERT_GT(first_batch, 0u);
  session.clear_pending();
  EXPECT_EQ(session.pending().rows(), 0u);

  session.ingest(chunk_views(*record_, half, record_->length_samples() - half));
  ASSERT_GT(session.pending().rows(), 0u);
  // Indices continue the global counter instead of restarting at 0.
  EXPECT_EQ(session.pending_window_indices().front(), first_batch);
  EXPECT_EQ(session.windows_emitted(),
            first_batch + session.pending().rows());
}

TEST_F(PatientSessionTest, AlarmRunLengthPostProcessing) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.alarm_consecutive = 3;
  PatientSession session(3, extractor, config);

  EXPECT_FALSE(session.observe_label(1));
  EXPECT_FALSE(session.observe_label(1));
  EXPECT_TRUE(session.observe_label(1));   // third in a row -> alarm
  EXPECT_FALSE(session.observe_label(1));  // run continues, no re-alarm
  EXPECT_FALSE(session.observe_label(0));  // run broken
  EXPECT_FALSE(session.observe_label(1));
  EXPECT_FALSE(session.observe_label(1));
  EXPECT_TRUE(session.observe_label(1));   // new run -> second alarm
  EXPECT_EQ(session.alarms(), 2u);
}

TEST_F(PatientSessionTest, HistoryRecordHoldsLatestSignalTail) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;  // shorter than the 60 s record
  PatientSession session(4, extractor, config);
  stream(session, *record_, 1024);

  ASSERT_TRUE(session.history_enabled());
  EXPECT_DOUBLE_EQ(session.history_buffered_s(), 20.0);

  const signal::EegRecord history = session.history_record();
  ASSERT_EQ(history.channel_count(), record_->channel_count());
  EXPECT_EQ(history.channel(0).electrodes.label(), "F7-T3");
  EXPECT_EQ(history.channel(1).electrodes.label(), "F8-T4");

  const std::size_t tail = history.length_samples();
  const std::size_t offset = record_->length_samples() - tail;
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    const auto& expected = record_->channel(c).samples;
    const auto& actual = history.channel(c).samples;
    for (std::size_t i = 0; i < tail; ++i) {
      ASSERT_EQ(actual[i], expected[offset + i]) << "channel " << c
                                                 << " sample " << i;
    }
  }
}

TEST_F(PatientSessionTest, HistoryRingWrapsAroundOnLongStreams) {
  // Stream the 60 s record three times through a 20 s history ring: the
  // ring wraps many times and must still hold exactly the newest 20 s.
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 20.0;
  PatientSession session(7, extractor, config);
  for (int pass = 0; pass < 3; ++pass) {
    stream(session, *record_, 777);  // chunk size misaligned to the ring
  }

  EXPECT_DOUBLE_EQ(session.history_buffered_s(), 20.0);
  const signal::EegRecord history = session.history_record();
  const std::size_t tail = history.length_samples();
  const std::size_t offset = record_->length_samples() - tail;
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    const auto& expected = record_->channel(c).samples;
    const auto& actual = history.channel(c).samples;
    for (std::size_t i = 0; i < tail; ++i) {
      ASSERT_EQ(actual[i], expected[offset + i])
          << "channel " << c << " sample " << i;
    }
  }
}

TEST_F(PatientSessionTest, WindowsReadAcrossTheHistoryRingWrap) {
  // The windows are the newest samples of the ring that also holds the
  // history. 5.5 s is not a multiple of the 1 s hop, and the 60 s record
  // wraps the 5.5 s ring ten times, so many windows straddle the end of
  // its storage. Rows and history must not notice.
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = 5.5;
  PatientSession session(13, extractor, config);
  stream(session, *record_, 997);

  ASSERT_EQ(session.pending().rows(), batch.count());
  EXPECT_EQ(session.pending(), batch.features);  // bit-for-bit
  const signal::EegRecord history = session.history_record();
  ASSERT_EQ(history.length_samples(), 1408u);  // lround(5.5 * 256)
  const std::size_t offset = record_->length_samples() - 1408;
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    for (std::size_t i = 0; i < 1408; ++i) {
      ASSERT_EQ(history.channel(c).samples[i],
                record_->channel(c).samples[offset + i])
          << "channel " << c << " sample " << i;
    }
  }
}

TEST_F(PatientSessionTest, HistoryRecordAtExactlyOneWindowBoundary) {
  // history_seconds == window_seconds is the smallest legal ring. One
  // sample short of a window must still throw; the exact window length
  // must materialize.
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  config.history_seconds = config.window_seconds;  // capacity == 1 window
  PatientSession session(8, extractor, config);

  const auto window_length = static_cast<std::size_t>(
      config.window_seconds * config.sample_rate_hz);
  session.ingest(chunk_views(*record_, 0, window_length - 1));
  EXPECT_THROW(session.history_record(), InvalidArgument);

  session.ingest(chunk_views(*record_, window_length - 1, 1));
  const signal::EegRecord history = session.history_record();
  EXPECT_EQ(history.length_samples(), window_length);
  for (std::size_t c = 0; c < history.channel_count(); ++c) {
    for (std::size_t i = 0; i < window_length; ++i) {
      ASSERT_EQ(history.channel(c).samples[i], record_->channel(c).samples[i])
          << "channel " << c << " sample " << i;
    }
  }

  // Once the ring is full it stays exactly one window long and slides.
  session.ingest(chunk_views(*record_, window_length, 100));
  const signal::EegRecord slid = session.history_record();
  EXPECT_EQ(slid.length_samples(), window_length);
  EXPECT_EQ(slid.channel(0).samples[0], record_->channel(0).samples[100]);
}

TEST_F(PatientSessionTest, RejectsInvalidStreamGeometry) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig bad;
  bad.overlap = 1.0;  // hop would be zero
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.sample_rate_hz = -256.0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.window_seconds = 0.0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.alarm_consecutive = 0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  bad = SessionConfig{};
  bad.history_seconds = -1.0;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  // Shorter than the extractor's minimum window: 0.25 s at 256 Hz is 64
  // samples, one short of the 7-level periodic DWT's 65.
  ASSERT_EQ(extractor.min_window_length(), 65u);
  bad = SessionConfig{};
  bad.window_seconds = 0.25;
  EXPECT_THROW(PatientSession(9, extractor, bad), InvalidArgument);
  SessionConfig shortest;
  shortest.window_seconds = 65.0 / 256.0;
  EXPECT_NO_THROW(PatientSession(9, extractor, shortest));
}

TEST_F(PatientSessionTest, RejectsImplausiblyLargeStreamGeometry) {
  // Fuzz regression (fuzz/fuzz_ingest.cpp): finite-but-absurd rates used
  // to pass validation and reach lround(window_seconds * sample_rate_hz)
  // — long overflow, then a colossal ring allocation. validate() must
  // bound the products, not just the signs.
  SessionConfig bad;
  bad.sample_rate_hz = 1e30;
  EXPECT_THROW(validate(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.window_seconds = 1e18;
  EXPECT_THROW(validate(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.history_seconds = 1e20;
  EXPECT_THROW(validate(bad), InvalidArgument);
  // The paper's wearable geometry (and an aggressive-but-real research
  // rig at 20 kHz) stay accepted.
  SessionConfig fine;
  EXPECT_NO_THROW(validate(fine));
  fine.sample_rate_hz = 20000.0;
  fine.history_seconds = 3600.0;
  EXPECT_NO_THROW(validate(fine));
}

TEST_F(PatientSessionTest, HistoryDisabledByDefault) {
  const features::EglassFeatureExtractor extractor(2);
  PatientSession session(5, extractor, SessionConfig{});
  EXPECT_FALSE(session.history_enabled());
  EXPECT_THROW(session.history_record(), InvalidArgument);
}

TEST_F(PatientSessionTest, RejectsHistoryShorterThanWindow) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.history_seconds = 1.0;  // < 4 s window
  EXPECT_THROW(PatientSession(6, extractor, config), InvalidArgument);
}

}  // namespace
}  // namespace esl::engine

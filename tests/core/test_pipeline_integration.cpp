// Cross-module integration tests: the full §III pipeline assembled from
// its public pieces, including the streaming (edge) feature path of
// engine::PatientSession.
#include <gtest/gtest.h>

#include "core/aposteriori.hpp"
#include "core/deviation_metric.hpp"
#include "core/event_metrics.hpp"
#include "core/realtime_detector.hpp"
#include "engine/patient_session.hpp"
#include "features/paper_features.hpp"
#include "sim/cohort.hpp"

namespace esl::core {
namespace {

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simulator_ = new sim::CohortSimulator();
    const auto events = simulator_->events_for_patient(8);  // patient 9
    record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[0], 0, 500.0, 600.0));
  }
  static void TearDownTestSuite() {
    delete record_;
    delete simulator_;
    record_ = nullptr;
    simulator_ = nullptr;
  }

  static sim::CohortSimulator* simulator_;
  static signal::EegRecord* record_;
};

sim::CohortSimulator* PipelineIntegrationTest::simulator_ = nullptr;
signal::EegRecord* PipelineIntegrationTest::record_ = nullptr;

TEST_F(PipelineIntegrationTest, StreamingPathYieldsIdenticalLabel) {
  const features::PaperFeatureExtractor extractor;

  // Batch path.
  const features::WindowedFeatures batch =
      features::extract_windowed_features(*record_, extractor);

  // Streaming path: simulate the wearable receiving 256-sample packets.
  engine::SessionConfig config;
  config.sample_rate_hz = record_->sample_rate_hz();
  engine::PatientSession session(0, extractor, config);
  const std::size_t packet = 256;
  for (std::size_t pos = 0; pos < record_->length_samples(); pos += packet) {
    const std::size_t len =
        std::min(packet, record_->length_samples() - pos);
    std::vector<std::span<const Real>> block;
    for (std::size_t c = 0; c < record_->channel_count(); ++c) {
      block.push_back(
          std::span<const Real>(record_->channel(c).samples).subspan(pos, len));
    }
    session.ingest(block);
  }
  features::WindowedFeatures streamed;
  streamed.features = session.pending();
  for (const std::size_t w : session.pending_window_indices()) {
    streamed.window_start_s.push_back(session.window_start_s(w));
  }
  ASSERT_EQ(streamed.count(), batch.count());
  EXPECT_EQ(streamed.features, batch.features);  // bit-for-bit

  // Both feature paths must produce the same a-posteriori label.
  const Seconds w = simulator_->average_seizure_duration(8);
  const APosterioriDetector detector;
  const signal::Interval from_batch = detector.label(batch, w);
  const signal::Interval from_stream = detector.label(streamed, w);
  EXPECT_DOUBLE_EQ(from_batch.onset, from_stream.onset);
  EXPECT_DOUBLE_EQ(from_batch.offset, from_stream.offset);
}

TEST_F(PipelineIntegrationTest, LabelThenTrainThenEventEvaluate) {
  // 1. Label the record with Algorithm 1 (no expert).
  const features::PaperFeatureExtractor paper;
  const features::WindowedFeatures windowed =
      features::extract_windowed_features(*record_, paper);
  const Seconds w = simulator_->average_seizure_duration(8);
  const APosterioriDetector labeler;
  const signal::Interval label = labeler.label(windowed, w);

  // The label must be close to the (hidden) ground truth.
  EXPECT_LT(deviation_seconds(record_->seizures().front(), label), 30.0);

  // 2. Train the real-time detector on the self-labeled record.
  ml::Dataset train = build_window_dataset(*record_, {label});
  Rng rng(5);
  RealtimeDetector detector;
  detector.fit(ml::balance_classes(train, rng), 7);

  // 3. Event-level evaluation on a fresh record of the same patient.
  const auto events = simulator_->events_for_patient(8);
  const auto fresh = simulator_->synthesize_sample(events[1], 3, 500.0, 600.0);
  const std::vector<int> predictions = detector.predict_windows(fresh);
  std::vector<Seconds> starts(predictions.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    starts[i] = static_cast<Seconds>(i);
  }
  const EventEvaluation evaluation = evaluate_events(
      predictions, starts, fresh.seizures(), fresh.duration_seconds());
  EXPECT_EQ(evaluation.detected_events(), 1u);
  EXPECT_LT(evaluation.mean_latency_s(), 30.0);
  EXPECT_LT(evaluation.false_alarm_rate_per_hour(), 30.0);
}

TEST_F(PipelineIntegrationTest, DetectOnPrecomputedFeaturesMatchesLabel) {
  // label() is a convenience over detect(); verify they agree.
  const features::PaperFeatureExtractor paper;
  const features::WindowedFeatures windowed =
      features::extract_windowed_features(*record_, paper);
  const Seconds w = simulator_->average_seizure_duration(8);
  const APosterioriDetector detector;

  APosterioriResult diagnostics;
  const signal::Interval label = detector.label(windowed, w, &diagnostics);
  const APosterioriResult direct =
      detector.detect(windowed.features, diagnostics.window_points);
  EXPECT_EQ(direct.seizure_index, diagnostics.seizure_index);
  EXPECT_DOUBLE_EQ(windowed.index_to_seconds(direct.seizure_index),
                   label.onset);
}

}  // namespace
}  // namespace esl::core

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ml/dataset.hpp"
#include "sim/cohort.hpp"

namespace esl::engine {
namespace {

std::vector<std::span<const Real>> chunk_views(const signal::EegRecord& record,
                                               std::size_t offset,
                                               std::size_t count) {
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(
        std::span<const Real>(record.channel(c).samples).subspan(offset, count));
  }
  return views;
}

/// Streams `record` into engine session `id` in `chunk`-sized pieces,
/// polling after every chunk; returns all detections for that session.
std::vector<Detection> stream_and_poll(Engine& engine, std::uint64_t id,
                                       const signal::EegRecord& record,
                                       std::size_t chunk) {
  std::vector<Detection> mine;
  const std::size_t length = record.length_samples();
  for (std::size_t offset = 0; offset < length; offset += chunk) {
    const std::size_t n = std::min(chunk, length - offset);
    engine.ingest(id, chunk_views(record, offset, n));
    std::vector<Detection> detections;
    engine.poll_into(detections);
    for (const Detection& d : detections) {
      if (d.session_id == id) {
        mine.push_back(d);
      }
    }
  }
  return mine;
}

/// Shared fixture: a fleet detector trained on one record of patient 5,
/// plus held-out seizure/background records.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simulator_ = new sim::CohortSimulator();
    const auto events = simulator_->events_for_patient(4);
    train_record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[0], 0, 500.0, 600.0));
    seizure_record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[1], 1, 500.0, 600.0));
    background_record_ = new signal::EegRecord(
        simulator_->synthesize_background_record(4, 300.0, 2));

    train_set_ = new ml::Dataset(core::build_window_dataset(
        *train_record_, train_record_->seizures()));
    Rng rng(1);
    const ml::Dataset balanced = ml::balance_classes(*train_set_, rng);
    auto fitted = std::make_shared<core::RealtimeDetector>();
    fitted->fit(balanced, 7);
    fleet_ = new std::shared_ptr<const core::RealtimeDetector>(fitted);
  }
  static void TearDownTestSuite() {
    delete fleet_;
    delete train_set_;
    delete background_record_;
    delete seizure_record_;
    delete train_record_;
    delete simulator_;
    fleet_ = nullptr;
    train_set_ = nullptr;
    background_record_ = nullptr;
    seizure_record_ = nullptr;
    train_record_ = nullptr;
    simulator_ = nullptr;
  }

  static sim::CohortSimulator* simulator_;
  static signal::EegRecord* train_record_;
  static signal::EegRecord* seizure_record_;
  static signal::EegRecord* background_record_;
  static ml::Dataset* train_set_;
  static std::shared_ptr<const core::RealtimeDetector>* fleet_;
};

sim::CohortSimulator* EngineTest::simulator_ = nullptr;
signal::EegRecord* EngineTest::train_record_ = nullptr;
signal::EegRecord* EngineTest::seizure_record_ = nullptr;
signal::EegRecord* EngineTest::background_record_ = nullptr;
ml::Dataset* EngineTest::train_set_ = nullptr;
std::shared_ptr<const core::RealtimeDetector>* EngineTest::fleet_ = nullptr;

TEST_F(EngineTest, BatchedDetectionsMatchOfflineDetectorBitForBit) {
  // The parity contract: chunked multi-session streaming through the
  // engine's batched inference must reproduce the offline
  // RealtimeDetector::predict_windows labels exactly.
  Engine engine(*fleet_);
  const std::uint64_t a = engine.add_session();
  const std::uint64_t b = engine.add_session();

  // Interleave two different records across sessions, odd chunk size.
  const signal::EegRecord* records[2] = {seizure_record_, background_record_};
  const std::uint64_t ids[2] = {a, b};
  std::vector<std::vector<int>> streamed(2);
  const std::size_t chunk = 997;
  const std::size_t longest = std::max(records[0]->length_samples(),
                                       records[1]->length_samples());
  for (std::size_t offset = 0; offset < longest; offset += chunk) {
    for (int s = 0; s < 2; ++s) {
      const std::size_t length = records[s]->length_samples();
      if (offset >= length) {
        continue;
      }
      const std::size_t n = std::min(chunk, length - offset);
      engine.ingest(ids[s], chunk_views(*records[s], offset, n));
    }
    std::vector<Detection> detections;
    engine.poll_into(detections);
    for (const Detection& d : detections) {
      streamed[d.session_id == a ? 0 : 1].push_back(d.label);
    }
  }

  for (int s = 0; s < 2; ++s) {
    const std::vector<int> offline =
        (*fleet_)->predict_windows(*records[s]);
    ASSERT_EQ(streamed[s].size(), offline.size()) << "session " << s;
    EXPECT_EQ(streamed[s], offline) << "session " << s;
  }
  EXPECT_EQ(engine.stats().windows_classified,
            streamed[0].size() + streamed[1].size());
  EXPECT_EQ(engine.stats().forest_windows,
            engine.stats().windows_classified);  // no screening configured
}

TEST_F(EngineTest, AlarmsMatchOfflineRaisesAlarm) {
  Engine engine(*fleet_);
  const std::uint64_t id = engine.add_session();
  const std::vector<Detection> detections =
      stream_and_poll(engine, id, *seizure_record_, 4096);

  bool any_alarm = false;
  for (const Detection& d : detections) {
    any_alarm = any_alarm || d.alarm;
  }
  EXPECT_EQ(any_alarm, (*fleet_)->raises_alarm(*seizure_record_));
  EXPECT_EQ(engine.stats().alarms, engine.session(id).alarms());
}

TEST_F(EngineTest, AlarmHookFiresOncePerRun) {
  Engine engine(*fleet_);
  const std::uint64_t id = engine.add_session();
  std::vector<Detection> hook_calls;
  engine.set_alarm_hook(
      [&hook_calls](const Detection& d) { hook_calls.push_back(d); });
  stream_and_poll(engine, id, *seizure_record_, 4096);
  EXPECT_EQ(hook_calls.size(), engine.stats().alarms);
  for (const Detection& d : hook_calls) {
    EXPECT_TRUE(d.alarm);
    EXPECT_EQ(d.label, 1);
  }
}

TEST_F(EngineTest, ScreeningGatesForestAndMatchesReferenceLabels) {
  EngineConfig config;
  config.screening = ScreeningConfig{
      14, core::fit_stage1_threshold(*train_set_, 0.98, 14)};
  Engine engine(*fleet_, config);
  const std::uint64_t id = engine.add_session();
  const std::vector<Detection> detections =
      stream_and_poll(engine, id, *background_record_, 2048);

  // Reference: stage-1 gate on the raw feature, offline forest otherwise.
  const features::WindowedFeatures windowed =
      features::extract_windowed_features(*background_record_,
                                          engine.extractor());
  const std::vector<int> offline =
      (*fleet_)->predict_windows(*background_record_);
  ASSERT_EQ(detections.size(), windowed.count());
  std::size_t screened = 0;
  for (std::size_t w = 0; w < windowed.count(); ++w) {
    const bool gated =
        windowed.features(w, 14) < config.screening->threshold;
    EXPECT_EQ(detections[w].screened_out, gated);
    EXPECT_EQ(detections[w].label, gated ? 0 : offline[w]);
    screened += gated ? 1 : 0;
  }
  EXPECT_EQ(engine.stats().screened_windows, screened);
  EXPECT_EQ(engine.stats().forest_windows, windowed.count() - screened);
  // On background signal the screen should reject a meaningful share.
  EXPECT_GT(screened, windowed.count() / 4);
}

TEST_F(EngineTest, ColdStartEngineClassifiesEverythingNegative) {
  Engine engine(std::make_shared<core::RealtimeDetector>());  // unfitted
  const std::uint64_t id = engine.add_session();
  const std::vector<Detection> detections =
      stream_and_poll(engine, id, *background_record_, 8192);
  ASSERT_GT(detections.size(), 0u);
  for (const Detection& d : detections) {
    EXPECT_EQ(d.label, 0);
  }
  EXPECT_EQ(engine.stats().unmodeled_windows, detections.size());
  EXPECT_EQ(engine.stats().forest_windows, 0u);
}

TEST_F(EngineTest, FleetOptOutSessionStaysColdUntilPersonalized) {
  Engine engine(*fleet_);  // fitted fleet available...
  SessionConfig opted_out;
  opted_out.use_fleet_model = false;  // ...but this patient opted out
  opted_out.history_seconds = 600.0;
  const std::uint64_t id = engine.add_session(opted_out);

  core::SelfLearningConfig learn;
  learn.average_seizure_duration_s = simulator_->average_seizure_duration(4);
  engine.attach_self_learning(id, learn);

  const std::vector<Detection> cold =
      stream_and_poll(engine, id, *seizure_record_, 8192);
  ASSERT_GT(cold.size(), 0u);
  for (const Detection& d : cold) {
    EXPECT_EQ(d.label, 0);  // never consulted the fleet model
  }
  EXPECT_EQ(engine.stats().forest_windows, 0u);

  engine.patient_trigger(id);
  const std::vector<Detection> warm =
      stream_and_poll(engine, id, *seizure_record_, 8192);
  ASSERT_GT(warm.size(), 0u);
  EXPECT_GT(engine.stats().forest_windows, 0u);  // personal model now runs
}

TEST_F(EngineTest, SelfLearningTriggerPersonalizesSession) {
  // Cold-start fleet: the seizure is missed, the patient presses the
  // button, Algorithm 1 labels the history and the session switches to
  // its freshly trained personal detector.
  Engine engine(std::make_shared<core::RealtimeDetector>());
  SessionConfig session_config;
  session_config.history_seconds = 600.0;  // covers the whole record
  const std::uint64_t id = engine.add_session(session_config);

  core::SelfLearningConfig learn;
  learn.average_seizure_duration_s =
      simulator_->average_seizure_duration(4);
  engine.attach_self_learning(id, learn);
  EXPECT_TRUE(engine.has_self_learning(id));

  std::vector<std::pair<std::uint64_t, signal::Interval>> labels;
  engine.set_label_hook(
      [&labels](std::uint64_t session_id, const signal::Interval& label) {
        labels.emplace_back(session_id, label);
      });

  const std::vector<Detection> cold =
      stream_and_poll(engine, id, *seizure_record_, 8192);
  ASSERT_GT(cold.size(), 0u);
  EXPECT_EQ(engine.session(id).alarms(), 0u);  // missed: no model yet

  const signal::Interval label = engine.patient_trigger(id);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].first, id);

  // History time == record time here (history covers the record), so the
  // a-posteriori label must overlap the true seizure.
  const signal::Interval truth = seizure_record_->seizures().front();
  EXPECT_GT(label.overlap(truth), 0.0);

  // The personalized model now classifies this session's future windows.
  const std::vector<Detection> warm =
      stream_and_poll(engine, id, *seizure_record_, 8192);
  ASSERT_GT(warm.size(), 0u);
  EXPECT_GT(engine.stats().forest_windows, 0u);
  std::size_t positives = 0;
  for (const Detection& d : warm) {
    positives += d.label == 1 ? 1 : 0;
  }
  EXPECT_GT(positives, 0u);  // the learned detector now sees the seizure
}

TEST_F(EngineTest, MixedFleetAndPersonalModelsBatchSeparately) {
  Engine engine(*fleet_);
  SessionConfig with_history;
  with_history.history_seconds = 600.0;
  const std::uint64_t personal = engine.add_session(with_history);
  const std::uint64_t shared = engine.add_session();

  core::SelfLearningConfig learn;
  learn.average_seizure_duration_s = simulator_->average_seizure_duration(4);
  engine.attach_self_learning(personal, learn);

  // Personalize session `personal` via a trigger on a full seizure record.
  stream_and_poll(engine, personal, *seizure_record_, 16384);
  engine.patient_trigger(personal);

  // Now stream both sessions and poll once: two distinct models -> two
  // batched forest passes in a single poll.
  const std::size_t batches_before = engine.stats().batches;
  engine.ingest(personal, chunk_views(*background_record_, 0, 8192));
  engine.ingest(shared, chunk_views(*background_record_, 0, 8192));
  std::vector<Detection> detections;
  engine.poll_into(detections);
  ASSERT_GT(detections.size(), 0u);
  EXPECT_EQ(engine.stats().batches, batches_before + 2);

  // The shared session must still match the fleet detector bit-for-bit.
  std::vector<int> shared_labels;
  for (const Detection& d : detections) {
    if (d.session_id == shared) {
      shared_labels.push_back(d.label);
    }
  }
  const std::vector<int> offline =
      (*fleet_)->predict_windows(*background_record_);
  ASSERT_LE(shared_labels.size(), offline.size());
  for (std::size_t w = 0; w < shared_labels.size(); ++w) {
    EXPECT_EQ(shared_labels[w], offline[w]);
  }
}

TEST_F(EngineTest, SwapModelDeploysCompiledArtifactBitForBit) {
  // Baseline: the fleet ForestModel classifies the whole stream.
  Engine baseline(*fleet_);
  const std::uint64_t a = baseline.add_session();
  const std::vector<Detection> expected =
      stream_and_poll(baseline, a, *seizure_record_, 4096);

  // Same stream, but the compiled artifact is hot-swapped in halfway:
  // because CompiledForest is bit-identical to the interpreter, the
  // detection sequence must not change at all.
  Engine engine(*fleet_);
  const std::uint64_t b = engine.add_session();
  const std::shared_ptr<const ml::CompiledForest> compiled =
      (*fleet_)->compile();
  std::vector<Detection> actual;
  const std::size_t length = seizure_record_->length_samples();
  const std::size_t chunk = 4096;
  bool swapped = false;
  for (std::size_t offset = 0; offset < length; offset += chunk) {
    if (!swapped && offset >= length / 2) {
      engine.swap_model(b, compiled);  // no flush, no stream pause
      swapped = true;
    }
    const std::size_t n = std::min(chunk, length - offset);
    engine.ingest(b, chunk_views(*seizure_record_, offset, n));
    std::vector<Detection> detections;
    engine.poll_into(detections);
    for (const Detection& d : detections) {
      actual.push_back(d);
    }
  }
  ASSERT_TRUE(swapped);
  EXPECT_STREQ(engine.session_model(b)->name(), "compiled");

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(actual[w].label, expected[w].label) << "window " << w;
    EXPECT_EQ(actual[w].alarm, expected[w].alarm) << "window " << w;
    EXPECT_EQ(actual[w].window_index, expected[w].window_index);
  }
}

TEST_F(EngineTest, SwapModelOverrideWinsAndClearsBackToAutomatic) {
  Engine engine(*fleet_);
  const std::uint64_t id = engine.add_session();
  std::vector<Detection> detections;
  engine.poll_into(detections);
  EXPECT_EQ(engine.session_model(id), (*fleet_)->model());  // automatic

  const std::shared_ptr<const ml::CompiledForest> compiled =
      (*fleet_)->compile();
  engine.swap_model(id, compiled);
  engine.poll_into(detections);
  EXPECT_EQ(engine.session_model(id), compiled);  // override wins

  engine.swap_model(id, nullptr);  // clear -> automatic choice again
  engine.poll_into(detections);
  EXPECT_EQ(engine.session_model(id), (*fleet_)->model());

  EXPECT_THROW(engine.swap_model(99, compiled), InvalidArgument);
}

TEST_F(EngineTest, PatientTriggerClearsSwappedOverride) {
  // A pinned artifact must never mask the model a patient_trigger just
  // retrained: the trigger drops the override and installs the personal
  // model.
  Engine engine(std::make_shared<core::RealtimeDetector>());
  SessionConfig session_config;
  session_config.history_seconds = 600.0;
  const std::uint64_t id = engine.add_session(session_config);
  core::SelfLearningConfig learn;
  learn.average_seizure_duration_s = simulator_->average_seizure_duration(4);
  engine.attach_self_learning(id, learn);

  stream_and_poll(engine, id, *seizure_record_, 8192);
  const std::shared_ptr<const ml::CompiledForest> pinned =
      (*fleet_)->compile();
  engine.swap_model(id, pinned);
  std::vector<Detection> detections;
  engine.poll_into(detections);
  EXPECT_EQ(engine.session_model(id), pinned);

  engine.patient_trigger(id);
  engine.poll_into(detections);
  EXPECT_NE(engine.session_model(id), pinned);   // override dropped
  ASSERT_NE(engine.session_model(id), nullptr);  // personal model active
  EXPECT_STREQ(engine.session_model(id)->name(), "forest");
}

TEST_F(EngineTest, AddSessionValidatesConfigUpFront) {
  // Bad stream geometry must be rejected at add_session with
  // InvalidArgument, not by a failure deep inside the windowing path.
  Engine engine(*fleet_);
  SessionConfig bad;
  bad.overlap = 1.0;
  EXPECT_THROW(engine.add_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.overlap = -0.5;
  EXPECT_THROW(engine.add_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.sample_rate_hz = 0.0;
  EXPECT_THROW(engine.add_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.window_seconds = -1.0;
  EXPECT_THROW(engine.add_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.alarm_consecutive = 0;
  EXPECT_THROW(engine.add_session(bad), InvalidArgument);
  EXPECT_EQ(engine.session_count(), 0u);  // nothing was half-created
}

TEST_F(EngineTest, RejectsUnknownSessionAndMissingPipeline) {
  Engine engine(*fleet_);
  EXPECT_THROW(engine.session(0), InvalidArgument);
  const std::uint64_t id = engine.add_session();
  EXPECT_THROW(engine.patient_trigger(id), InvalidArgument);

  SessionConfig no_history;  // attach requires a history buffer
  no_history.history_seconds = 0.0;
  const std::uint64_t bare = engine.add_session(no_history);
  EXPECT_THROW(engine.attach_self_learning(bare, {}), InvalidArgument);
}

}  // namespace
}  // namespace esl::engine

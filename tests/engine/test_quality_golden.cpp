// Tier-1 pin of the paper's detection quality.
//
// A short fixed-seed synthetic cohort streams through a cold inline
// DetectionService: every session starts with no model, a record whose
// seizure raised no alarm makes the patient press the button, and
// Algorithm 1 labels the history and retrains the session's forest.
// The event metrics of that loop (core/event_metrics: event
// sensitivity, false alarms per hour; core/deviation_metric: label
// deviation) and a hash of every detection are compared with the values
// recorded in golden/quality.txt. The inline backend is deterministic,
// so any change to windowing, features, labeling, training or alarm
// post-processing that moves a single detection fails here. A change
// that means to move them must say why and record the new line, which
// the failure message prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/deviation_metric.hpp"
#include "core/event_metrics.hpp"
#include "core/realtime_detector.hpp"
#include "core/self_learning.hpp"
#include "engine/service.hpp"
#include "sim/cohort.hpp"

namespace esl::engine {
namespace {

constexpr std::size_t k_patient = 4;
constexpr std::size_t k_records = 2;
constexpr Seconds k_history_s = 300.0;  // holds a whole record
constexpr Seconds k_chunk_s = 1.0;
constexpr Seconds k_grace_s = 60.0;  // core::EventEvaluationConfig default

/// FNV-1a over one detection's observable fields, in stream order.
std::uint64_t hash_detection(std::uint64_t hash, const Detection& d) {
  const std::uint64_t fields[] = {
      d.window_index, std::bit_cast<std::uint64_t>(d.window_start_s),
      static_cast<std::uint64_t>(d.label),
      static_cast<std::uint64_t>(d.screened_out),
      static_cast<std::uint64_t>(d.alarm)};
  for (std::uint64_t field : fields) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= field & 0xFF;
      hash *= 0x100000001B3ULL;
      field >>= 8;
    }
  }
  return hash;
}

bool alarm_during(const std::vector<Detection>& detections,
                  const signal::Interval& seizure) {
  return std::any_of(detections.begin(), detections.end(),
                     [&](const Detection& d) {
                       return d.alarm &&
                              d.window_start_s >= seizure.onset - 4.0 &&
                              d.window_start_s <= seizure.offset + k_grace_s;
                     });
}

std::string golden_path() {
  return std::string(ESL_TEST_SOURCE_DIR) + "/golden/quality.txt";
}

/// The first non-comment line of the golden file.
std::string recorded_line() {
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      return line;
    }
  }
  return {};
}

TEST(QualityGolden, SelfLearningCohortMatchesRecordedQuality) {
  const sim::CohortSimulator simulator;  // the default cohort seed
  const auto events = simulator.events_for_patient(k_patient);
  ASSERT_GE(events.size(), k_records);
  std::vector<signal::EegRecord> records;
  for (std::size_t r = 0; r < k_records; ++r) {
    records.push_back(simulator.synthesize_sample(events[r], r, 240.0, 300.0));
  }

  // Cold start: an unfitted fleet detector, and a session that never
  // uses it, so every alarm comes from the patient's own retrained model.
  DetectionService service(std::make_shared<core::RealtimeDetector>());
  SessionConfig config;
  config.history_seconds = k_history_s;
  config.use_fleet_model = false;
  const SessionHandle handle = service.create_session(config);
  core::SelfLearningConfig learning;
  learning.average_seizure_duration_s =
      simulator.average_seizure_duration(k_patient);
  service.attach_self_learning(handle, learning);

  const auto hop = static_cast<std::size_t>(k_chunk_s *
                                            simulator.sample_rate_hz());
  std::vector<Detection> detections;
  std::vector<signal::Interval> seizures;  // stream seconds
  std::vector<Seconds> deviations;
  std::size_t triggers = 0;
  Seconds streamed_s = 0.0;
  for (const signal::EegRecord& record : records) {
    const Seconds offset_s = streamed_s;
    const signal::Interval seizure = record.seizures().front();
    seizures.push_back({offset_s + seizure.onset, offset_s + seizure.offset});
    for (std::size_t at = 0; at + hop <= record.length_samples(); at += hop) {
      std::vector<std::span<const Real>> chunk;
      for (std::size_t c = 0; c < record.channel_count(); ++c) {
        chunk.push_back(std::span<const Real>(record.channel(c).samples)
                            .subspan(at, hop));
      }
      service.ingest(handle, chunk);
      service.flush();
      service.drain(detections);
      streamed_s += k_chunk_s;
    }
    if (alarm_during(detections, seizures.back())) {
      continue;
    }
    // Missed: the button press labels the history ring and retrains. The
    // label is relative to the oldest sample the history ring holds.
    const signal::Interval label = service.patient_trigger(handle);
    ++triggers;
    const Seconds history_start_s = std::max(0.0, streamed_s - k_history_s);
    deviations.push_back(core::deviation_seconds(
        {seizures.back().onset - history_start_s,
         seizures.back().offset - history_start_s},
        label));
  }

  std::vector<int> labels;
  std::vector<Seconds> starts;
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  std::size_t alarms = 0;
  for (const Detection& d : detections) {
    labels.push_back(d.label);
    starts.push_back(d.window_start_s);
    hash = hash_detection(hash, d);
    alarms += d.alarm ? 1 : 0;
  }
  const core::EventEvaluation evaluation =
      core::evaluate_events(labels, starts, seizures, streamed_s);
  std::sort(deviations.begin(), deviations.end());
  const Seconds deviation_p50_s =
      deviations.empty() ? 0.0 : deviations[deviations.size() / 2];

  char line[256];
  std::snprintf(line, sizeof line,
                "%.17g %.17g %.17g %zu %zu/%zu %zu %zu %016llx",
                evaluation.event_sensitivity(),
                evaluation.false_alarm_rate_per_hour(), deviation_p50_s,
                triggers, evaluation.detected_events(),
                evaluation.total_events(), detections.size(), alarms,
                static_cast<unsigned long long>(hash));
  EXPECT_EQ(recorded_line(), std::string(line))
      << "recorded in " << golden_path()
      << " (sensitivity, false alarms/h, label deviation p50 s, presses, "
         "detected/events, windows, alarms, detection hash)";
}

}  // namespace
}  // namespace esl::engine

#include "sim/cohort.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/workspace.hpp"

namespace esl::sim {
namespace {

TEST(Cohort, NinePatientsWithTableIICounts) {
  const CohortSimulator simulator;
  const auto& cohort = simulator.cohort();
  ASSERT_EQ(cohort.size(), 9u);
  const std::size_t expected_counts[9] = {7, 3, 7, 4, 5, 3, 5, 4, 7};
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_EQ(cohort[p].id, static_cast<int>(p) + 1);
    EXPECT_EQ(cohort[p].seizure_count, expected_counts[p]) << "patient " << p + 1;
  }
  EXPECT_EQ(simulator.events().size(), 45u);
}

TEST(Cohort, ArtifactSeizuresMatchTableIIOutliers) {
  const CohortSimulator simulator;
  std::size_t artifact_events = 0;
  for (const auto& e : simulator.events()) {
    if (e.has_artifact) {
      ++artifact_events;
      // Patients 2, 3, 4 (Table II); leads 373 / 443 / 408 s.
      if (e.patient_id == 2) {
        EXPECT_EQ(e.seizure_index, 1u);
        EXPECT_DOUBLE_EQ(e.artifact_lead_s, 373.0);
      } else if (e.patient_id == 3) {
        EXPECT_EQ(e.seizure_index, 0u);
        EXPECT_DOUBLE_EQ(e.artifact_lead_s, 443.0);
      } else if (e.patient_id == 4) {
        EXPECT_EQ(e.seizure_index, 0u);
        EXPECT_DOUBLE_EQ(e.artifact_lead_s, 408.0);
      } else {
        FAIL() << "unexpected artifact on patient " << e.patient_id;
      }
    }
  }
  EXPECT_EQ(artifact_events, 3u);
}

TEST(Cohort, EventsForPatientPartitionAllEvents) {
  const CohortSimulator simulator;
  std::size_t total = 0;
  for (std::size_t p = 0; p < 9; ++p) {
    const auto events = simulator.events_for_patient(p);
    EXPECT_EQ(events.size(), simulator.cohort()[p].seizure_count);
    for (const auto& e : events) {
      EXPECT_EQ(e.patient_index, p);
    }
    total += events.size();
  }
  EXPECT_EQ(total, 45u);
}

TEST(Cohort, AverageSeizureDurationNearProfileMean) {
  const CohortSimulator simulator;
  for (std::size_t p = 0; p < 9; ++p) {
    const Seconds w = simulator.average_seizure_duration(p);
    const Seconds mean = simulator.cohort()[p].mean_seizure_duration_s;
    EXPECT_GT(w, 0.5 * mean);
    EXPECT_LT(w, 1.6 * mean);
  }
}

TEST(Cohort, EventDurationsRespectFloor) {
  const CohortSimulator simulator;
  for (const auto& e : simulator.events()) {
    EXPECT_GE(e.duration_s, 10.0);
  }
}

TEST(Cohort, RecordSpecPlacesSeizureFeasibly) {
  const CohortSimulator simulator;
  Rng rng(7);
  for (const auto& event : simulator.events()) {
    for (int trial = 0; trial < 3; ++trial) {
      const RecordSpec spec = simulator.sample_record_spec(event, rng);
      EXPECT_GE(spec.duration_s, 1800.0);
      EXPECT_LE(spec.duration_s, 3600.0);
      EXPECT_GT(spec.seizure_onset_s, 0.0);
      EXPECT_LT(spec.seizure_onset_s + event.duration_s, spec.duration_s);
      if (event.has_artifact) {
        EXPECT_GE(spec.seizure_onset_s, event.artifact_lead_s);
      }
    }
  }
}

TEST(Cohort, SynthesizedSampleHasExpectedShape) {
  const CohortSimulator simulator;
  const auto& event = simulator.events().front();
  const signal::EegRecord record =
      simulator.synthesize_sample(event, 0, 400.0, 500.0);
  EXPECT_EQ(record.channel_count(), 2u);
  EXPECT_EQ(record.channel(0).electrodes.label(), "F7-T3");
  EXPECT_EQ(record.channel(1).electrodes.label(), "F8-T4");
  EXPECT_GE(record.duration_seconds(), 400.0);
  EXPECT_LE(record.duration_seconds(), 500.0);
  const auto seizures = record.seizures();
  ASSERT_EQ(seizures.size(), 1u);
  EXPECT_NEAR(seizures[0].duration(), event.duration_s, 0.01);
}

TEST(Cohort, SynthesisIsDeterministic) {
  const CohortSimulator a;
  const CohortSimulator b;
  const auto ra = a.synthesize_sample(a.events()[3], 5, 400.0, 500.0);
  const auto rb = b.synthesize_sample(b.events()[3], 5, 400.0, 500.0);
  ASSERT_EQ(ra.length_samples(), rb.length_samples());
  for (std::size_t i = 0; i < ra.length_samples(); i += 101) {
    EXPECT_EQ(ra.channel(0).samples[i], rb.channel(0).samples[i]);
  }
}

TEST(Cohort, DifferentSampleLabelsDecorrelateBackground) {
  const CohortSimulator simulator;
  const auto& event = simulator.events()[3];
  const auto r0 = simulator.synthesize_sample(event, 0, 400.0, 500.0);
  const auto r1 = simulator.synthesize_sample(event, 1, 400.0, 500.0);
  bool any_difference = r0.length_samples() != r1.length_samples();
  if (!any_difference) {
    for (std::size_t i = 0; i < r0.length_samples(); i += 13) {
      if (r0.channel(0).samples[i] != r1.channel(0).samples[i]) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Cohort, SeizureWindowsHaveElevatedThetaPower) {
  const CohortSimulator simulator;
  const auto& event = simulator.events().front();  // patient 1, no artifact
  const signal::EegRecord record =
      simulator.synthesize_sample(event, 2, 600.0, 700.0);
  const auto seizure = record.seizures().front();

  const auto& samples = record.channel(0).samples;
  const auto window_of = [&](Seconds t) {
    const std::size_t start = record.seconds_to_sample(t);
    return std::span<const Real>(samples).subspan(start, 1024);
  };
  // Mid-seizure window vs a background window far away.
  dsp::Workspace ws;
  dsp::Psd ictal;
  dsp::periodogram_into(window_of(seizure.midpoint()), 256.0, ws, ictal);
  dsp::Psd background;
  dsp::periodogram_into(window_of(seizure.onset - 120.0), 256.0, ws,
                        background);
  EXPECT_GT(dsp::band_power(ictal, dsp::bands::kTheta) +
                dsp::band_power(ictal, dsp::bands::kDelta),
            5.0 * (dsp::band_power(background, dsp::bands::kTheta) +
                   dsp::band_power(background, dsp::bands::kDelta)));
}

TEST(Cohort, ArtifactRecordCarriesArtifactAnnotation) {
  const CohortSimulator simulator;
  for (const auto& event : simulator.events()) {
    if (!event.has_artifact) {
      continue;
    }
    const signal::EegRecord record =
        simulator.synthesize_sample(event, 0, 1800.0, 2400.0);
    bool found_artifact = false;
    for (const auto& a : record.annotations()) {
      if (a.kind == signal::EventKind::kArtifact) {
        found_artifact = true;
        // The artifact precedes the seizure by the configured lead.
        EXPECT_NEAR(record.seizures().front().onset - a.interval.onset,
                    event.artifact_lead_s, 1.0);
      }
    }
    EXPECT_TRUE(found_artifact);
    break;  // one artifact record is enough for this check
  }
}

TEST(Cohort, BackgroundRecordHasNoSeizures) {
  const CohortSimulator simulator;
  const signal::EegRecord record =
      simulator.synthesize_background_record(0, 120.0, 1);
  EXPECT_EQ(record.seizures().size(), 0u);
  EXPECT_EQ(record.channel_count(), 2u);
  EXPECT_NEAR(record.duration_seconds(), 120.0, 0.01);
}

TEST(Cohort, BackgroundAmplitudeIsPhysiological) {
  const CohortSimulator simulator;
  const signal::EegRecord record =
      simulator.synthesize_background_record(0, 60.0, 2);
  const Real rms = stats::rms(record.channel(0).samples);
  EXPECT_GT(rms, 5.0);    // microvolts
  EXPECT_LT(rms, 200.0);  // not artifact-level
}

TEST(Cohort, DifferentSeedsGiveDifferentCohorts) {
  const CohortSimulator a(1);
  const CohortSimulator b(2);
  bool differs = false;
  for (std::size_t e = 0; e < a.events().size(); ++e) {
    if (a.events()[e].duration_s != b.events()[e].duration_s) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Cohort, InvalidPatientIndexRejected) {
  const CohortSimulator simulator;
  EXPECT_THROW(simulator.events_for_patient(9), InvalidArgument);
  EXPECT_THROW(simulator.average_seizure_duration(9), InvalidArgument);
  EXPECT_THROW(simulator.synthesize_background_record(9, 60.0, 0),
               InvalidArgument);
}

}  // namespace
}  // namespace esl::sim

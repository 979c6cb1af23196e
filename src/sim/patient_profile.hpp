// Synthetic patient cohort standing in for the CHB-MIT subset used by the
// paper (9 protocol-compliant patients, 45 seizures total — §V-A).
//
// Each profile parameterizes background EEG, ictal morphology and
// per-seizure variability. The per-patient seizure counts follow Table II
// exactly (7, 3, 7, 4, 5, 3, 5, 4, 7), and the three designated
// artifact-confounded seizures (patients 2, 3 and 4) reproduce the paper's
// three misplaced labels (mean deltas of 373, 443 and 408 seconds).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace esl::sim {

/// Static description of one synthetic patient.
struct PatientProfile {
  int id = 1;                      // 1-based patient id as in Tables I/II
  std::size_t seizure_count = 0;   // Table II row length

  // Seizure timing statistics. The mean duration doubles as the expert
  // input W of Algorithm 1.
  Seconds mean_seizure_duration_s = 60.0;
  Seconds seizure_duration_jitter_s = 8.0;  // sd of per-seizure duration

  // Ictal discharge morphology (rhythmic chirp with sharpened peaks).
  Real ictal_gain_uv = 90.0;
  Real ictal_start_hz = 6.5;
  Real ictal_end_hz = 2.8;
  Real spike_sharpness = 2.5;
  /// Raised-cosine onset/offset ramps as a fraction of the discharge.
  /// Longer ramps blur the electrographic boundaries, which loosens the
  /// a-posteriori labels the way the paper's noisier patients do.
  Real ictal_ramp_fraction = 0.12;
  Real left_gain = 1.0;    // discharge gain on F7-T3
  Real right_gain = 0.85;  // discharge gain on F8-T4 (lateralization)

  // Background activity.
  Real background_rms_uv = 30.0;
  Real alpha_rms_uv = 12.0;

  // Post-ictal slowing appended after the discharge; smears the offset
  // boundary the way real recordings do.
  Seconds postictal_tail_s = 30.0;
  Real postictal_gain_uv = 25.0;

  // Deterministic seed root for everything derived from this patient.
  std::uint64_t seed = 0;

  // Seizures (0-based indices) whose records carry a large electrode-motion
  // artifact that confounds the a-posteriori labeling, plus where the
  // artifact sits relative to the seizure onset (it precedes the onset by
  // `artifact_lead_s` seconds) and how strong it is.
  std::vector<std::size_t> artifact_seizure_indices;
  Seconds artifact_lead_s = 400.0;
  Real artifact_gain_uv = 420.0;

  // Seizures followed by a moderate post-ictal motion artifact (the
  // patient convulsing/moving right after the discharge). The artifact
  // overlaps the label search region and drags the detected window tens
  // of seconds late — the paper's patient-2 "53 s" label.
  std::vector<std::size_t> postictal_artifact_seizure_indices;
  Seconds postictal_artifact_delay_s = 5.0;
  Seconds postictal_artifact_duration_s = 60.0;
  Real postictal_artifact_gain_uv = 260.0;
};

/// The nine-patient cohort mirroring the paper's CHB-MIT subset.
/// `seed` decorrelates entire cohorts (useful for robustness sweeps).
std::vector<PatientProfile> make_cohort(std::uint64_t seed = 20190325);

}  // namespace esl::sim

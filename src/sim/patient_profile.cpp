#include "sim/patient_profile.hpp"

#include "common/error.hpp"
#include "common/random.hpp"

namespace esl::sim {

std::vector<PatientProfile> make_cohort(std::uint64_t seed) {
  // Seizure counts per patient from Table II: 7,3,7,4,5,3,5,4,7 (sum 45).
  // Duration/jitter choices give the per-patient spread of Table I its
  // shape: tight labels for patients 3/5/8/9, looser for 1/2/7.
  std::vector<PatientProfile> cohort(9);

  Rng root(seed);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    cohort[i].seed = root.fork(i).next_u64();
  }

  cohort[0].id = 1;
  cohort[0].seizure_count = 7;
  cohort[0].mean_seizure_duration_s = 72.0;
  cohort[0].seizure_duration_jitter_s = 28.0;
  cohort[0].ictal_ramp_fraction = 0.3;
  cohort[0].ictal_gain_uv = 70.0;
  cohort[0].ictal_start_hz = 6.0;
  cohort[0].ictal_end_hz = 2.6;
  cohort[0].postictal_tail_s = 45.0;
  cohort[0].postictal_gain_uv = 30.0;

  cohort[1].id = 2;
  cohort[1].seizure_count = 3;
  cohort[1].mean_seizure_duration_s = 95.0;
  cohort[1].seizure_duration_jitter_s = 40.0;
  cohort[1].ictal_ramp_fraction = 0.4;
  cohort[1].ictal_gain_uv = 48.0;
  cohort[1].ictal_start_hz = 5.5;
  cohort[1].ictal_end_hz = 2.2;
  cohort[1].postictal_tail_s = 60.0;
  cohort[1].postictal_gain_uv = 40.0;
  cohort[1].artifact_seizure_indices = {1};  // Table II: seizure 2, 373 s
  cohort[1].artifact_lead_s = 373.0;
  cohort[1].artifact_gain_uv = 650.0;
  cohort[1].postictal_artifact_seizure_indices = {2};  // the paper's 53 s label

  cohort[2].id = 3;
  cohort[2].seizure_count = 7;
  cohort[2].mean_seizure_duration_s = 48.0;
  cohort[2].seizure_duration_jitter_s = 9.0;
  cohort[2].ictal_ramp_fraction = 0.13;
  cohort[2].ictal_gain_uv = 110.0;
  cohort[2].ictal_start_hz = 7.0;
  cohort[2].ictal_end_hz = 3.0;
  cohort[2].postictal_tail_s = 18.0;
  cohort[2].postictal_gain_uv = 20.0;
  cohort[2].artifact_seizure_indices = {0};  // Table II: seizure 1, 443 s
  cohort[2].artifact_lead_s = 443.0;
  cohort[2].artifact_gain_uv = 800.0;

  cohort[3].id = 4;
  cohort[3].seizure_count = 4;
  cohort[3].mean_seizure_duration_s = 75.0;
  cohort[3].seizure_duration_jitter_s = 32.0;
  cohort[3].ictal_ramp_fraction = 0.4;
  cohort[3].ictal_gain_uv = 60.0;
  cohort[3].ictal_start_hz = 6.2;
  cohort[3].ictal_end_hz = 2.8;
  cohort[3].postictal_tail_s = 35.0;
  cohort[3].postictal_gain_uv = 26.0;
  cohort[3].artifact_seizure_indices = {0};  // Table II: seizure 1, 408 s
  cohort[3].artifact_lead_s = 408.0;
  cohort[3].artifact_gain_uv = 650.0;

  cohort[4].id = 5;
  cohort[4].seizure_count = 5;
  cohort[4].mean_seizure_duration_s = 55.0;
  cohort[4].seizure_duration_jitter_s = 16.0;
  cohort[4].ictal_ramp_fraction = 0.18;
  cohort[4].ictal_gain_uv = 105.0;
  cohort[4].ictal_start_hz = 7.2;
  cohort[4].ictal_end_hz = 3.2;
  cohort[4].postictal_tail_s = 15.0;
  cohort[4].postictal_gain_uv = 18.0;

  cohort[5].id = 6;
  cohort[5].seizure_count = 3;
  cohort[5].mean_seizure_duration_s = 65.0;
  cohort[5].seizure_duration_jitter_s = 24.0;
  cohort[5].ictal_ramp_fraction = 0.3;
  cohort[5].ictal_gain_uv = 80.0;
  cohort[5].ictal_start_hz = 6.8;
  cohort[5].ictal_end_hz = 2.9;
  cohort[5].postictal_tail_s = 40.0;
  cohort[5].postictal_gain_uv = 24.0;

  cohort[6].id = 7;
  cohort[6].seizure_count = 5;
  cohort[6].mean_seizure_duration_s = 80.0;
  cohort[6].seizure_duration_jitter_s = 40.0;
  cohort[6].ictal_ramp_fraction = 0.42;
  cohort[6].ictal_gain_uv = 44.0;
  cohort[6].ictal_start_hz = 5.8;
  cohort[6].ictal_end_hz = 2.4;
  cohort[6].postictal_tail_s = 50.0;
  cohort[6].postictal_gain_uv = 28.0;

  cohort[7].id = 8;
  cohort[7].seizure_count = 4;
  cohort[7].mean_seizure_duration_s = 42.0;
  cohort[7].seizure_duration_jitter_s = 10.0;
  cohort[7].ictal_ramp_fraction = 0.14;
  cohort[7].ictal_gain_uv = 120.0;
  cohort[7].ictal_start_hz = 7.5;
  cohort[7].ictal_end_hz = 3.4;
  cohort[7].postictal_tail_s = 12.0;
  cohort[7].postictal_gain_uv = 16.0;

  cohort[8].id = 9;
  cohort[8].seizure_count = 7;
  cohort[8].mean_seizure_duration_s = 50.0;
  cohort[8].seizure_duration_jitter_s = 11.0;
  cohort[8].ictal_ramp_fraction = 0.14;
  cohort[8].ictal_gain_uv = 105.0;
  cohort[8].ictal_start_hz = 7.0;
  cohort[8].ictal_end_hz = 3.0;
  cohort[8].postictal_tail_s = 16.0;
  cohort[8].postictal_gain_uv = 18.0;

  // Mild per-patient randomization of lateralization and background so
  // cohorts with different seeds are not identical patients.
  for (auto& p : cohort) {
    Rng rng(p.seed);
    p.left_gain = 1.0;
    p.right_gain = rng.uniform(0.7, 0.95);
    p.background_rms_uv = rng.uniform(26.0, 34.0);
    p.alpha_rms_uv = rng.uniform(9.0, 15.0);
    p.spike_sharpness = rng.uniform(2.0, 3.2);
  }
  return cohort;
}

}  // namespace esl::sim

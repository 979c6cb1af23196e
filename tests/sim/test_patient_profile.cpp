#include "sim/patient_profile.hpp"

#include <gtest/gtest.h>

#include <set>

namespace esl::sim {
namespace {

TEST(PatientProfile, CohortHasNinePatients) {
  const auto cohort = make_cohort();
  ASSERT_EQ(cohort.size(), 9u);
  for (std::size_t p = 0; p < cohort.size(); ++p) {
    EXPECT_EQ(cohort[p].id, static_cast<int>(p) + 1);
  }
}

TEST(PatientProfile, TableIISeizureCounts) {
  const auto cohort = make_cohort();
  const std::size_t expected[9] = {7, 3, 7, 4, 5, 3, 5, 4, 7};
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_EQ(cohort[p].seizure_count, expected[p]);
  }
  std::size_t total = 0;
  for (const auto& profile : cohort) {
    total += profile.seizure_count;
  }
  EXPECT_EQ(total, 45u);
}

TEST(PatientProfile, SeedsAreDistinct) {
  const auto cohort = make_cohort();
  std::set<std::uint64_t> seeds;
  for (const auto& p : cohort) {
    seeds.insert(p.seed);
  }
  EXPECT_EQ(seeds.size(), cohort.size());
}

TEST(PatientProfile, ParametersInPhysiologicalRanges) {
  for (const auto& p : make_cohort()) {
    EXPECT_GT(p.mean_seizure_duration_s, 20.0);
    EXPECT_LT(p.mean_seizure_duration_s, 200.0);
    EXPECT_GT(p.seizure_duration_jitter_s, 0.0);
    EXPECT_GT(p.ictal_start_hz, p.ictal_end_hz);  // downward chirp
    EXPECT_GT(p.ictal_end_hz, 1.0);
    EXPECT_LT(p.ictal_start_hz, 12.0);
    EXPECT_GT(p.ictal_gain_uv, 20.0);
    EXPECT_LT(p.ictal_gain_uv, 300.0);
    EXPECT_GT(p.ictal_ramp_fraction, 0.0);
    EXPECT_LT(p.ictal_ramp_fraction, 0.5);
    EXPECT_GT(p.background_rms_uv, 10.0);
    EXPECT_LT(p.background_rms_uv, 60.0);
    EXPECT_GE(p.right_gain, 0.5);
    EXPECT_LE(p.right_gain, 1.0);
  }
}

TEST(PatientProfile, ArtifactDesignationsMatchPaperOutliers) {
  const auto cohort = make_cohort();
  // Exactly patients 2, 3, 4 carry a lead artifact; patient 2 also has
  // the post-ictal confounder behind its third seizure.
  EXPECT_TRUE(cohort[0].artifact_seizure_indices.empty());
  EXPECT_EQ(cohort[1].artifact_seizure_indices,
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(cohort[2].artifact_seizure_indices,
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(cohort[3].artifact_seizure_indices,
            (std::vector<std::size_t>{0}));
  for (std::size_t p = 4; p < 9; ++p) {
    EXPECT_TRUE(cohort[p].artifact_seizure_indices.empty()) << "patient " << p;
  }
  EXPECT_EQ(cohort[1].postictal_artifact_seizure_indices,
            (std::vector<std::size_t>{2}));
  EXPECT_NEAR(cohort[1].artifact_lead_s, 373.0, 1e-12);
  EXPECT_NEAR(cohort[2].artifact_lead_s, 443.0, 1e-12);
  EXPECT_NEAR(cohort[3].artifact_lead_s, 408.0, 1e-12);
}

TEST(PatientProfile, CohortIsDeterministicPerSeed) {
  const auto a = make_cohort(123);
  const auto b = make_cohort(123);
  const auto c = make_cohort(124);
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_EQ(a[p].seed, b[p].seed);
    EXPECT_DOUBLE_EQ(a[p].right_gain, b[p].right_gain);
  }
  bool differs = false;
  for (std::size_t p = 0; p < 9; ++p) {
    if (a[p].seed != c[p].seed) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace esl::sim

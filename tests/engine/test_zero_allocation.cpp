// Steady-state allocation regression for the engine ingest path.
//
// PR 1 made the windowing/row path allocation-free and ISSUE 4 finished
// the job inside the DSP internals: a warm PatientSession ingest cycle —
// the per-channel sample ring that holds both the windows and the
// history, incremental windowing, the full 108-wide e-Glass feature row,
// pending-matrix append and clear — must perform zero heap allocations.
// The counting operator new (test-only) proves it.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "../support/alloc_counter.hpp"
#include "common/random.hpp"
#include "engine/patient_session.hpp"
#include "features/eglass_features.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace esl::engine {
namespace {

RealVector noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

TEST(ZeroAllocation, PatientSessionIngestCycleIsAllocationFreeWhenWarm) {
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.history_seconds = 30.0;  // exercise the history ring too
  PatientSession session(7, extractor, config);

  const RealVector a = noise(256, 21);
  const RealVector b = noise(256, 22);
  const std::vector<std::span<const Real>> chunk = {a, b};

  // Warm-up: past the first 4 s window plus several engine-style
  // ingest -> drain cycles so the pending matrix reaches steady capacity.
  for (int i = 0; i < 8; ++i) {
    session.ingest(chunk);
    session.clear_pending();
  }

  const std::size_t windows_before = session.windows_emitted();
  const std::size_t before = esl::testing::allocation_count();
  std::size_t completed = 0;
  for (int i = 0; i < 16; ++i) {
    completed += session.ingest(chunk);
    // The engine reads pending rows into its batch, then clears.
    ASSERT_FALSE(session.pending().empty());
    session.clear_pending();
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  EXPECT_EQ(completed, 16u);  // one window per 1 s chunk at 75 % overlap
  EXPECT_EQ(session.windows_emitted() - windows_before, 16u);
}

TEST(ZeroAllocation, IngestAcrossTheHistoryRingWrapIsAllocationFree) {
  // A 5.5 s ring wraps almost three times in the measured region, and
  // 997-sample chunks complete three or four windows each, so window
  // reads straddle the end of the ring's storage while being counted.
  const features::EglassFeatureExtractor extractor(2);
  SessionConfig config;
  config.history_seconds = 5.5;
  PatientSession session(9, extractor, config);

  const RealVector a = noise(997, 23);
  const RealVector b = noise(997, 24);
  const std::vector<std::span<const Real>> chunk = {a, b};
  for (int i = 0; i < 8; ++i) {
    session.ingest(chunk);
    session.clear_pending();
  }

  const std::size_t windows_before = session.windows_emitted();
  const std::size_t before = esl::testing::allocation_count();
  for (int i = 0; i < 4; ++i) {
    session.ingest(chunk);
    session.clear_pending();
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  // Windows complete at 1024 + k * 256 samples: 28 after 8 chunks of
  // 997, 43 after 12.
  EXPECT_EQ(session.windows_emitted() - windows_before, 15u);
}

TEST(ZeroAllocation, AlarmPostProcessingIsAllocationFree) {
  const features::EglassFeatureExtractor extractor(2);
  PatientSession session(8, extractor, SessionConfig{});
  const std::size_t before = esl::testing::allocation_count();
  std::size_t alarms = 0;
  for (int i = 0; i < 64; ++i) {
    alarms += session.observe_label(i % 4 == 3 ? 0 : 1) ? 1 : 0;
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
  EXPECT_GT(alarms, 0u);
}

}  // namespace
}  // namespace esl::engine

// Steady-state allocation regression suite for the feature hot path.
//
// The e-Glass wearable runs the extractor continuously on battery: per
// window heap churn costs energy and latency, so the warm streaming path
// must perform zero heap allocations (ISSUE 4 / ROADMAP "Zero-alloc DSP
// internals"). A counting operator new (test-only, see
// tests/support/alloc_counter.hpp) asserts exactly that: after warm-up,
// extract_into with a reused workspace does not allocate at all — for
// power-of-two, even and odd window lengths, so both the radix-2 and
// Bluestein FFT paths and the odd-length DWT periodization are covered.
// The streaming path around it (engine::PatientSession ingest) has its
// own warm-cycle check in the engine ZeroAllocation suite.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "../support/alloc_counter.hpp"
#include "../support/simd_level.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "dsp/workspace.hpp"
#include "features/eglass_features.hpp"
#include "features/paper_features.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace esl::features {
namespace {

RealVector noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

/// Allocations performed by `fn()` after `warm_up` priming calls.
template <typename Fn>
std::size_t warm_allocations(Fn&& fn, int warm_up = 3, int measured = 10) {
  for (int i = 0; i < warm_up; ++i) {
    fn();
  }
  const std::size_t before = esl::testing::allocation_count();
  for (int i = 0; i < measured; ++i) {
    fn();
  }
  return esl::testing::allocation_count() - before;
}

TEST(ZeroAllocation, EglassExtractIntoIsAllocationFreeWhenWarm) {
  const EglassFeatureExtractor extractor(2);
  // 1024 = radix-2 FFT; 1000 = Bluestein FFT + odd-length DWT
  // periodization at deeper levels; 768 = even but not a power of two.
  for (const std::size_t length : {1024u, 1000u, 768u}) {
    const RealVector a = noise(length, 2 * length);
    const RealVector b = noise(length, 2 * length + 1);
    const std::vector<std::span<const Real>> window = {a, b};
    dsp::Workspace workspace;
    RealVector row;
    const std::size_t allocs = warm_allocations([&] {
      extractor.extract_into(window, 256.0, row, workspace);
    });
    EXPECT_EQ(allocs, 0u) << "window length " << length;
    EXPECT_EQ(row.size(), 2 * k_eglass_features_per_channel);
  }
}

TEST(ZeroAllocation, PaperExtractIntoIsAllocationFreeWhenWarm) {
  const PaperFeatureExtractor extractor;
  for (const std::size_t length : {1024u, 1000u}) {
    const RealVector a = noise(length, 3 * length);
    const RealVector b = noise(length, 3 * length + 1);
    const std::vector<std::span<const Real>> window = {a, b};
    dsp::Workspace workspace;
    RealVector row;
    const std::size_t allocs = warm_allocations([&] {
      extractor.extract_into(window, 256.0, row, workspace);
    });
    EXPECT_EQ(allocs, 0u) << "window length " << length;
    EXPECT_EQ(row.size(), PaperFeatureExtractor::k_feature_count);
  }
}

TEST(ZeroAllocation, ExtractIntoStaysAllocationFreeAtEverySimdLevel) {
  // The SIMD kernel flavors draw from the same workspace buffers (incl.
  // the cached twiddle tables the vectorized FFT stages read), so the
  // warm extract path must stay at zero allocations per window whichever
  // dispatch level is active — scalar fallback through AVX2.
  const EglassFeatureExtractor eglass(2);
  const PaperFeatureExtractor paper;
  const esl::testing::SimdLevelGuard guard;
  for (const kernels::SimdLevel level : esl::testing::supported_simd_levels()) {
    kernels::set_active_level(level);
    // 1024 = radix-2 half-complex rfft; 1000 = Bluestein half path.
    for (const std::size_t length : {1024u, 1000u}) {
      SCOPED_TRACE(std::string(kernels::level_name(level)) + " length " +
                   std::to_string(length));
      const RealVector a = noise(length, 4 * length);
      const RealVector b = noise(length, 4 * length + 1);
      const std::vector<std::span<const Real>> window = {a, b};
      dsp::Workspace workspace;
      RealVector row;
      EXPECT_EQ(warm_allocations([&] {
                  eglass.extract_into(window, 256.0, row, workspace);
                }),
                0u);
      EXPECT_EQ(warm_allocations([&] {
                  paper.extract_into(window, 256.0, row, workspace);
                }),
                0u);
    }
  }
}

}  // namespace
}  // namespace esl::features

// Microbenchmarks of the feature extraction pipeline: per-window cost of
// the 10-feature (labeling) and 54x2-feature (real-time classifier) sets
// on one warm dsp::Workspace, and whole-record throughput. perfbench's
// features.* layer metrics time the same extract_into calls.
#include <benchmark/benchmark.h>

#include <vector>

#include "dsp/workspace.hpp"
#include "features/eglass_features.hpp"
#include "features/extractor.hpp"
#include "features/paper_features.hpp"
#include "sim/cohort.hpp"

namespace {

using namespace esl;

const sim::CohortSimulator& simulator() {
  static const sim::CohortSimulator instance;
  return instance;
}

void bm_paper_features_window(benchmark::State& state) {
  const auto record = simulator().synthesize_background_record(0, 8.0, 1);
  const features::PaperFeatureExtractor extractor;
  const std::vector<std::span<const Real>> window = {
      std::span<const Real>(record.channel(0).samples).subspan(0, 1024),
      std::span<const Real>(record.channel(1).samples).subspan(0, 1024)};
  dsp::Workspace ws;
  RealVector row;
  for (auto _ : state) {
    extractor.extract_into(window, 256.0, row, ws);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(bm_paper_features_window);

void bm_eglass_features_window(benchmark::State& state) {
  const auto record = simulator().synthesize_background_record(0, 8.0, 2);
  const features::EglassFeatureExtractor extractor(2);
  const std::vector<std::span<const Real>> window = {
      std::span<const Real>(record.channel(0).samples).subspan(0, 1024),
      std::span<const Real>(record.channel(1).samples).subspan(0, 1024)};
  dsp::Workspace ws;
  RealVector row;
  for (auto _ : state) {
    extractor.extract_into(window, 256.0, row, ws);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(bm_eglass_features_window);

void bm_paper_features_per_minute_of_record(benchmark::State& state) {
  const auto record = simulator().synthesize_background_record(1, 60.0, 3);
  const features::PaperFeatureExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        features::extract_windowed_features(record, extractor));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 57);
}
BENCHMARK(bm_paper_features_per_minute_of_record)->Unit(benchmark::kMillisecond);

void bm_record_synthesis_per_minute(benchmark::State& state) {
  std::uint64_t label = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator().synthesize_background_record(2, 60.0, label++));
  }
}
BENCHMARK(bm_record_synthesis_per_minute)->Unit(benchmark::kMillisecond);

}  // namespace

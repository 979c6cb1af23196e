// Microbenchmarks of the DSP substrate on paper-sized inputs
// (4 s windows at 256 Hz = 1024 samples).
//
// Two modes:
//  * default: Google Benchmark suite over the workspace transforms, one
//    warm dsp::Workspace per case (the per-stream serving pattern);
//  * --json PATH: self-timed scalar-vs-SIMD comparison of the hot
//    transforms and of a whole 2-channel e-Glass row — the same
//    workspace call with the kernels:: dispatch forced to scalar, then
//    at the host's widest level — windows/sec and allocs/window for
//    each, written as machine-readable JSON (BENCH_dsp.json in CI). The
//    row's per-channel lanes are not dispatched, so its two columns
//    differ only by the FFT, taper, density and DWT kernels.
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "alloc_compare.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"
#include "entropy/permutation_entropy.hpp"
#include "entropy/sample_entropy.hpp"
#include "features/eglass_features.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace {

using namespace esl;

RealVector random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

/// Two-channel windows of EEG-like AR(1) drift, the kind the e-Glass row
/// sees, as 32 channel pairs. The row benches cycle through them: with
/// one window repeated, the branch predictor learns the comparisons of a
/// data-dependent quartile selection, and the timing no longer describes
/// a stream of new windows.
struct Ar1Windows {
  std::vector<RealVector> samples;
  std::vector<std::vector<std::span<const Real>>> pairs;

  Ar1Windows() : samples(64, RealVector(1024)) {
    Rng rng(8);
    for (RealVector& window : samples) {
      Real state = 0.0;
      for (Real& x : window) {
        state = 0.95 * state + rng.normal(0.0, 12.0);
        x = state;
      }
    }
    for (std::size_t i = 0; i + 1 < samples.size(); i += 2) {
      pairs.push_back({samples[i], samples[i + 1]});
    }
  }
};

void bm_fft_1024(benchmark::State& state) {
  const RealVector x = random_signal(1024, 1);
  dsp::Workspace ws;
  for (auto _ : state) {
    dsp::rfft_into(x, ws, ws.spectrum);
    benchmark::DoNotOptimize(ws.spectrum.data());
  }
}
BENCHMARK(bm_fft_1024);

void bm_fft_bluestein_1000(benchmark::State& state) {
  dsp::ComplexVector x(1000);
  Rng rng(2);
  for (auto& v : x) {
    v = dsp::Complex(rng.normal(), rng.normal());
  }
  dsp::Workspace ws;
  for (auto _ : state) {
    dsp::fft_into(x, ws, ws.spectrum);
    benchmark::DoNotOptimize(ws.spectrum.data());
  }
}
BENCHMARK(bm_fft_bluestein_1000);

void bm_periodogram_window(benchmark::State& state) {
  const RealVector x = random_signal(1024, 3);
  dsp::Workspace ws;
  for (auto _ : state) {
    dsp::periodogram_into(x, 256.0, ws, ws.psd);
    benchmark::DoNotOptimize(ws.psd.density.data());
  }
}
BENCHMARK(bm_periodogram_window);

void bm_wavedec_db4_level7(benchmark::State& state) {
  const RealVector x = random_signal(1024, 4);
  const dsp::Wavelet db4 = dsp::Wavelet::daubechies(4);
  dsp::Workspace ws;
  for (auto _ : state) {
    dsp::wavedec_into(x, db4, 7, ws, ws.decomposition);
    benchmark::DoNotOptimize(ws.decomposition.approx.data());
  }
}
BENCHMARK(bm_wavedec_db4_level7);

/// One 2-channel e-Glass row (108 features) of 1024-sample AR(1) windows.
void bm_eglass_row(benchmark::State& state) {
  const Ar1Windows windows;
  const features::EglassFeatureExtractor extractor(2);
  dsp::Workspace ws;
  RealVector row;
  std::size_t next = 0;
  for (auto _ : state) {
    extractor.extract_into(windows.pairs[next], 256.0, row, ws);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
    next = (next + 1) % windows.pairs.size();
  }
}
BENCHMARK(bm_eglass_row);

void bm_permutation_entropy(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  // Paper geometry: PE runs on tiny DWT levels (8-16 coefficients).
  const RealVector x = random_signal(16, 6);
  std::vector<std::size_t> counts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        entropy::permutation_entropy(x, order, 1, counts));
  }
}
BENCHMARK(bm_permutation_entropy)->Arg(5)->Arg(7);

void bm_sample_entropy_level6(benchmark::State& state) {
  const RealVector x = random_signal(16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(entropy::sample_entropy_relative(x, 2, 0.2));
  }
}
BENCHMARK(bm_sample_entropy_level6);

// --------------------------------------------------------------- --json
// Self-timed (no Google Benchmark, so the allocation counts are exactly
// the measured calls and nothing else). Harness + JSON schema in
// alloc_compare.hpp.

using bench::Comparison;
using bench::measure;

int run_json_mode(const std::string& path) {
  const RealVector x1024 = random_signal(1024, 3);
  const dsp::Wavelet db4 = dsp::Wavelet::daubechies(4);
  dsp::Workspace ws;
  std::vector<Comparison> comparisons;

  // The same workspace path measured twice, with the kernels:: dispatch
  // forced to scalar for "before" and back to the host's widest level
  // for "after" (outputs are bit-identical either way — see the
  // dsp.SimdParity suites — so this isolates pure kernel speedup on the
  // hot loops).
  const kernels::SimdLevel widest = kernels::detected_level();
  auto measure_at_level = [&](kernels::SimdLevel level, auto&& fn,
                              std::size_t iterations) {
    kernels::set_active_level(level);
    const bench::PathResult result = measure(fn, iterations);
    kernels::set_active_level(widest);
    return result;
  };
  auto periodogram_window = [&] {
    dsp::periodogram_into(x1024, 256.0, ws, ws.psd);
    benchmark::DoNotOptimize(ws.psd.density.data());
  };
  auto rfft_window = [&] {
    dsp::rfft_into(x1024, ws, ws.spectrum);
    benchmark::DoNotOptimize(ws.spectrum.data());
  };
  auto wavedec_window = [&] {
    dsp::wavedec_into(x1024, db4, 7, ws, ws.decomposition);
    benchmark::DoNotOptimize(ws.decomposition.approx.data());
  };
  const Ar1Windows ar1;
  const features::EglassFeatureExtractor eglass(2);
  RealVector row;
  std::size_t next_pair = 0;
  auto eglass_row = [&] {
    eglass.extract_into(ar1.pairs[next_pair], 256.0, row, ws);
    benchmark::DoNotOptimize(row.data());
    next_pair = (next_pair + 1) % ar1.pairs.size();
  };
  comparisons.push_back(
      {"periodogram_1024_scalar_vs_simd",
       measure_at_level(kernels::SimdLevel::kScalar, periodogram_window, 20000),
       measure_at_level(widest, periodogram_window, 20000)});
  comparisons.push_back(
      {"rfft_1024_scalar_vs_simd",
       measure_at_level(kernels::SimdLevel::kScalar, rfft_window, 50000),
       measure_at_level(widest, rfft_window, 50000)});
  comparisons.push_back(
      {"wavedec_db4_level7_1024_scalar_vs_simd",
       measure_at_level(kernels::SimdLevel::kScalar, wavedec_window, 20000),
       measure_at_level(widest, wavedec_window, 20000)});
  comparisons.push_back(
      {"eglass_row_2ch_1024_scalar_vs_simd",
       measure_at_level(kernels::SimdLevel::kScalar, eglass_row, 5000),
       measure_at_level(widest, eglass_row, 5000)});

  std::printf("simd level: %s (detected %s)\n",
              kernels::level_name(kernels::active_level()),
              kernels::level_name(widest));
  bench::print_comparison_table("transform", comparisons);
  return bench::write_comparison_json(path, "micro_dsp", comparisons);
}

}  // namespace

int main(int argc, char** argv) {
  return esl::bench::benchmark_main_with_json(argc, argv, run_json_mode);
}

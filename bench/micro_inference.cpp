// Microbenchmarks of forest inference: node-hopping interpreter
// (RandomForest::predict_all_into) vs the flat traversal
// (ml::CompiledForest::predict_into), across tree depth and batch size.
// Both produce bit-identical outputs (tests/ml/test_compiled_forest.cpp);
// this isolates the layout win.
//
// Every call classifies fresh rows, as serving does: each call copies its
// batch out of a pre-generated pool of k_pool_rows rows at a rotating
// offset. Classifying the same rows on every call would let the branch
// predictor learn their paths and flatter the branchy node-hop loop at
// small batches. The copy is part of both columns' timing.
//
// Two modes:
//  * default: Google Benchmark suite;
//  * --json PATH: self-timed node-hop/flat matrix over depth x batch,
//    written as machine-readable JSON (BENCH_inference.json in CI) so
//    the inference trajectory can be tracked across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "alloc_compare.hpp"
#include "common/random.hpp"
#include "common/simd.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace {

using namespace esl;

constexpr std::size_t k_features = 54;  // e-Glass per-electrode width
/// Rows the calls draw from: far more root-to-leaf paths than a branch
/// predictor can memorize, few enough bytes (1.7 MB) to stay cached
/// like freshly extracted features.
constexpr std::size_t k_pool_rows = 4096;

ml::Dataset noisy_dataset(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  RealVector row(k_features);
  for (std::size_t i = 0; i < size; ++i) {
    for (auto& v : row) {
      v = rng.normal();
    }
    // Weakly informative labels grow deep, bushy trees.
    data.push_back(row, row[0] + 0.25 * rng.normal() > 0.0 ? 1 : 0);
  }
  return data;
}

ml::RandomForest fitted_forest(std::size_t max_depth) {
  ml::ForestConfig config;
  config.tree.max_depth = max_depth;
  ml::RandomForest forest(config);
  forest.fit(noisy_dataset(600, 7), 7);
  return forest;
}

/// Hands out batches of fresh rows: each next() copies the following
/// `batch` pool rows (wrapping) into one reused matrix.
class RowStream {
 public:
  explicit RowStream(std::size_t batch) : batch_(batch, k_features) {
    Rng rng(11);
    for (std::size_t r = 0; r < k_pool_rows; ++r) {
      RealVector row(k_features);
      for (auto& v : row) {
        v = rng.normal();
      }
      pool_.append_row(row);
    }
  }

  Matrix& next() {
    for (std::size_t r = 0; r < batch_.rows(); ++r) {
      const auto src = pool_.row(cursor_);
      std::copy(src.begin(), src.end(), batch_.row(r).begin());
      cursor_ = cursor_ + 1 == k_pool_rows ? 0 : cursor_ + 1;
    }
    return batch_;
  }

 private:
  Matrix pool_;
  Matrix batch_;
  std::size_t cursor_ = 0;
};

void bm_node_hop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const ml::RandomForest forest = fitted_forest(depth);
  RowStream stream(batch);
  RealVector proba;
  std::vector<int> labels;
  for (auto _ : state) {
    forest.predict_all_into(stream.next(), proba, labels);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void bm_flat(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const ml::RandomForest forest = fitted_forest(depth);
  const ml::CompiledForest compiled(forest);  // no scaler: same input rows
  RowStream stream(batch);
  RealVector proba;
  std::vector<int> labels;
  for (auto _ : state) {
    compiled.predict_into(stream.next(), proba, labels);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void depth_by_batch(benchmark::internal::Benchmark* bench) {
  for (const std::int64_t depth : {4, 8, 16}) {
    for (const std::int64_t batch : {1, 16, 64, 256, 1024}) {
      bench->Args({depth, batch});
    }
  }
}

BENCHMARK(bm_node_hop)->Apply(depth_by_batch);
BENCHMARK(bm_flat)->Apply(depth_by_batch);

// --------------------------------------------------------------- --json
// Self-timed node-hop vs flat matrix (no Google Benchmark so the numbers
// come from the exact measured calls). Reuses the timing protocol of the
// dsp/features micro benches (alloc_compare.hpp).

using bench::measure;
using bench::PathResult;

struct InferenceCell {
  std::size_t depth;
  std::size_t batch;
  PathResult node_hop;
  PathResult flat;
};

int run_json_mode(const std::string& path) {
  std::vector<InferenceCell> cells;
  for (const std::size_t depth : {4u, 8u, 16u}) {
    const ml::RandomForest forest = fitted_forest(depth);
    const ml::CompiledForest compiled(forest);
    for (const std::size_t batch : {1u, 16u, 64u, 256u, 1024u}) {
      RowStream stream(batch);
      RealVector proba;
      std::vector<int> labels;
      // Scale iteration counts so each cell costs roughly constant time.
      const std::size_t iterations = 20000 / batch + 50;
      InferenceCell cell{depth, batch, {}, {}};
      cell.node_hop = measure(
          [&] {
            forest.predict_all_into(stream.next(), proba, labels);
            benchmark::DoNotOptimize(labels.data());
          },
          iterations);
      cell.flat = measure(
          [&] {
            compiled.predict_into(stream.next(), proba, labels);
            benchmark::DoNotOptimize(labels.data());
          },
          iterations);
      cells.push_back(cell);
    }
  }

  // Columns are rows/sec (per-call rate times batch), matching the
  // *_rps fields in the JSON.
  std::printf("%-18s %14s %14s %9s\n", "depth x batch", "node-hop (r/s)",
              "flat (r/s)", "flat/hop");
  for (const InferenceCell& c : cells) {
    std::printf("d%-2zu b%-13zu %14.0f %14.0f %8.2fx\n", c.depth, c.batch,
                c.node_hop.windows_per_s * c.batch,
                c.flat.windows_per_s * c.batch,
                c.flat.windows_per_s / c.node_hop.windows_per_s);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"micro_inference\",\n  \"cores\": %u,\n"
               "  \"simd_level\": \"%s\",\n  \"results\": [\n",
               std::thread::hardware_concurrency(),
               kernels::level_name(kernels::active_level()));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const InferenceCell& c = cells[i];
    // rows/sec: per-call rate times the batch each call classifies.
    std::fprintf(f,
                 "    {\"depth\": %zu, \"batch\": %zu, \"node_hop_rps\": %.1f, "
                 "\"flat_rps\": %.1f, \"flat_speedup\": %.3f}%s\n",
                 c.depth, c.batch, c.node_hop.windows_per_s * c.batch,
                 c.flat.windows_per_s * c.batch,
                 c.flat.windows_per_s / c.node_hop.windows_per_s,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return esl::bench::benchmark_main_with_json(argc, argv, run_json_mode);
}

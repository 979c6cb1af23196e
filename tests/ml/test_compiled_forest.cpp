// CompiledForest parity, degenerate-ensemble and steady-state
// allocation suites.
//
// CompiledForest is the one flat model, over two storage sources: arrays
// flattened from a fitted RandomForest, and an artifact file mapped by
// load_artifact. Its contract is bit-identical probabilities and labels
// to the node-hopping interpreter from either source — for bushy
// forests across the depth sweep, degenerate single-leaf and
// constant-feature ensembles, NaN feature values, and batch sizes
// straddling the traversal block. The warm predict_into path must also
// allocate nothing, since the engine drives it per polled batch on
// battery-bound deployments. (The counting allocator for the ml test
// binary is defined here.)
#include "ml/compiled_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "../support/alloc_counter.hpp"
#include "common/error.hpp"
#include "ml/artifact.hpp"
#include "ml/dataset.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace esl::ml {
namespace {

/// Batch sizes around the 16-row traversal block: a single row, partial
/// blocks, exact blocks, and multi-block batches.
constexpr std::size_t k_batches[] = {1, 7, 15, 16, 17, 31, 32, 33, 256, 257};

Dataset blobs(std::size_t per_class, std::uint64_t seed, Real separation = 3.0,
              std::size_t extra_noise_features = 6) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < per_class; ++i) {
    for (const int label : {1, 0}) {
      RealVector row;
      row.push_back(rng.normal(label == 1 ? separation : 0.0, 1.0));
      row.push_back(rng.normal(label == 1 ? -separation : 0.0, 1.0));
      for (std::size_t f = 0; f < extra_noise_features; ++f) {
        row.push_back(rng.normal());
      }
      data.push_back(row, label);
    }
  }
  return data;
}

/// Noisy labels and tied feature values: grows bushy trees with
/// duplicate thresholds and no-split leaves at many depths.
Dataset noisy(std::size_t size, std::uint64_t seed,
              std::size_t features = 10) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < size; ++i) {
    RealVector row;
    for (std::size_t f = 0; f < features; ++f) {
      // Quantized values force equal-value runs (non-boundaries) in the
      // split search.
      row.push_back(std::round(rng.normal() * 4.0) / 4.0);
    }
    data.push_back(row, rng.uniform_index(2) == 0 ? 0 : 1);
  }
  return data;
}

/// A temp artifact path unique to the running test (ctest runs tests
/// as parallel processes, so files must not be shared between them).
std::string artifact_path() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "compiled_" + info->name() + ".eslm";
}

/// The same model served from the other storage source: saved, then
/// mapped back.
std::shared_ptr<const CompiledForest> mapped_copy(
    const CompiledForest& compiled) {
  const std::string path = artifact_path();
  save_artifact(path, compiled);
  return load_artifact(path);
}

/// Asserts CompiledForest(forest), flattened and mapped, reproduces
/// predict_all_into bit for bit on `rows` (pre-scaled / scaler-free
/// path).
void expect_parity(const RandomForest& forest, const Matrix& rows) {
  RealVector proba_reference;
  std::vector<int> labels_reference;
  forest.predict_all_into(rows, proba_reference, labels_reference);

  const CompiledForest compiled(forest);
  const auto mapped = mapped_copy(compiled);
  for (const CompiledForest* model : {&compiled, mapped.get()}) {
    SCOPED_TRACE(model->name());
    Matrix scratch = rows;  // empty scaler: left untouched
    RealVector proba;
    std::vector<int> labels;
    model->predict_into(scratch, proba, labels);
    EXPECT_EQ(proba, proba_reference);  // bit-identical, no tolerance
    EXPECT_EQ(labels, labels_reference);
    EXPECT_EQ(scratch, rows);
  }
}

TEST(CompiledForest, RandomizedParityWithInterpreterIsBitIdentical) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomForest forest;  // default config: 32 trees, depth 16
    forest.fit(noisy(300, seed), seed);
    // Probe with sizes around the traversal block (16): partial blocks,
    // exact blocks, multi-block batches, and a single row.
    for (const std::size_t rows : {1u, 7u, 16u, 33u, 256u}) {
      expect_parity(forest, noisy(rows, seed + 100).x);
    }
  }
}

TEST(CompiledForest, RandomizedParityAcrossBlockBoundaryBatches) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomForest forest;  // default config: 32 trees, depth 16
    forest.fit(noisy(300, seed), seed);
    // Every batch size straddling the 16-row block, plus a large
    // multi-block batch.
    for (const std::size_t rows : k_batches) {
      SCOPED_TRACE("rows " + std::to_string(rows));
      expect_parity(forest, noisy(rows, seed + 100).x);
    }
    expect_parity(forest, noisy(1024, seed + 200).x);
  }
}

TEST(CompiledForest, Depth16ForestsAndStumpsStayBitIdentical) {
  for (const std::size_t depth : {1u, 2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    ForestConfig config;
    config.tree.max_depth = depth;
    RandomForest forest(config);
    forest.fit(blobs(200, depth, 1.0), 9);
    expect_parity(forest, blobs(100, depth + 50, 1.0).x);
  }
}

TEST(CompiledForest, NoisyDepthSweepStaysBitIdentical) {
  // Bushy noisy-label forests at every depth, across the batch sizes
  // straddling the traversal block.
  for (const std::size_t depth : {1u, 2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    ForestConfig config;
    config.tree.max_depth = depth;
    RandomForest forest(config);
    forest.fit(noisy(250, depth + 7), 9);
    for (const std::size_t rows : k_batches) {
      SCOPED_TRACE("rows " + std::to_string(rows));
      expect_parity(forest, noisy(rows, depth + 50).x);
    }
  }
}

TEST(CompiledForest, NanFeaturesGoRightBitIdentically) {
  // No training row is NaN, but a serving row can be (a dropped-out
  // channel): `NaN <= threshold` is false, so every split sends it
  // right. ForestModel, the flattened and the mapped model must agree.
  RandomForest forest;
  forest.fit(noisy(300, 81), 5);
  const RowScaler scaler = {RealVector(10, 0.25), RealVector(10, 1.5)};
  Matrix raw = noisy(64, 82).x;
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  for (std::size_t r = 0; r < raw.rows(); ++r) {
    // Every row gets NaN in a rotating feature; some rows in all of them.
    raw(r, r % raw.cols()) = nan;
    if (r % 9 == 0) {
      for (std::size_t f = 0; f < raw.cols(); ++f) {
        raw(r, f) = nan;
      }
    }
  }

  const ForestModel oracle(std::make_shared<const RandomForest>(forest),
                           scaler);
  Matrix oracle_scratch = raw;
  RealVector proba_reference;
  std::vector<int> labels_reference;
  oracle.predict_into(oracle_scratch, proba_reference, labels_reference);

  const CompiledForest compiled(forest, scaler);
  const auto mapped = mapped_copy(compiled);
  for (const CompiledForest* model : {&compiled, mapped.get()}) {
    SCOPED_TRACE(model->name());
    Matrix scratch = raw;
    RealVector proba;
    std::vector<int> labels;
    model->predict_into(scratch, proba, labels);
    EXPECT_EQ(proba, proba_reference);  // bit-identical, no tolerance
    EXPECT_EQ(labels, labels_reference);
  }
}

TEST(CompiledForest, SingleLeafDegenerateTreesSelfLoop) {
  // Pure labels: every bootstrap is single-class, so every tree is one
  // leaf (depth 0) and traversal must park rows on the root immediately.
  Dataset pure;
  Rng rng(3);
  for (std::size_t i = 0; i < 32; ++i) {
    const RealVector row = {rng.normal(), rng.normal()};
    pure.push_back(row, 1);
  }
  ForestConfig config;
  config.tree_count = 4;
  RandomForest forest(config);
  forest.fit(pure, 5);
  const CompiledForest compiled(forest);
  EXPECT_EQ(compiled.max_depth(), 0u);
  EXPECT_EQ(compiled.node_count(), 4u);  // one self-looping leaf per tree

  Matrix rows = blobs(20, 7, 1.0, 0).x;
  RealVector proba;
  std::vector<int> labels;
  compiled.predict_into(rows, proba, labels);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    EXPECT_EQ(proba[r], 1.0);
    EXPECT_EQ(labels[r], 1);
  }
  expect_parity(forest, rows);
}

TEST(CompiledForest, SingleLeafDegenerateForestParksOnRoot) {
  // The same all-leaf ensemble served from a mapping, on bushy-forest
  // rows: every tree reports depth 0 and every row scores 1.
  Dataset pure;
  Rng rng(3);
  for (std::size_t i = 0; i < 32; ++i) {
    const RealVector row = {rng.normal(), rng.normal()};
    pure.push_back(row, 1);
  }
  ForestConfig config;
  config.tree_count = 4;
  RandomForest forest(config);
  forest.fit(pure, 5);
  const CompiledForest compiled(forest);
  const auto mapped = mapped_copy(compiled);
  EXPECT_EQ(mapped->max_depth(), 0u);

  const Matrix rows = noisy(40, 11, 2).x;
  Matrix scratch = rows;
  RealVector proba;
  std::vector<int> labels;
  mapped->predict_into(scratch, proba, labels);
  ASSERT_EQ(proba.size(), rows.rows());
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    EXPECT_EQ(proba[r], 1.0);
    EXPECT_EQ(labels[r], 1);
  }
  expect_parity(forest, rows);
}

TEST(CompiledForest, ConstantFeaturesYieldLeafOnlyForest) {
  // No informative split anywhere: build() keeps every root a leaf even
  // though labels are mixed.
  Dataset flat;
  const RealVector constant_row = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 40; ++i) {
    flat.push_back(constant_row, i % 2 == 0 ? 1 : 0);
  }
  RandomForest forest;
  forest.fit(flat, 11);
  expect_parity(forest, flat.x);
}

TEST(CompiledForest, ConstantFeatureForestIsAllRootLeaves) {
  // Mixed labels on one constant row: every tree is a single root leaf,
  // so every node self-loops and any row lands on the roots.
  Dataset flat;
  const RealVector constant_row = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 40; ++i) {
    flat.push_back(constant_row, i % 2 == 0 ? 1 : 0);
  }
  RandomForest forest;
  forest.fit(flat, 11);
  const CompiledForest compiled(forest);
  EXPECT_EQ(compiled.node_count(), compiled.tree_count());
  EXPECT_EQ(compiled.max_depth(), 0u);
  const FlatForest& view = compiled.view();
  for (std::size_t n = 0; n < view.node_count(); ++n) {
    EXPECT_EQ(view.children[2 * n], n);
    EXPECT_EQ(view.children[2 * n + 1], n);
  }
  for (const std::size_t rows : k_batches) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    expect_parity(forest, noisy(rows, 12, 3).x);
  }
}

TEST(CompiledForest, BakedScalerMatchesScaleThenPredict) {
  const Dataset train = noisy(400, 21);
  RandomForest forest;
  forest.fit(train, 13);

  // Fit a z-score on the training matrix (one constant column exercises
  // the zero-spread branch).
  RowScaler scaler;
  for (std::size_t f = 0; f < train.feature_count(); ++f) {
    const RealVector column = train.x.column(f);
    Real mean = 0.0;
    for (const Real v : column) {
      mean += v;
    }
    mean /= static_cast<Real>(column.size());
    Real var = 0.0;
    for (const Real v : column) {
      var += (v - mean) * (v - mean);
    }
    scaler.mean.push_back(mean);
    scaler.stddev.push_back(std::sqrt(var / static_cast<Real>(column.size())));
  }
  scaler.stddev.back() = 0.0;  // degenerate column: centered-to-zero path

  const Matrix raw = noisy(64, 22).x;

  // Reference: scale a copy, then the interpreter.
  Matrix scaled = raw;
  scaler.apply(scaled);
  RealVector proba_reference;
  std::vector<int> labels_reference;
  forest.predict_all_into(scaled, proba_reference, labels_reference);

  // Compiled artifact with the scaler baked in, fed raw rows.
  const CompiledForest compiled(forest, scaler);
  Matrix scratch = raw;
  RealVector proba_compiled;
  std::vector<int> labels_compiled;
  compiled.predict_into(scratch, proba_compiled, labels_compiled);
  EXPECT_EQ(proba_compiled, proba_reference);
  EXPECT_EQ(labels_compiled, labels_reference);
  EXPECT_EQ(scratch, scaled);  // rows were z-scored in place

  // The ForestModel adapter over the same forest + scaler agrees too.
  const ForestModel adapter(std::make_shared<const RandomForest>(forest),
                            scaler);
  Matrix adapter_scratch = raw;
  RealVector proba_adapter;
  std::vector<int> labels_adapter;
  adapter.predict_into(adapter_scratch, proba_adapter, labels_adapter);
  EXPECT_EQ(proba_adapter, proba_reference);
  EXPECT_EQ(labels_adapter, labels_reference);
}

TEST(CompiledForest, BakedScalerSurvivesTheArtifactRoundTrip) {
  // Mapped from a saved artifact, the baked scaler rides along: raw rows
  // z-score in place and classify exactly as the flattened model does.
  const Dataset train = noisy(300, 21);
  RandomForest forest;
  forest.fit(train, 13);

  RowScaler scaler;
  for (std::size_t f = 0; f < train.feature_count(); ++f) {
    scaler.mean.push_back(0.25 * static_cast<Real>(f));
    scaler.stddev.push_back(1.0 + 0.1 * static_cast<Real>(f));
  }
  scaler.stddev.back() = 0.0;  // degenerate column: centered-to-zero path

  const Matrix raw = noisy(64, 22).x;
  const CompiledForest compiled(forest, scaler);
  Matrix compiled_scratch = raw;
  RealVector proba_compiled;
  std::vector<int> labels_compiled;
  compiled.predict_into(compiled_scratch, proba_compiled, labels_compiled);

  const auto mapped = mapped_copy(compiled);
  Matrix scratch = raw;
  RealVector proba;
  std::vector<int> labels;
  mapped->predict_into(scratch, proba, labels);
  EXPECT_EQ(proba, proba_compiled);
  EXPECT_EQ(labels, labels_compiled);
  EXPECT_EQ(scratch, compiled_scratch);  // rows were z-scored in place
}

TEST(CompiledForest, HonorsDecisionThreshold) {
  ForestConfig config;
  config.threshold = 0.8;
  RandomForest forest(config);
  forest.fit(blobs(150, 31, 1.0), 3);
  const CompiledForest compiled(forest);
  EXPECT_EQ(compiled.decision_threshold(), 0.8);
  expect_parity(forest, blobs(80, 32, 1.0).x);
}

TEST(CompiledForest, IntrospectionMatchesSourceForest) {
  RandomForest forest;
  forest.fit(blobs(100, 41), 17);
  const CompiledForest compiled(forest);
  EXPECT_EQ(compiled.tree_count(), forest.tree_count());
  std::size_t nodes = 0;
  std::size_t depth = 0;
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    nodes += forest.tree(t).node_count();
    depth = std::max(depth, forest.tree(t).depth());
  }
  EXPECT_EQ(compiled.node_count(), nodes);
  EXPECT_EQ(compiled.max_depth(), depth);
  EXPECT_STREQ(compiled.name(), "compiled");

  // Leaves self-loop through both slots of their child pair.
  const FlatForest& flat = compiled.view();
  ASSERT_EQ(flat.children.size(), 2 * flat.node_count());
  for (std::size_t n = 0; n < flat.node_count(); ++n) {
    if (flat.threshold[n] == std::numeric_limits<Real>::infinity()) {
      EXPECT_EQ(flat.children[2 * n], n);
      EXPECT_EQ(flat.children[2 * n + 1], n);
    }
  }
}

TEST(CompiledForest, MappedIntrospectionMatchesFlattened) {
  RandomForest forest;
  forest.fit(noisy(120, 31), 17);
  const CompiledForest compiled(forest);
  const auto mapped = mapped_copy(compiled);
  EXPECT_STREQ(mapped->name(), "mapped");
  EXPECT_EQ(mapped->tree_count(), compiled.tree_count());
  EXPECT_EQ(mapped->node_count(), compiled.node_count());
  EXPECT_EQ(mapped->max_depth(), compiled.max_depth());
  EXPECT_EQ(mapped->max_feature(), compiled.max_feature());
  EXPECT_EQ(mapped->decision_threshold(), compiled.decision_threshold());
  EXPECT_EQ(mapped->view().children.size(), 2 * mapped->node_count());
}

TEST(CompiledForest, EmptyBatchProducesEmptyOutputs) {
  RandomForest forest;
  forest.fit(blobs(50, 51), 1);
  const CompiledForest compiled(forest);
  Matrix empty;
  RealVector proba = {1.0, 2.0};       // stale scratch must be overwritten
  std::vector<int> labels = {1, 0, 1};
  compiled.predict_into(empty, proba, labels);
  EXPECT_TRUE(proba.empty());
  EXPECT_TRUE(labels.empty());
}

TEST(CompiledForest, RejectsUnfittedForestAndNarrowRows) {
  const RandomForest unfitted;
  EXPECT_THROW(CompiledForest{unfitted}, InvalidArgument);

  RandomForest forest;
  forest.fit(blobs(50, 61), 1);  // 8 features
  const CompiledForest compiled(forest);
  Matrix narrow(4, 1, 0.5);
  RealVector proba;
  std::vector<int> labels;
  EXPECT_THROW(compiled.predict_into(narrow, proba, labels), InvalidArgument);
}

TEST(CompiledForest, MappedEmptyBatchAndErrorPaths) {
  RandomForest forest;
  forest.fit(noisy(60, 41), 1);  // 10 features
  const auto mapped = mapped_copy(CompiledForest(forest));

  Matrix empty;
  RealVector proba = {1.0, 2.0};  // stale scratch must be overwritten
  std::vector<int> labels = {1, 0, 1};
  mapped->predict_into(empty, proba, labels);
  EXPECT_TRUE(proba.empty());
  EXPECT_TRUE(labels.empty());

  Matrix narrow(4, 1, 0.5);
  EXPECT_THROW(mapped->predict_into(narrow, proba, labels), InvalidArgument);
}

/// The engine polls predict_into once per batch on the streaming hot
/// path: after the first (sizing) call, repeated predictions on reused
/// scratch must not touch the heap.
void expect_warm_predict_allocation_free(const CompiledForest& model) {
  const Matrix rows = noisy(64, 52).x;
  Matrix scratch = rows;
  RealVector proba;
  std::vector<int> labels;
  for (int warm = 0; warm < 3; ++warm) {
    model.predict_into(scratch, proba, labels);
  }
  const std::size_t before = esl::testing::allocation_count();
  for (int i = 0; i < 10; ++i) {
    model.predict_into(scratch, proba, labels);
  }
  EXPECT_EQ(esl::testing::allocation_count() - before, 0u);
}

TEST(CompiledForest, WarmPredictIntoIsAllocationFree) {
  RandomForest forest;
  forest.fit(noisy(200, 51), 3);
  const RowScaler scaler = {RealVector(10, 0.1), RealVector(10, 1.2)};
  expect_warm_predict_allocation_free(CompiledForest(forest, scaler));
}

TEST(CompiledForest, MappedWarmPredictIntoIsAllocationFree) {
  RandomForest forest;
  forest.fit(noisy(200, 71), 3);
  const RowScaler scaler = {RealVector(10, 0.1), RealVector(10, 1.2)};
  expect_warm_predict_allocation_free(
      *mapped_copy(CompiledForest(forest, scaler)));
}

TEST(ForestModel, RejectsNullAndUnfittedForest) {
  EXPECT_THROW(ForestModel(nullptr, {}), InvalidArgument);
  EXPECT_THROW(ForestModel(std::make_shared<const RandomForest>(), {}),
               InvalidArgument);
}

TEST(RowScaler, EmptyScalerIsIdentityAndMismatchThrows) {
  Matrix rows(2, 3, 1.5);
  const Matrix original = rows;
  RowScaler{}.apply(rows);
  EXPECT_EQ(rows, original);

  RowScaler scaler;
  scaler.mean = {0.0, 0.0};
  scaler.stddev = {1.0, 1.0};
  EXPECT_THROW(scaler.apply(rows), InvalidArgument);  // width mismatch
}

}  // namespace
}  // namespace esl::ml

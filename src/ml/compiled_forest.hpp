// The flat-forest model: a fitted random forest as contiguous
// structure-of-arrays storage, served by one branch-free traversal.
//
// A fitted RandomForest keeps each tree as a vector of Node structs and
// classifies by hopping node indices through scattered records — fine for
// a wearable classifying one window, wasteful for a service classifying
// a fleet's batch. CompiledForest holds the whole ensemble as flat
// feature[], threshold[], interleaved children[] and leaf_value[] arrays
// with all trees packed back-to-back, and predict_into traverses
// row-block-major: a block of rows advances through every tree level by
// level, picking each row's next node as children[2*node + go_right] —
// pure index arithmetic, no data-dependent branch. Leaves are encoded as
// self-loops, so a block runs a fixed per-tree level count with no
// per-row early-exit branch.
//
// Two storage sources, one traversal:
//   * flattened — the constructor over a fitted RandomForest owns the
//     arrays (RealtimeDetector::compile, ml::compile);
//   * mapped — load_artifact (ml/artifact.hpp) maps a saved artifact
//     file and aims the same spans straight into the mapping, with zero
//     deserialization.
// predict_into reads the same FlatForest spans either way.
//
// Parity contract: per row, trees accumulate in the same order and with
// the same final division by tree_count as RandomForest::predict_proba /
// predict_all_into, and split with the same `value <= threshold` test
// (NaN goes right), so outputs are bit-identical to the node-hopping
// interpreter (tests/ml/test_compiled_forest.cpp).
//
// The model is immutable after construction and holds no mutable state,
// which is what makes DetectionService::swap_model safe: deploys are a
// shared_ptr swap under the shard lock, never an in-place retrain.
//
// Layout contract (the single source of truth shared with the on-disk
// artifact writer/mapper in ml/artifact.hpp):
//   * one entry per node, all trees back-to-back in ensemble order;
//     children are absolute node indices into the same arrays;
//   * leaves self-loop (both children == self, feature 0, threshold
//     +inf), so traversal runs a fixed per-tree level count with no
//     is_leaf branch, and NaN feature values go right (compare false);
//   * leaf_value[n] holds every node's positive fraction but is only
//     read once a row parks on a leaf;
//   * tree_root[t] is the absolute index of tree t's root, tree_depth[t]
//     the level count traversal runs for it (0 for a single-leaf tree);
//   * node indices are uint32 (at most 2^32 - 1 nodes), thresholds/leaf
//     values are Real (double);
//   * every accessor returns a std::span view — no accessor copies, so
//     a serializer can stream the arrays straight out.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/inference_model.hpp"
#include "ml/random_forest.hpp"
#include "platform/mmap_file.hpp"

namespace esl::ml {

/// Borrowed view of one flattened ensemble — the traversal contract.
/// CompiledForest aims it at its owned vectors or into a mapped artifact
/// (ml/artifact.hpp); predict_flat runs identically over either. The
/// view owns nothing: whoever holds the arrays must outlive it.
struct FlatForest {
  std::span<const std::uint32_t> feature;
  std::span<const Real> threshold;
  /// Interleaved child pairs: children[2*n + 0] = left, children[2*n +
  /// 1] = right, so the per-level pick is one load at 2*n + go_right.
  std::span<const std::uint32_t> children;
  std::span<const Real> leaf_value;
  std::span<const std::uint32_t> tree_root;
  std::span<const std::uint32_t> tree_depth;
  Real decision_threshold = 0.5;
  std::uint32_t max_feature = 0;

  std::size_t node_count() const { return feature.size(); }
  std::size_t tree_count() const { return tree_root.size(); }
};

/// The one flat traversal: row-block-major, branch-free over the
/// interleaved child pairs. `rows` must already be z-scored. Overwrites
/// `proba`/`labels` (resized; reused scratch allocates nothing warm).
/// Per row, trees accumulate in ensemble order with one final division
/// by tree_count, so outputs are bit-identical to
/// RandomForest::predict_all_into on the source ensemble.
void predict_flat(const FlatForest& forest, const Matrix& rows,
                  RealVector& proba, std::vector<int>& labels);

class CompiledForest final : public InferenceModel {
 public:
  /// Flattens `forest` (must be fitted). `scaler` is baked in and applied
  /// before traversal; pass {} when rows arrive pre-scaled.
  explicit CompiledForest(const RandomForest& forest, RowScaler scaler = {});

  /// Serves the artifact in `file` straight from its bytes: validates
  /// them (bind_artifact in ml/artifact.hpp) and aims every span into the
  /// mapping, which this model then owns. Prefer ml::load_artifact(path).
  explicit CompiledForest(platform::MappedFile file);

  // Spans point into members, so the model stays where it was built
  // (it is shared by shared_ptr anyway).
  CompiledForest(const CompiledForest&) = delete;
  CompiledForest& operator=(const CompiledForest&) = delete;

  const char* name() const override {
    return file_.is_open() ? "mapped" : "compiled";
  }
  std::size_t tree_count() const override { return flat_.tree_count(); }
  void predict_into(Matrix& raw_rows, RealVector& proba,
                    std::vector<int>& labels) const override;

  /// Total flattened nodes across all trees.
  std::size_t node_count() const { return flat_.node_count(); }
  /// Deepest tree in the ensemble (levels traversed per block).
  std::size_t max_depth() const { return max_depth_; }
  /// Decision threshold on the averaged tree probability.
  Real decision_threshold() const { return flat_.decision_threshold; }
  /// Widest feature index any split reads (rows must be wider).
  std::uint32_t max_feature() const { return flat_.max_feature; }

  /// The traversal view over this model's arrays, in flattening order
  /// (borrowed: valid while *this lives).
  const FlatForest& view() const { return flat_; }
  /// The baked z-score (both empty when rows arrive pre-scaled).
  std::span<const Real> scaler_mean() const { return mean_; }
  std::span<const Real> scaler_stddev() const { return stddev_; }

 private:
  // Flattened storage (empty when mapped). Leaves self-loop: both
  // children == self, threshold +inf.
  std::vector<std::uint32_t> feature_;
  RealVector threshold_;
  std::vector<std::uint32_t> children_;
  RealVector leaf_value_;
  std::vector<std::uint32_t> tree_root_;
  std::vector<std::uint32_t> tree_depth_;  // levels to run per tree
  RowScaler scaler_;
  // Mapped storage (closed when flattened).
  platform::MappedFile file_;

  FlatForest flat_;  // spans into the vectors above or into file_
  std::span<const Real> mean_;
  std::span<const Real> stddev_;
  std::size_t max_depth_ = 0;
};

/// Selects nothing: kCompiled is the only enumerator. It survives only
/// because the benchmark sources (perfbench/) still pass it to the
/// three-argument ml::compile below; a later change to the benchmark
/// can drop the argument, and the enum with it.
enum class InferenceBackend { kCompiled };

/// Flattens `forest` with `scaler` baked in — the same model as
/// CompiledForest(forest, scaler).
std::shared_ptr<const CompiledForest> compile(const RandomForest& forest,
                                              RowScaler scaler,
                                              InferenceBackend backend);

}  // namespace esl::ml

#include "ml/compiled_forest.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "ml/artifact.hpp"

namespace esl::ml {

namespace {

/// Rows advanced together through one tree: enough independent node
/// chains in flight to hide load latency, few enough that a block's
/// node indices stay in registers/L1.
constexpr std::size_t k_block = 16;

}  // namespace

CompiledForest::CompiledForest(const RandomForest& forest, RowScaler scaler)
    : scaler_(std::move(scaler)) {
  expects(forest.is_fitted(), "CompiledForest: forest not fitted");

  std::size_t total_nodes = 0;
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    total_nodes += forest.tree(t).node_count();
  }
  expects(total_nodes <= std::numeric_limits<std::uint32_t>::max(),
          "CompiledForest: forest exceeds 32-bit node addressing");

  feature_.reserve(total_nodes);
  threshold_.reserve(total_nodes);
  children_.reserve(2 * total_nodes);
  leaf_value_.reserve(total_nodes);
  tree_root_.reserve(forest.tree_count());
  tree_depth_.reserve(forest.tree_count());

  std::uint32_t max_feature = 0;
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    const DecisionTree& tree = forest.tree(t);
    const auto base = static_cast<std::uint32_t>(feature_.size());
    tree_root_.push_back(base);
    tree_depth_.push_back(static_cast<std::uint32_t>(tree.depth()));
    max_depth_ = std::max(max_depth_, tree.depth());
    for (std::size_t n = 0; n < tree.node_count(); ++n) {
      const DecisionTree::NodeView node = tree.node(n);
      const auto self = base + static_cast<std::uint32_t>(n);
      if (node.is_leaf) {
        // Self-loop: `value <= +inf` stays here via left, NaN (compares
        // false against everything) stays here via right.
        feature_.push_back(0);
        threshold_.push_back(std::numeric_limits<Real>::infinity());
        children_.push_back(self);
        children_.push_back(self);
      } else {
        feature_.push_back(static_cast<std::uint32_t>(node.feature));
        max_feature =
            std::max(max_feature, static_cast<std::uint32_t>(node.feature));
        threshold_.push_back(node.threshold);
        children_.push_back(base + static_cast<std::uint32_t>(node.left));
        children_.push_back(base + static_cast<std::uint32_t>(node.right));
      }
      leaf_value_.push_back(node.positive_fraction);
    }
  }

  flat_.feature = feature_;
  flat_.threshold = threshold_;
  flat_.children = children_;
  flat_.leaf_value = leaf_value_;
  flat_.tree_root = tree_root_;
  flat_.tree_depth = tree_depth_;
  flat_.decision_threshold = forest.config().threshold;
  flat_.max_feature = max_feature;
  mean_ = scaler_.mean;
  stddev_ = scaler_.stddev;
}

CompiledForest::CompiledForest(platform::MappedFile file)
    : file_(std::move(file)) {
  // The one parsing seam shared with the fuzz harness: header
  // validation, span binding and the structural payload pass (an mmap
  // base is page-aligned, so the alignment precondition always holds).
  const ArtifactView view = bind_artifact(file_.bytes());
  flat_ = view.forest;
  mean_ = view.scaler_mean;
  stddev_ = view.scaler_stddev;
  max_depth_ = static_cast<std::size_t>(view.header.max_depth);
}

void CompiledForest::predict_into(Matrix& raw_rows, RealVector& proba,
                                  std::vector<int>& labels) const {
  scale_rows(mean_, stddev_, raw_rows);
  predict_flat(flat_, raw_rows, proba, labels);
}

void predict_flat(const FlatForest& forest, const Matrix& rows_in,
                  RealVector& proba, std::vector<int>& labels) {
  const std::size_t rows = rows_in.rows();
  expects(rows == 0 || forest.max_feature < rows_in.cols(),
          "predict_flat: rows too narrow");
  proba.assign(rows, 0.0);
  labels.resize(rows);
  if (rows == 0) {
    return;
  }

  const Real* data = rows_in.data().data();
  const std::size_t stride = rows_in.cols();
  const std::uint32_t* feature = forest.feature.data();
  const Real* threshold = forest.threshold.data();
  const std::uint32_t* children = forest.children.data();
  const Real* leaf_value = forest.leaf_value.data();

  std::uint32_t node[k_block];
  for (std::size_t r0 = 0; r0 < rows; r0 += k_block) {
    const std::size_t block = std::min(k_block, rows - r0);
    const Real* block_rows = data + r0 * stride;
    for (std::size_t t = 0; t < forest.tree_count(); ++t) {
      const std::uint32_t root = forest.tree_root[t];
      const std::uint32_t depth = forest.tree_depth[t];
      for (std::size_t i = 0; i < block; ++i) {
        node[i] = root;
      }
      for (std::uint32_t level = 0; level < depth; ++level) {
        for (std::size_t i = 0; i < block; ++i) {
          // The pair index is computed in size_t: 2 * node + 1 overflows
          // uint32 once a forest passes 2^31 nodes. Rows parked on a leaf
          // self-loop, so the level loop never needs an exit test.
          const std::uint32_t cur = node[i];
          const std::size_t go_right =
              !(block_rows[i * stride + feature[cur]] <= threshold[cur]);
          node[i] = children[2 * std::size_t{cur} + go_right];
        }
      }
      for (std::size_t i = 0; i < block; ++i) {
        proba[r0 + i] += leaf_value[node[i]];
      }
    }
  }

  // Per row the trees accumulated in ensemble order; divide once, exactly
  // like RandomForest::predict_all_into, so labels stay bit-identical.
  const auto tree_count_real = static_cast<Real>(forest.tree_count());
  for (std::size_t r = 0; r < rows; ++r) {
    proba[r] /= tree_count_real;
    labels[r] = proba[r] >= forest.decision_threshold ? 1 : 0;
  }
}

std::shared_ptr<const CompiledForest> compile(const RandomForest& forest,
                                              RowScaler scaler,
                                              InferenceBackend /*backend*/) {
  return std::make_shared<const CompiledForest>(forest, std::move(scaler));
}

}  // namespace esl::ml

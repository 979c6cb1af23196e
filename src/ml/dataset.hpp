// Labeled dataset container and class balancing for the
// supervised real-time detector experiments (§VI-B).
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace esl::ml {

/// Binary classification dataset; labels are 0 (non-seizure) / 1 (seizure).
struct Dataset {
  Matrix x;
  std::vector<int> y;

  std::size_t size() const { return y.size(); }
  std::size_t feature_count() const { return x.cols(); }

  /// Appends one labeled row.
  void push_back(std::span<const Real> row, int label);

  /// Appends a whole dataset (same width).
  void append(const Dataset& other);

  /// Number of rows with label 1.
  std::size_t positives() const;

  /// Validates invariants (row count == label count, labels in {0,1}).
  void check() const;
};

/// Balances classes by randomly subsampling the majority class to the
/// minority count ("the training set is balanced", §VI-B).
Dataset balance_classes(const Dataset& data, Rng& rng);

}  // namespace esl::ml

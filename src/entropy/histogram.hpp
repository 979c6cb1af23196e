// Uniform-bin histogram and probability-mass estimation for the
// distribution-based entropies (Shannon / Rényi / Tsallis).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace esl::entropy {

/// Value range covered by a histogram.
struct HistogramRange {
  Real low = 0.0;
  Real high = 0.0;
};

/// Shared binning core: counts `values` into `counts` (assigned to `bins`
/// zeros, capacity retained) over equal-width bins spanning
/// [min(values), max(values)]; a constant signal collapses into bin 0.
/// Returns the covered range. Both the Histogram class and the
/// scratch-taking entropy functions delegate here, so the binning
/// convention cannot drift between them.
HistogramRange histogram_counts_into(std::span<const Real> values,
                                     std::size_t bins,
                                     std::vector<std::size_t>& counts);

/// Histogram over [min(values), max(values)] with `bins` equal-width bins.
/// A constant signal collapses into one occupied bin.
class Histogram {
 public:
  Histogram(std::span<const Real> values, std::size_t bins);

  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  const std::vector<std::size_t>& counts() const { return counts_; }

  /// Probability mass per bin (counts / total).
  RealVector probabilities() const;

  Real bin_low() const { return low_; }
  Real bin_high() const { return high_; }

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  Real low_ = 0.0;
  Real high_ = 0.0;
};

}  // namespace esl::entropy

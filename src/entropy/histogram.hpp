// Uniform-bin histogram counting for the signal Rényi entropy.
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

/// Binning core of renyi_of_signal: counts `values` into `counts` (assigned to `bins`
/// zeros, capacity retained) over equal-width bins spanning
/// [min(values), max(values)]; a constant signal collapses into bin 0.
/// Returns the covered range.
HistogramRange histogram_counts_into(std::span<const Real> values,
                                     std::size_t bins,
                                     std::vector<std::size_t>& counts);

}  // namespace esl::entropy

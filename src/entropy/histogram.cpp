#include "entropy/histogram.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esl::entropy {

HistogramRange histogram_counts_into(std::span<const Real> values,
                                     std::size_t bins,
                                     std::vector<std::size_t>& counts) {
  expects(bins >= 1, "histogram_counts_into: need at least one bin");
  expects(!values.empty(), "histogram_counts_into: empty input");
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  const Real low = *lo_it;
  const Real high = *hi_it;
  counts.assign(bins, 0);
  if (low == high) {
    counts[0] = values.size();
    return {low, high};
  }
  const Real width = (high - low) / static_cast<Real>(bins);
  for (const Real v : values) {
    auto bin = static_cast<std::size_t>((v - low) / width);
    bin = std::min(bin, bins - 1);  // max value lands in the last bin
    ++counts[bin];
  }
  return {low, high};
}

}  // namespace esl::entropy

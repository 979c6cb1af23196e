#include "entropy/permutation_entropy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace esl::entropy {

namespace {

std::size_t factorial(std::size_t n) {
  std::size_t f = 1;
  for (std::size_t i = 2; i <= n; ++i) {
    f *= i;
  }
  return f;
}

}  // namespace

std::size_t ordinal_pattern_index(std::span<const Real> window) {
  const std::size_t n = window.size();
  expects(n >= 1 && n <= k_max_permutation_order,
          "ordinal_pattern_index: order out of range");
  // Ranks: position of each element in the sorted order, ties resolved by
  // temporal index. rank[i] = #{j : x[j] < x[i] or (x[j] == x[i] and j < i)}.
  std::array<std::size_t, k_max_permutation_order> rank{};
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (window[j] < window[i] || (window[j] == window[i] && j < i)) {
        ++r;
      }
    }
    rank[i] = r;
  }
  // Lehmer code of the rank permutation.
  std::size_t index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t smaller_after = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rank[j] < rank[i]) {
        ++smaller_after;
      }
    }
    index = index * (n - i) + smaller_after;
  }
  return index;
}

Real permutation_entropy(std::span<const Real> signal, std::size_t order,
                         std::size_t delay,
                         std::vector<std::size_t>& count_scratch) {
  expects(order >= 2 && order <= k_max_permutation_order,
          "permutation_entropy: order must lie in [2, 10]");
  expects(delay >= 1, "permutation_entropy: delay must be >= 1");
  const std::size_t span_length = (order - 1) * delay + 1;
  if (signal.size() < span_length) {
    return 0.0;  // documented degenerate-input convention
  }
  const std::size_t windows = signal.size() - span_length + 1;
  const std::size_t patterns = factorial(order);
  std::array<Real, k_max_permutation_order> embedding{};
  const std::span<const Real> pattern(embedding.data(), order);

  if (windows * 8 < patterns) {
    // Sparse path: for high orders on short signals (e.g. n = 7 on an
    // 8-coefficient DWT level) almost every one of the order! bins is
    // empty; counting sorted pattern indices avoids allocating and
    // scanning the full histogram. Exactly equivalent to the dense path.
    std::vector<std::size_t>& indices = count_scratch;
    indices.clear();
    indices.reserve(windows);
    for (std::size_t t = 0; t < windows; ++t) {
      for (std::size_t k = 0; k < order; ++k) {
        embedding[k] = signal[t + k * delay];
      }
      indices.push_back(ordinal_pattern_index(pattern));
    }
    std::sort(indices.begin(), indices.end());
    Real h = 0.0;
    std::size_t run_start = 0;
    for (std::size_t i = 1; i <= indices.size(); ++i) {
      if (i == indices.size() || indices[i] != indices[run_start]) {
        const Real v = static_cast<Real>(i - run_start) /
                       static_cast<Real>(windows);
        h -= v * std::log(v);
        run_start = i;
      }
    }
    return h;
  }

  // Dense path: histogram over all order! bins in the count scratch.
  std::vector<std::size_t>& counts = count_scratch;
  counts.assign(patterns, 0);
  for (std::size_t t = 0; t < windows; ++t) {
    for (std::size_t k = 0; k < order; ++k) {
      embedding[k] = signal[t + k * delay];
    }
    ++counts[ordinal_pattern_index(pattern)];
  }
  Real h = 0.0;
  for (const std::size_t count : counts) {
    const Real v = static_cast<Real>(count) / static_cast<Real>(windows);
    if (v > 0.0) {
      h -= v * std::log(v);
    }
  }
  return h;
}

}  // namespace esl::entropy

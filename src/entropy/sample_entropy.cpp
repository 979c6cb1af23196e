#include "entropy/sample_entropy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"

namespace esl::entropy {

namespace {

/// Chebyshev distance between templates x[i..i+m) and x[j..j+m).
bool templates_match(std::span<const Real> x, std::size_t i, std::size_t j,
                     std::size_t m, Real r) {
  for (std::size_t k = 0; k < m; ++k) {
    if (std::abs(x[i + k] - x[j + k]) > r) {
      return false;
    }
  }
  return true;
}

}  // namespace

Real sample_entropy(std::span<const Real> signal, std::size_t m, Real r) {
  expects(m >= 1, "sample_entropy: m must be >= 1");
  expects(r >= 0.0, "sample_entropy: tolerance must be non-negative");
  const std::size_t n = signal.size();
  if (n < m + 2) {
    return 0.0;
  }
  // Templates of length m+1: indices 0 .. n-m-1 (count n-m).
  // Both A and B are restricted to that common index range, per the
  // original definition.
  const std::size_t count = n - m;
  std::size_t matches_m = 0;    // B: matches of length m
  std::size_t matches_m1 = 0;   // A: matches of length m+1
  for (std::size_t i = 0; i + 1 < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j) {
      if (templates_match(signal, i, j, m, r)) {
        ++matches_m;
        if (std::abs(signal[i + m] - signal[j + m]) <= r) {
          ++matches_m1;
        }
      }
    }
  }
  if (matches_m == 0) {
    return 0.0;
  }
  if (matches_m1 == 0) {
    // Richman-Moorman convention: the largest value that could have been
    // resolved with this record length.
    const Real nm = static_cast<Real>(n - m);
    return std::log(nm * (nm - 1.0)) - std::log(2.0);
  }
  return -std::log(static_cast<Real>(matches_m1) /
                   static_cast<Real>(matches_m));
}

Real sample_entropy_relative(std::span<const Real> signal, std::size_t m,
                             Real k) {
  expects(k > 0.0, "sample_entropy_relative: k must be positive");
  if (signal.size() < m + 2) {
    return 0.0;
  }
  const Real sigma = stats::stddev(signal);
  if (sigma <= 0.0) {
    return 0.0;  // constant signal: perfectly regular
  }
  return sample_entropy(signal, m, k * sigma);
}

}  // namespace esl::entropy

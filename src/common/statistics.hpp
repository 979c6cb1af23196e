// Descriptive statistics used throughout feature extraction and the
// evaluation harness (per-seizure means, per-patient medians, geometric
// means of normalized metrics — see paper §VI-A).
#pragma once

#include <span>

#include "common/types.hpp"

namespace esl::stats {

/// Arithmetic mean. Requires a non-empty range.
Real mean(std::span<const Real> values);

/// Population variance (divide by n). Requires a non-empty range.
Real variance(std::span<const Real> values);

/// Population standard deviation.
Real stddev(std::span<const Real> values);

/// Median (average of the two central order statistics for even n).
Real median(std::span<const Real> values);

/// Linear-interpolated quantile, q in [0, 1], of values already sorted
/// ascending: interpolates between ranks floor(q(n-1)) and the next one.
/// The caller sorts (into reused scratch, once for several quantiles).
Real quantile_from_sorted(std::span<const Real> sorted_values, Real q);

/// Geometric mean; all values must be positive. This is the only correct
/// average of normalized (ratio) metrics, per Fleming & Wallace [31].
Real geometric_mean(std::span<const Real> values);

/// Fisher skewness (population). Zero-variance input yields 0.
Real skewness(std::span<const Real> values);

/// Excess kurtosis (population, normal -> 0). Zero-variance input yields 0.
Real kurtosis_excess(std::span<const Real> values);

/// Root mean square.
Real rms(std::span<const Real> values);

/// Minimum value. Requires a non-empty range.
Real min(std::span<const Real> values);

/// Maximum value. Requires a non-empty range.
Real max(std::span<const Real> values);

/// Sum of |x[i+1] - x[i]| ("line length"), a classic EEG feature.
Real line_length(std::span<const Real> values);

/// Number of sign changes of the mean-removed signal.
std::size_t zero_crossings(std::span<const Real> values);

/// Streaming mean/variance accumulator (Welford). Numerically stable for
/// long records; used by the feature normalizer.
class RunningStats {
 public:
  void add(Real value);

  /// Number of samples added so far.
  std::size_t count() const { return count_; }
  /// Mean of the values added; requires count() > 0.
  Real mean() const;
  /// Population variance; requires count() > 0.
  Real variance() const;
  /// Population standard deviation; requires count() > 0.
  Real stddev() const;

 private:
  std::size_t count_ = 0;
  Real mean_ = 0.0;
  Real m2_ = 0.0;
};

/// Hjorth parameters (activity, mobility, complexity) of a signal.
struct Hjorth {
  Real activity = 0.0;
  Real mobility = 0.0;
  Real complexity = 0.0;
};

/// All three Hjorth parameters of a signal of at least three samples.
/// The first/second discrete-derivative series go to caller-owned
/// scratch (resized, capacity retained), so fixed-length windows cause
/// no steady-state allocation.
Hjorth hjorth_parameters(std::span<const Real> values,
                         RealVector& derivative_scratch,
                         RealVector& second_derivative_scratch);

}  // namespace esl::stats

#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace esl::stats {

Real mean(std::span<const Real> values) {
  expects(!values.empty(), "stats::mean: empty input");
  Real sum = 0.0;
  for (const Real v : values) {
    sum += v;
  }
  return sum / static_cast<Real>(values.size());
}

Real variance(std::span<const Real> values) {
  expects(!values.empty(), "stats::variance: empty input");
  const Real mu = mean(values);
  Real sum = 0.0;
  for (const Real v : values) {
    const Real d = v - mu;
    sum += d * d;
  }
  return sum / static_cast<Real>(values.size());
}

Real stddev(std::span<const Real> values) {
  return std::sqrt(variance(values));
}

Real median(std::span<const Real> values) {
  expects(!values.empty(), "stats::median: empty input");
  std::vector<Real> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n % 2 == 1) {
    return sorted[n / 2];
  }
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

Real quantile_from_sorted(std::span<const Real> sorted_values, Real q) {
  expects(!sorted_values.empty(), "stats::quantile_from_sorted: empty input");
  expects(q >= 0.0 && q <= 1.0,
          "stats::quantile_from_sorted: q must lie in [0, 1]");
  if (sorted_values.size() == 1) {
    return sorted_values.front();
  }
  const Real position = q * static_cast<Real>(sorted_values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const auto upper = std::min(lower + 1, sorted_values.size() - 1);
  const Real weight = position - static_cast<Real>(lower);
  return (1.0 - weight) * sorted_values[lower] + weight * sorted_values[upper];
}

Real geometric_mean(std::span<const Real> values) {
  expects(!values.empty(), "stats::geometric_mean: empty input");
  Real log_sum = 0.0;
  for (const Real v : values) {
    expects(v > 0.0, "stats::geometric_mean: all values must be positive");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<Real>(values.size()));
}

Real skewness(std::span<const Real> values) {
  expects(!values.empty(), "stats::skewness: empty input");
  const Real mu = mean(values);
  Real m2 = 0.0;
  Real m3 = 0.0;
  for (const Real v : values) {
    const Real d = v - mu;
    m2 += d * d;
    m3 += d * d * d;
  }
  const Real n = static_cast<Real>(values.size());
  m2 /= n;
  m3 /= n;
  if (m2 <= 0.0) {
    return 0.0;
  }
  return m3 / std::pow(m2, 1.5);
}

Real kurtosis_excess(std::span<const Real> values) {
  expects(!values.empty(), "stats::kurtosis_excess: empty input");
  const Real mu = mean(values);
  Real m2 = 0.0;
  Real m4 = 0.0;
  for (const Real v : values) {
    const Real d = v - mu;
    const Real d2 = d * d;
    m2 += d2;
    m4 += d2 * d2;
  }
  const Real n = static_cast<Real>(values.size());
  m2 /= n;
  m4 /= n;
  if (m2 <= 0.0) {
    return 0.0;
  }
  return m4 / (m2 * m2) - 3.0;
}

Real rms(std::span<const Real> values) {
  expects(!values.empty(), "stats::rms: empty input");
  Real sum = 0.0;
  for (const Real v : values) {
    sum += v * v;
  }
  return std::sqrt(sum / static_cast<Real>(values.size()));
}

Real min(std::span<const Real> values) {
  expects(!values.empty(), "stats::min: empty input");
  return *std::min_element(values.begin(), values.end());
}

Real max(std::span<const Real> values) {
  expects(!values.empty(), "stats::max: empty input");
  return *std::max_element(values.begin(), values.end());
}

Real line_length(std::span<const Real> values) {
  expects(!values.empty(), "stats::line_length: empty input");
  Real sum = 0.0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    sum += std::abs(values[i] - values[i - 1]);
  }
  return sum;
}

std::size_t zero_crossings(std::span<const Real> values) {
  expects(!values.empty(), "stats::zero_crossings: empty input");
  const Real mu = mean(values);
  std::size_t crossings = 0;
  bool have_previous = false;
  bool previous_positive = false;
  for (const Real v : values) {
    const Real centered = v - mu;
    if (centered == 0.0) {
      continue;  // exactly-on-mean samples do not define a sign
    }
    const bool positive = centered > 0.0;
    if (have_previous && positive != previous_positive) {
      ++crossings;
    }
    previous_positive = positive;
    have_previous = true;
  }
  return crossings;
}

void RunningStats::add(Real value) {
  ++count_;
  const Real delta = value - mean_;
  mean_ += delta / static_cast<Real>(count_);
  m2_ += delta * (value - mean_);
}

Real RunningStats::mean() const {
  expects(count_ > 0, "RunningStats::mean: no samples");
  return mean_;
}

Real RunningStats::variance() const {
  expects(count_ > 0, "RunningStats::variance: no samples");
  return m2_ / static_cast<Real>(count_);
}

Real RunningStats::stddev() const {
  return std::sqrt(variance());
}

Hjorth hjorth_parameters(std::span<const Real> values,
                         RealVector& derivative_scratch,
                         RealVector& second_derivative_scratch) {
  expects(values.size() >= 3, "stats::hjorth_parameters: need at least 3 samples");
  // First and second discrete derivatives.
  RealVector& d1 = derivative_scratch;
  d1.resize(values.size() - 1);
  for (std::size_t i = 0; i + 1 < values.size(); ++i) {
    d1[i] = values[i + 1] - values[i];
  }
  RealVector& d2 = second_derivative_scratch;
  d2.resize(d1.size() - 1);
  for (std::size_t i = 0; i + 1 < d1.size(); ++i) {
    d2[i] = d1[i + 1] - d1[i];
  }
  Hjorth h;
  h.activity = variance(values);
  const Real var_d1 = variance(d1);
  const Real var_d2 = variance(d2);
  h.mobility = h.activity > 0.0 ? std::sqrt(var_d1 / h.activity) : 0.0;
  const Real mobility_d1 = var_d1 > 0.0 ? std::sqrt(var_d2 / var_d1) : 0.0;
  h.complexity = h.mobility > 0.0 ? mobility_d1 / h.mobility : 0.0;
  return h;
}

}  // namespace esl::stats

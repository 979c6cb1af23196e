#include "entropy/entropy.hpp"

#include <cmath>

#include "common/error.hpp"
#include "entropy/histogram.hpp"

namespace esl::entropy {

namespace {

void check_probabilities(std::span<const Real> probabilities,
                         const char* where) {
  // Failure messages are concatenated only in the throwing branch so the
  // passing path stays allocation-free (renyi runs per streamed window).
  if (probabilities.empty()) {
    throw InvalidArgument(std::string(where) + ": empty distribution");
  }
  Real sum = 0.0;
  for (const Real p : probabilities) {
    if (p < 0.0) {
      throw InvalidArgument(std::string(where) + ": negative probability");
    }
    sum += p;
  }
  if (!(std::abs(sum - 1.0) < 1e-6)) {
    throw InvalidArgument(std::string(where) + ": probabilities must sum to 1");
  }
}

}  // namespace

Real shannon(std::span<const Real> probabilities) {
  check_probabilities(probabilities, "entropy::shannon");
  Real h = 0.0;
  for (const Real p : probabilities) {
    if (p > 0.0) {
      h -= p * std::log(p);
    }
  }
  return h;
}

Real renyi(std::span<const Real> probabilities, Real alpha) {
  check_probabilities(probabilities, "entropy::renyi");
  expects(alpha > 0.0, "entropy::renyi: alpha must be positive");
  expects(alpha != 1.0, "entropy::renyi: alpha = 1 is Shannon entropy");
  Real sum = 0.0;
  for (const Real p : probabilities) {
    if (p > 0.0) {
      sum += std::pow(p, alpha);
    }
  }
  return std::log(sum) / (1.0 - alpha);
}

Real renyi_of_signal(std::span<const Real> signal, Real alpha,
                     std::size_t bins,
                     std::vector<std::size_t>& count_scratch,
                     RealVector& probability_scratch) {
  histogram_counts_into(signal, bins, count_scratch);
  const std::size_t total = signal.size();
  RealVector& p = probability_scratch;
  p.resize(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    p[i] = static_cast<Real>(count_scratch[i]) / static_cast<Real>(total);
  }
  return renyi(p, alpha);
}

}  // namespace esl::entropy

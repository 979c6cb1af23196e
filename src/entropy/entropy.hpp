// Distribution entropies: Shannon and Rényi over explicit probability
// vectors, and Rényi directly over signals via histogram binning.
//
// The paper's feature set uses the Rényi entropy of the third DWT detail
// level of electrode F8T4 (§III-A).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace esl::entropy {

/// Shannon entropy (nats) of a probability mass function.
/// Zero entries are skipped; entries must be non-negative.
Real shannon(std::span<const Real> probabilities);

/// Rényi entropy of order `alpha` (alpha > 0, alpha != 1) in nats.
/// alpha -> 1 converges to Shannon entropy.
Real renyi(std::span<const Real> probabilities, Real alpha);

/// Rényi entropy of a signal using a `bins`-bin histogram estimate.
/// This is the "Rényi entropy of level-k DWT coefficients" feature. The
/// histogram scratch (bin counts and probability mass; resized, capacity
/// retained) is caller-owned, so a warm call allocates nothing.
Real renyi_of_signal(std::span<const Real> signal, Real alpha,
                     std::size_t bins,
                     std::vector<std::size_t>& count_scratch,
                     RealVector& probability_scratch);

}  // namespace esl::entropy

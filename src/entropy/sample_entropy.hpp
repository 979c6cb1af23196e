// Sample entropy (Richman & Moorman).
//
// The paper's feature set uses the sample entropy of the sixth DWT detail
// level with tolerance r = k * sigma for k = 0.2 and k = 0.35 (§III-A,
// following Chen et al. [27]).
#pragma once

#include <span>

#include "common/types.hpp"

namespace esl::entropy {

/// Sample entropy with template length `m` and absolute tolerance `r`
/// (Chebyshev distance, self-matches excluded).
///
/// Degenerate cases are made total so feature extraction never throws on
/// short DWT levels:
///  * fewer than m+2 samples               -> 0
///  * no template matches at length m (B=0) -> 0 (no structure measurable)
///  * no matches at length m+1 (A=0)        -> the Richman-Moorman upper
///    bound log((N-m-1)(N-m)) - log(2).
Real sample_entropy(std::span<const Real> signal, std::size_t m, Real r);

/// Sample entropy with relative tolerance r = k * stddev(signal).
Real sample_entropy_relative(std::span<const Real> signal, std::size_t m,
                             Real k);

}  // namespace esl::entropy

// Permutation entropy (Bandt & Pompe, 2002).
//
// The paper extracts PE of DWT detail levels 6 and 7 with orders n = 5 and
// n = 7 (§III-A). Ordinal patterns are encoded with the Lehmer code; ties
// are broken by temporal index (the standard convention).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace esl::entropy {

/// Maximum supported embedding order (7! = 5040 patterns).
inline constexpr std::size_t k_max_permutation_order = 10;

/// Lehmer-code index of the ordinal pattern of `window` (length n <= 10).
/// Ranks compare values, with earlier indices winning ties.
std::size_t ordinal_pattern_index(std::span<const Real> window);

/// Permutation entropy in nats, at most log(order!). If the signal is
/// shorter than one embedding vector the entropy is defined as 0 (no
/// information), which keeps the feature extractor total on very short
/// DWT levels. `count_scratch` is caller-owned (pattern indices on the
/// sparse path, histogram bins on the dense path; resized, capacity
/// retained), so a warm call allocates nothing.
Real permutation_entropy(std::span<const Real> signal, std::size_t order,
                         std::size_t delay,
                         std::vector<std::size_t>& count_scratch);

}  // namespace esl::entropy

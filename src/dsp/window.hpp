// The periodogram's taper: the periodic (DFT-even) Hann window.
#pragma once

#include <span>

#include "common/types.hpp"

namespace esl::dsp {

/// The n periodic Hann coefficients 0.5 - 0.5 cos(2 pi i / n); a single
/// sample is 1.
RealVector hann_window(std::size_t n);

/// Sum of squared window coefficients; PSD normalization term.
Real window_power(std::span<const Real> window);

}  // namespace esl::dsp

#include "dsp/window.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace esl::dsp {

RealVector hann_window(std::size_t n) {
  expects(n >= 1, "hann_window: n must be >= 1");
  RealVector w(n, 1.0);
  if (n == 1) {
    return w;
  }
  const Real denom = static_cast<Real>(n);
  constexpr Real two_pi = 2.0 * std::numbers::pi_v<Real>;
  for (std::size_t i = 0; i < n; ++i) {
    const Real phase = two_pi * static_cast<Real>(i) / denom;
    w[i] = 0.5 - 0.5 * std::cos(phase);
  }
  return w;
}

Real window_power(std::span<const Real> window) {
  Real sum = 0.0;
  for (const Real v : window) {
    sum += v * v;
  }
  return sum;
}

}  // namespace esl::dsp

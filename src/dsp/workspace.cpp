#include "dsp/workspace.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace esl::dsp {

const RealVector& Workspace::window_cache(std::size_t n) {
  if (window_coeffs.size() != n) {
    window_coeffs = hann_window(n);
    window_power_sum = window_power(window_coeffs);
  }
  return window_coeffs;
}

const RealVector& Workspace::frequency_grid_cache(std::size_t n,
                                                   Real sample_rate_hz) {
  if (frequency_grid_length != n || frequency_grid_rate != sample_rate_hz) {
    frequency_grid.resize(n / 2 + 1);
    for (std::size_t k = 0; k < frequency_grid.size(); ++k) {
      frequency_grid[k] =
          static_cast<Real>(k) * sample_rate_hz / static_cast<Real>(n);
    }
    frequency_grid_length = n;
    frequency_grid_rate = sample_rate_hz;
  }
  return frequency_grid;
}

const ComplexVector& Workspace::twiddle_cache(std::size_t n, bool inverse) {
  expects(is_power_of_two(n), "Workspace::twiddle_cache: n must be 2^k");
  ComplexVector& table = inverse ? twiddle_inverse : twiddle_forward;
  std::size_t& cached_length =
      inverse ? twiddle_inverse_length : twiddle_forward_length;
  if (cached_length != n || table.size() != n - 1) {
    constexpr Real k_two_pi = 2.0 * std::numbers::pi_v<Real>;
    const Real direction = inverse ? k_two_pi : -k_two_pi;
    table.resize(n - 1);
    // Per stage of span len, entries [len/2 - 1, len - 1) hold wlen^j by
    // the same w *= wlen recurrence the scalar butterfly loop ran.
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const Real angle = direction / static_cast<Real>(len);
      const Complex wlen(std::cos(angle), std::sin(angle));
      Complex w(1.0, 0.0);
      const std::size_t offset = len / 2 - 1;
      for (std::size_t j = 0; j < len / 2; ++j) {
        table[offset + j] = w;
        w *= wlen;
      }
    }
    cached_length = n;
  }
  return table;
}

const ComplexVector& Workspace::rfft_twiddle_cache(std::size_t n) {
  expects(n >= 2 && n % 2 == 0, "Workspace::rfft_twiddle_cache: n must be even");
  if (rfft_twiddle_length != n || rfft_twiddle.size() != n / 2 + 1) {
    constexpr Real k_two_pi = 2.0 * std::numbers::pi_v<Real>;
    rfft_twiddle.resize(n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
      const Real angle =
          -k_two_pi * static_cast<Real>(k) / static_cast<Real>(n);
      rfft_twiddle[k] = Complex(std::cos(angle), std::sin(angle));
    }
    rfft_twiddle_length = n;
  }
  return rfft_twiddle;
}

}  // namespace esl::dsp

#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {

namespace {

constexpr Real k_two_pi = 2.0 * std::numbers::pi_v<Real>;

void bit_reverse_permute(std::span<Complex> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    while (j & bit) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
}

/// Radix-2 FFT over workspace-cached per-stage twiddle tables, each
/// stage dispatched through the vectorized kernels:: seam. Twiddles come
/// from the same w *= wlen recurrence fft_radix2_inplace runs, so results
/// are bit-identical to it at every SIMD level.
void radix2_with_workspace(std::span<Complex> data, bool inverse,
                           Workspace& ws) {
  const std::size_t n = data.size();
  expects(is_power_of_two(n), "fft_radix2_inplace: size must be a power of two");
  if (n == 1) {
    return;
  }
  bit_reverse_permute(data);
  const ComplexVector& twiddles = ws.twiddle_cache(n, inverse);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    // The stage of span len owns twiddle entries [len/2 - 1, len - 1).
    kernels::fft_stage(data.data(), n, len, twiddles.data() + len / 2 - 1);
  }
  if (inverse) {
    for (auto& v : data) {
      v /= static_cast<Real>(n);
    }
  }
}

/// Bluestein chirp-z transform: expresses an arbitrary-size DFT as a
/// convolution, evaluated with a power-of-two FFT. All temporaries live
/// in the workspace; the chirp is cached by (n, direction) since it is a
/// pure function of both.
void bluestein_into(std::span<const Complex> input, bool inverse,
                    Workspace& ws, ComplexVector& out) {
  const std::size_t n = input.size();
  const std::size_t m = next_power_of_two(2 * n + 1);
  const Real sign = inverse ? 1.0 : -1.0;

  // Chirp w[k] = exp(sign * i * pi * k^2 / n).
  if (ws.chirp_length != n || ws.chirp_inverse != inverse ||
      ws.chirp.size() != n) {
    ws.chirp.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      // k^2 mod 2n keeps the argument small and the chirp exactly periodic.
      const std::size_t k2 = (k * k) % (2 * n);
      const Real angle = sign * std::numbers::pi_v<Real> *
                         static_cast<Real>(k2) / static_cast<Real>(n);
      ws.chirp[k] = Complex(std::cos(angle), std::sin(angle));
    }
    ws.chirp_length = n;
    ws.chirp_inverse = inverse;
  }
  const ComplexVector& chirp = ws.chirp;

  ComplexVector& a = ws.conv_a;
  ComplexVector& b = ws.conv_b;
  a.assign(m, Complex(0.0, 0.0));
  b.assign(m, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    a[k] = input[k] * chirp[k];
    b[k] = std::conj(chirp[k]);
  }
  for (std::size_t k = 1; k < n; ++k) {
    b[m - k] = std::conj(chirp[k]);
  }

  radix2_with_workspace(a, false, ws);
  radix2_with_workspace(b, false, ws);
  for (std::size_t k = 0; k < m; ++k) {
    a[k] *= b[k];
  }
  radix2_with_workspace(a, true, ws);

  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = a[k] * chirp[k];
  }
  if (inverse) {
    for (auto& v : out) {
      v /= static_cast<Real>(n);
    }
  }
}

/// Even-length real FFT via one half-length complex FFT: z[m] =
/// x[2m] + i*x[2m+1] is transformed (radix-2 when n/2 is a power of two,
/// Bluestein otherwise) and the n/2 + 1 non-redundant bins are recovered
/// by the vectorized unpack kernel — the classic split that stops a real
/// window from paying for the redundant conjugate half.
void rfft_even_into(std::span<const Real> input, Workspace& ws,
                    ComplexVector& out) {
  const std::size_t n = input.size();
  const std::size_t half = n / 2;
  ComplexVector& staged = ws.time_scratch;
  staged.resize(half);
  for (std::size_t m = 0; m < half; ++m) {
    staged[m] = Complex(input[2 * m], input[2 * m + 1]);
  }
  const Complex* half_spectrum = nullptr;
  if (is_power_of_two(half)) {
    radix2_with_workspace(staged, false, ws);
    half_spectrum = staged.data();
  } else {
    bluestein_into(staged, false, ws, ws.half_spectrum);
    half_spectrum = ws.half_spectrum.data();
  }
  const ComplexVector& twiddles = ws.rfft_twiddle_cache(n);
  out.resize(half + 1);
  kernels::rfft_unpack(half_spectrum, half, twiddles.data(), out.data());
}

}  // namespace

bool is_power_of_two(std::size_t n) {
  return n >= 1 && (n & (n - 1)) == 0;
}

std::size_t next_power_of_two(std::size_t n) {
  expects(n >= 1, "next_power_of_two: n must be >= 1");
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

void fft_radix2_inplace(std::span<Complex> data, bool inverse) {
  // Test reference: twiddles come from the in-register w *= wlen
  // recurrence. fft_into/ifft_into cache the same values as per-stage
  // tables and run the vectorized kernels, and reproduce this loop bit
  // for bit (WorkspaceParity/SimdParity suites).
  const std::size_t n = data.size();
  expects(is_power_of_two(n), "fft_radix2_inplace: size must be a power of two");
  if (n == 1) {
    return;
  }
  bit_reverse_permute(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Real angle = (inverse ? k_two_pi : -k_two_pi) / static_cast<Real>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = data[i + j];
        const Complex v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& v : data) {
      v /= static_cast<Real>(n);
    }
  }
}

void fft_into(std::span<const Complex> input, Workspace& workspace,
              ComplexVector& out) {
  expects(!input.empty(), "fft_into: empty input");
  if (is_power_of_two(input.size())) {
    out.assign(input.begin(), input.end());
    radix2_with_workspace(out, false, workspace);
    return;
  }
  bluestein_into(input, false, workspace, out);
}

void ifft_into(std::span<const Complex> input, Workspace& workspace,
               ComplexVector& out) {
  expects(!input.empty(), "ifft_into: empty input");
  if (is_power_of_two(input.size())) {
    out.assign(input.begin(), input.end());
    radix2_with_workspace(out, true, workspace);
    return;
  }
  bluestein_into(input, true, workspace, out);
}

void rfft_into(std::span<const Real> input, Workspace& workspace,
               ComplexVector& out) {
  expects(!input.empty(), "rfft_into: empty input");
  const std::size_t n = input.size();
  if (n % 2 == 0) {
    rfft_even_into(input, workspace, out);
    return;
  }
  // Odd length: full complex transform, truncated to the n/2 + 1
  // non-redundant bins.
  ComplexVector& staged = workspace.time_scratch;
  staged.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    staged[i] = Complex(input[i], 0.0);
  }
  if (is_power_of_two(n)) {  // n == 1: size-one transform is the identity
    out.assign(staged.begin(), staged.end());
    radix2_with_workspace(out, false, workspace);
  } else {
    bluestein_into(staged, false, workspace, out);
  }
  out.resize(n / 2 + 1);
}

ComplexVector dft_reference(std::span<const Complex> input) {
  const std::size_t n = input.size();
  ComplexVector out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const Real angle = -k_two_pi * static_cast<Real>(k * t) / static_cast<Real>(n);
      out[k] += input[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

}  // namespace esl::dsp

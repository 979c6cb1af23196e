// Fast Fourier Transform.
//
// Radix-2 iterative Cooley-Tukey for power-of-two sizes plus a Bluestein
// (chirp-z) fallback for arbitrary sizes, so the spectral estimators can
// work on any window length. All transforms are unscaled forward
// (X[k] = sum x[n] e^{-2pi i kn/N}) with the inverse applying the 1/N factor.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace esl::dsp {

class Workspace;

using Complex = std::complex<Real>;
using ComplexVector = std::vector<Complex>;

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n >= 1).
std::size_t next_power_of_two(std::size_t n);

/// In-place radix-2 FFT over the in-register w *= wlen twiddle
/// recurrence. Requires power-of-two size. Not on any serving path: it is
/// the scalar reference the test suites hold fft_into/ifft_into to, bit
/// for bit, at every SIMD level. `inverse` selects the conjugate
/// transform and applies the 1/N scale.
void fft_radix2_inplace(std::span<Complex> data, bool inverse);

/// Naive O(n^2) DFT; a test oracle for every transform below.
ComplexVector dft_reference(std::span<const Complex> input);

// Transforms. All temporaries (cached twiddle tables, Bluestein
// chirp/convolution buffers, real-to-complex staging) come from
// `workspace` and `out` is caller-owned, so a warm call performs no heap
// allocation. `out` may be workspace.spectrum; it must not alias `input`
// or workspace scratch. See dsp/workspace.hpp.

/// Forward FFT of arbitrary size (radix-2 when possible, Bluestein
/// otherwise).
void fft_into(std::span<const Complex> input, Workspace& workspace,
              ComplexVector& out);

/// Inverse FFT of arbitrary size; applies the 1/N normalization.
void ifft_into(std::span<const Complex> input, Workspace& workspace,
               ComplexVector& out);

/// Forward FFT of a real signal; writes the n/2+1 non-redundant bins.
/// Even lengths use the half-complex specialization: one n/2-point
/// complex FFT of z[m] = x[2m] + i*x[2m+1] plus a Hermitian unpack, so a
/// real window never pays for the redundant conjugate half.
void rfft_into(std::span<const Real> input, Workspace& workspace,
               ComplexVector& out);

}  // namespace esl::dsp

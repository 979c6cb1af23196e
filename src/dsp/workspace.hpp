// Reusable DSP scratch arena for the allocation-free streaming hot path.
//
// Every DSP transform (fft.hpp, spectrum.hpp, wavelet.hpp) is a
// `*_into(..., Workspace&)` function that draws its temporaries from a
// Workspace instead of the heap, and it is the transform's only spelling
// (tools/lint_invariants.py rejects a `name(` beside a `name_into(`).
// Buffers grow on first use and are retained, so a workspace that has
// seen one window of a given geometry (length, wavelet levels)
// performs zero heap allocations for every following window of the same
// geometry. Warm equals cold: a call on a long-lived workspace, whatever
// geometries it saw before, returns the same bits as the same call on a
// fresh one — the caches are pure functions of their keys. The
// WorkspaceParity suites assert that element by element, and hold the
// power-of-two FFT to the scalar fft_radix2_inplace reference.
//
// Ownership rules (see README "Serving at scale"):
//  * one Workspace per stream: every engine::PatientSession owns one, so
//    shard workers never share one;
//  * a Workspace is NOT thread-safe — never call workspace functions on
//    the same instance from two threads concurrently;
//  * result slots (psd, decomposition, energy, spectrum) stay valid until
//    the next workspace call that writes the same slot — copy them out
//    if you need two results of the same kind alive at once;
//  * scratch members may alias nothing passed into a workspace function
//    except the documented result slots.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/window.hpp"

namespace esl::dsp {

class Workspace {
 public:
  Workspace() = default;

  // Workspaces are per-stream scratch; copying one would duplicate warm
  // buffers for no benefit and invites accidental sharing, so only moves
  // are allowed (vector-of-sessions storage still works).
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  // ------------------------------------------------------------- results
  // Standard result slots the feature layer reads after a workspace call.
  // Each is also accepted as the explicit `out` argument of the matching
  // `*_into` function (out may be a result slot, never internal scratch).

  /// rfft_into/fft_into/ifft_into write here; periodogram_into clobbers it.
  ComplexVector spectrum;
  /// periodogram_into result storage.
  Psd psd;
  /// wavedec_into result storage (per-level detail buffers reused).
  WaveletDecomposition decomposition;
  /// wavelet_energy_distribution_into result storage.
  RealVector energy;

  // ----------------------------------------------- feature-layer scratch
  // General-purpose buffers for scratch-aware overloads outside dsp::
  // (order statistics, stats::hjorth_parameters derivative series,
  // entropy histogram/ordinal-pattern counting). Contents are
  // unspecified between calls.

  /// Order-statistics scratch: the e-Glass IQR copies the window here
  /// and selects its quartiles in place with branch-free partitions (a
  /// caller of stats::quantile_from_sorted may sort into it).
  RealVector sorted;
  /// First/second discrete-derivative series for
  /// stats::hjorth_parameters. The e-Glass extractor takes Hjorth from
  /// its fused passes and does not use them.
  RealVector derivative_a;
  RealVector derivative_b;
  /// Histogram / ordinal-pattern count scratch (entropy overloads).
  std::vector<std::size_t> counts;
  /// Histogram probability-mass scratch (entropy overloads).
  RealVector probabilities;

  // -------------------------------------------------- dsp-layer internals
  // Scratch owned by the dsp `*_into` implementations. Treat as opaque:
  // contents and sizes are unspecified between calls.

  /// Real-to-complex staging buffer for rfft_into.
  ComplexVector time_scratch;
  /// Half-length spectrum staging for the even-length rfft split (the
  /// Bluestein half path cannot transform time_scratch in place).
  ComplexVector half_spectrum;
  /// Radix-2 per-stage twiddle tables, cached per direction by
  /// transform length: the stage of span `len` owns entries
  /// [len/2 - 1, len - 1). Directions cache independently so a
  /// forward-only caller never builds the inverse table, while
  /// Bluestein (which mixes both at one size) still fills each exactly
  /// once. Values come from the exact w *= wlen recurrence
  /// fft_radix2_inplace runs, so the cached tables are bit-identical to
  /// its running twiddle.
  ComplexVector twiddle_forward;
  ComplexVector twiddle_inverse;
  std::size_t twiddle_forward_length = 0;
  std::size_t twiddle_inverse_length = 0;
  /// Even-length rfft unpack twiddles exp(-2*pi*i*k/n), k = 0..n/2,
  /// cached by n.
  ComplexVector rfft_twiddle;
  std::size_t rfft_twiddle_length = 0;
  /// Bluestein chirp, cached by (length, direction) — the chirp for a
  /// given size is deterministic, so reuse is bit-identical.
  ComplexVector chirp;
  std::size_t chirp_length = 0;
  bool chirp_inverse = false;
  /// Bluestein convolution operands (padded to the fft size m).
  ComplexVector conv_a;
  ComplexVector conv_b;
  /// Hann taper coefficients (keyed by their length) plus their power
  /// sum.
  RealVector window_coeffs;
  Real window_power_sum = 0.0;
  /// Periodogram bin frequencies k * fs / n, k = 0..n/2, keyed by
  /// (n, fs).
  RealVector frequency_grid;
  std::size_t frequency_grid_length = 0;
  Real frequency_grid_rate = 0.0;
  /// Tapered copy of the periodogram input.
  RealVector tapered;
  /// Odd-length periodization pad for the periodic DWT.
  RealVector padded;
  /// wavedec approximation ping-pong buffers.
  RealVector approx_ping;
  RealVector approx_pong;

  /// Returns the cached Hann taper for length n, rebuilding it (and the
  /// cached power sum) only when n changes. Values match hann_window()
  /// exactly.
  const RealVector& window_cache(std::size_t n);

  /// Returns the cached periodogram frequency grid for length n at
  /// `sample_rate_hz` (n/2 + 1 bins, k * fs / n evaluated as written),
  /// rebuilding it only when either changes.
  const RealVector& frequency_grid_cache(std::size_t n, Real sample_rate_hz);

  /// Returns the cached per-stage radix-2 twiddle table for length-n
  /// transforms in the requested direction, rebuilding both directions
  /// only when n changes (n must be a power of two).
  const ComplexVector& twiddle_cache(std::size_t n, bool inverse);

  /// Returns the cached rfft unpack twiddles for even length n
  /// (n/2 + 1 entries), rebuilding only when n changes.
  const ComplexVector& rfft_twiddle_cache(std::size_t n);
};

}  // namespace esl::dsp

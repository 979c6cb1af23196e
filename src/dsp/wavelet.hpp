// Discrete wavelet transform (DWT).
//
// The paper decomposes each 4-second EEG window to level 7 with the
// Daubechies-4 (db4) basis and computes entropies of selected detail
// levels (§III-A). We provide orthogonal Daubechies banks db1..db4 and the
// multi-level analysis with periodic boundaries (pywt 'per': circular
// wrap, odd lengths padded by repeating the last sample, so each level
// has ceil(n/2) coefficients). The inverse is the perfect-reconstruction
// oracle the analysis tests compare against.
//
// Conventions (verified by the perfect-reconstruction tests):
//  * h = scaling (lowpass) coefficients in natural order, sum(h) = sqrt(2);
//  * analysis uses correlation with h / g where g[k] = (-1)^k h[N-1-k];
//  * synthesis scatters with the same h / g (orthogonal bank).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace esl::dsp {

class Workspace;

/// Orthogonal wavelet filter bank.
class Wavelet {
 public:
  /// Daubechies wavelet with the given number of vanishing moments (1-4).
  /// db1 is the Haar wavelet; the paper uses db4 (8 taps).
  static Wavelet daubechies(int vanishing_moments);

  /// Convenience alias for daubechies(1).
  static Wavelet haar() { return daubechies(1); }

  const std::string& name() const { return name_; }
  /// Scaling (lowpass) coefficients, natural order.
  const RealVector& lowpass() const { return lowpass_; }
  /// Wavelet (highpass) coefficients: g[k] = (-1)^k h[N-1-k].
  const RealVector& highpass() const { return highpass_; }
  /// Filter length N.
  std::size_t length() const { return lowpass_.size(); }

 private:
  Wavelet(std::string name, RealVector lowpass);

  std::string name_;
  RealVector lowpass_;
  RealVector highpass_;
};

/// Single-level synthesis; `output_length` is the original signal length
/// (needed because both n and n+1 map to the same coefficient lengths).
RealVector idwt_single(std::span<const Real> approx,
                       std::span<const Real> detail, const Wavelet& wavelet,
                       std::size_t output_length);

/// Multi-level decomposition result.
///
/// details[0] is level 1 (finest scale, highest frequencies);
/// details[levels-1] is the coarsest detail; approx is the final
/// approximation. signal_lengths[l] records the input length at level l+1
/// so the inverse can truncate correctly.
struct WaveletDecomposition {
  std::vector<RealVector> details;
  RealVector approx;
  std::vector<std::size_t> signal_lengths;

  std::size_t levels() const { return details.size(); }

  /// Detail coefficients of the given 1-based level (paper notation:
  /// "seventh level" = detail_at_level(7)).
  const RealVector& detail_at_level(std::size_t level) const;
};

/// Shortest signal wavedec_into can decompose to `levels` (>= 1), for
/// any wavelet: each level halves its input (rounding up) and the deepest
/// still needs 2 samples, so 2^(levels-1) + 1 — 65 for the paper's 7
/// levels.
std::size_t min_periodic_wavedec_length(std::size_t levels);

/// Multi-level synthesis (waverec); returns a signal of the original length.
RealVector waverec(const WaveletDecomposition& decomposition,
                   const Wavelet& wavelet);

// Analysis. The periodization pad and approximation ping-pong buffers
// come from `workspace` and the coefficients land in the caller-owned
// `out` (which may be workspace.decomposition), whose per-level buffers
// are reused, so a warm call performs no heap allocation. See
// dsp/workspace.hpp.

/// Multi-level analysis (wavedec). `levels` >= 1, and every level's input
/// needs at least 2 samples (see min_periodic_wavedec_length).
void wavedec_into(std::span<const Real> signal, const Wavelet& wavelet,
                  std::size_t levels, Workspace& workspace,
                  WaveletDecomposition& out);

/// Fraction of total coefficient energy in each detail level plus the final
/// approximation (levels()+1 entries summing to 1 for non-zero signals),
/// written into a caller-owned vector (cleared, capacity retained); used
/// by the e-Glass-style feature set.
void wavelet_energy_distribution_into(const WaveletDecomposition& d,
                                      RealVector& out);

}  // namespace esl::dsp

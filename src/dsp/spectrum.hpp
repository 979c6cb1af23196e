// Power spectral density estimation and EEG band-power features.
//
// The paper's 10-feature set (§III-A) uses total and relative power in the
// clinical delta [0.5, 4] Hz and theta [4, 8] Hz bands; the e-Glass-style
// 54-feature set additionally uses alpha/beta/gamma powers and spectral
// shape descriptors.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace esl::dsp {

class Workspace;

/// One-sided PSD estimate: frequencies in Hz and density in unit^2/Hz.
struct Psd {
  RealVector frequency;
  RealVector density;

  /// Frequency resolution (bin width) in Hz.
  Real bin_width() const {
    return frequency.size() >= 2 ? frequency[1] - frequency[0] : 0.0;
  }
};

// Estimator. The taper, tapered copy and FFT temporaries come from
// `workspace` and the PSD is written into the caller-owned `out` (which
// may be workspace.psd), so a warm call performs no heap allocation. The
// band-power readers below (band_power, total_power, ...) are
// allocation-free over any caller-owned Psd. See dsp/workspace.hpp.

/// Hann-windowed periodogram of the whole segment (one-sided, density
/// scaling).
void periodogram_into(std::span<const Real> signal, Real sample_rate_hz,
                      Workspace& workspace, Psd& out);

/// Frequency band in Hz, [low, high).
struct Band {
  Real low_hz = 0.0;
  Real high_hz = 0.0;
};

/// Clinical EEG bands used throughout the paper.
namespace bands {
inline constexpr Band kDelta{0.5, 4.0};
inline constexpr Band kTheta{4.0, 8.0};
inline constexpr Band kAlpha{8.0, 13.0};
inline constexpr Band kBeta{13.0, 30.0};
inline constexpr Band kGamma{30.0, 100.0};
}  // namespace bands

/// Integral of the PSD over the band (rectangle rule over the bins whose
/// center frequency falls in [low, high)).
Real band_power(const Psd& psd, Band band);

/// Total power over [0.5 Hz, Nyquist); the conventional EEG reference for
/// relative band power (excludes the DC/drift region).
Real total_power(const Psd& psd);

/// band_power / total_power; returns 0 when total power vanishes.
Real relative_band_power(const Psd& psd, Band band);

/// Frequency below which `fraction` of the total (one-sided) power lies.
Real spectral_edge_frequency(const Psd& psd, Real fraction);

/// Frequency of the largest PSD bin above 0.5 Hz.
Real peak_frequency(const Psd& psd);

/// Shannon entropy of the normalized PSD (in nats); a flatness measure.
Real spectral_entropy(const Psd& psd);

}  // namespace esl::dsp

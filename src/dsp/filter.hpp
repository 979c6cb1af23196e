// Digital filtering: biquad sections and Butterworth IIR design
// (bilinear transform).
//
// The EEG simulator (sim/eeg_synth, sim/artifact_model) band-limits its
// synthetic background and artifacts with butterworth_bandpass. The
// detector itself filters nothing: the e-Glass row reads the raw window.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace esl::dsp {

/// Second-order IIR section, direct form II transposed.
/// y[n] = (b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]) / a0.
struct Biquad {
  Real b0 = 1.0, b1 = 0.0, b2 = 0.0;
  Real a0 = 1.0, a1 = 0.0, a2 = 0.0;

  /// Magnitude response at the given frequency.
  Real magnitude_at(Real frequency_hz, Real sample_rate_hz) const;
};

/// Stateful cascade of biquad sections.
class BiquadCascade {
 public:
  explicit BiquadCascade(std::vector<Biquad> sections);

  /// Processes one sample through every section.
  Real process(Real input);

  /// Filters a whole signal (stateful; call reset() between signals).
  RealVector filter(std::span<const Real> signal);

  /// Clears the delay lines.
  void reset();

  const std::vector<Biquad>& sections() const { return sections_; }

  /// Cascade magnitude response at the given frequency.
  Real magnitude_at(Real frequency_hz, Real sample_rate_hz) const;

 private:
  std::vector<Biquad> sections_;
  std::vector<std::array<Real, 2>> state_;
};

/// Butterworth low-pass of even or odd order via bilinear transform.
BiquadCascade butterworth_lowpass(std::size_t order, Real cutoff_hz,
                                  Real sample_rate_hz);

/// Butterworth high-pass of even or odd order via bilinear transform.
BiquadCascade butterworth_highpass(std::size_t order, Real cutoff_hz,
                                   Real sample_rate_hz);

/// Band-pass as a high-pass/low-pass cascade (order each).
BiquadCascade butterworth_bandpass(std::size_t order, Real low_hz, Real high_hz,
                                   Real sample_rate_hz);

}  // namespace esl::dsp

#include "dsp/filter.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "common/error.hpp"

namespace esl::dsp {

namespace {

constexpr Real k_pi = std::numbers::pi_v<Real>;

void check_frequency(Real frequency_hz, Real sample_rate_hz) {
  // Literal messages (const char* expects overload): the check also
  // guards per-record pipeline setup, and a std::string build here
  // allocates even on the passing path.
  expects(sample_rate_hz > 0.0,
          "filter design: sample rate must be positive");
  expects(frequency_hz > 0.0 && frequency_hz < sample_rate_hz / 2.0,
          "filter design: frequency must lie in (0, Nyquist)");
}

/// RBJ cookbook low-pass biquad at f0 with quality Q.
Biquad rbj_lowpass(Real f0, Real q, Real fs) {
  const Real w0 = 2.0 * k_pi * f0 / fs;
  const Real alpha = std::sin(w0) / (2.0 * q);
  const Real c = std::cos(w0);
  Biquad s;
  s.b0 = (1.0 - c) / 2.0;
  s.b1 = 1.0 - c;
  s.b2 = (1.0 - c) / 2.0;
  s.a0 = 1.0 + alpha;
  s.a1 = -2.0 * c;
  s.a2 = 1.0 - alpha;
  return s;
}

/// RBJ cookbook high-pass biquad at f0 with quality Q.
Biquad rbj_highpass(Real f0, Real q, Real fs) {
  const Real w0 = 2.0 * k_pi * f0 / fs;
  const Real alpha = std::sin(w0) / (2.0 * q);
  const Real c = std::cos(w0);
  Biquad s;
  s.b0 = (1.0 + c) / 2.0;
  s.b1 = -(1.0 + c);
  s.b2 = (1.0 + c) / 2.0;
  s.a0 = 1.0 + alpha;
  s.a1 = -2.0 * c;
  s.a2 = 1.0 - alpha;
  return s;
}

/// First-order bilinear-transform section (lowpass or highpass).
Biquad first_order(Real f0, Real fs, bool highpass) {
  const Real k = std::tan(k_pi * f0 / fs);
  Biquad s;
  s.a0 = 1.0;
  s.a1 = (k - 1.0) / (k + 1.0);
  s.a2 = 0.0;
  if (highpass) {
    s.b0 = 1.0 / (k + 1.0);
    s.b1 = -1.0 / (k + 1.0);
  } else {
    s.b0 = k / (k + 1.0);
    s.b1 = k / (k + 1.0);
  }
  s.b2 = 0.0;
  return s;
}

/// Butterworth section quality factors: Q_k = 1 / (2 sin((2k+1) pi / (2N))),
/// from the pole-pair angles of the analog prototype (e.g. N=3 -> Q = 1,
/// N=5 -> Q = {1.618, 0.618}).
std::vector<Real> butterworth_q(std::size_t order) {
  std::vector<Real> qs;
  for (std::size_t k = 0; k < order / 2; ++k) {
    const Real angle =
        k_pi * (2.0 * static_cast<Real>(k) + 1.0) / (2.0 * static_cast<Real>(order));
    qs.push_back(1.0 / (2.0 * std::sin(angle)));
  }
  return qs;
}

BiquadCascade butterworth(std::size_t order, Real cutoff_hz,
                          Real sample_rate_hz, bool highpass) {
  expects(order >= 1, "butterworth: order must be >= 1");
  check_frequency(cutoff_hz, sample_rate_hz);
  std::vector<Biquad> sections;
  for (const Real q : butterworth_q(order)) {
    sections.push_back(highpass ? rbj_highpass(cutoff_hz, q, sample_rate_hz)
                                : rbj_lowpass(cutoff_hz, q, sample_rate_hz));
  }
  if (order % 2 == 1) {
    sections.push_back(first_order(cutoff_hz, sample_rate_hz, highpass));
  }
  return BiquadCascade(std::move(sections));
}

}  // namespace

Real Biquad::magnitude_at(Real frequency_hz, Real sample_rate_hz) const {
  const Real w = 2.0 * k_pi * frequency_hz / sample_rate_hz;
  const std::complex<Real> z1 = std::polar<Real>(1.0, -w);
  const std::complex<Real> z2 = z1 * z1;
  const std::complex<Real> num = b0 + b1 * z1 + b2 * z2;
  const std::complex<Real> den = a0 + a1 * z1 + a2 * z2;
  return std::abs(num / den);
}

BiquadCascade::BiquadCascade(std::vector<Biquad> sections)
    : sections_(std::move(sections)), state_(sections_.size(), {0.0, 0.0}) {
  expects(!sections_.empty(), "BiquadCascade: need at least one section");
  for (const auto& s : sections_) {
    expects(s.a0 != 0.0, "BiquadCascade: a0 must be non-zero");
  }
}

Real BiquadCascade::process(Real input) {
  Real x = input;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Biquad& s = sections_[i];
    auto& [z1, z2] = state_[i];
    // Direct form II transposed with a0 normalization.
    const Real y = (s.b0 * x + z1) / s.a0;
    z1 = s.b1 * x - s.a1 * y + z2;
    z2 = s.b2 * x - s.a2 * y;
    x = y;
  }
  return x;
}

RealVector BiquadCascade::filter(std::span<const Real> signal) {
  RealVector out(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    out[i] = process(signal[i]);
  }
  return out;
}

void BiquadCascade::reset() {
  for (auto& s : state_) {
    s = {0.0, 0.0};
  }
}

Real BiquadCascade::magnitude_at(Real frequency_hz, Real sample_rate_hz) const {
  Real magnitude = 1.0;
  for (const auto& s : sections_) {
    magnitude *= s.magnitude_at(frequency_hz, sample_rate_hz);
  }
  return magnitude;
}

BiquadCascade butterworth_lowpass(std::size_t order, Real cutoff_hz,
                                  Real sample_rate_hz) {
  return butterworth(order, cutoff_hz, sample_rate_hz, /*highpass=*/false);
}

BiquadCascade butterworth_highpass(std::size_t order, Real cutoff_hz,
                                   Real sample_rate_hz) {
  return butterworth(order, cutoff_hz, sample_rate_hz, /*highpass=*/true);
}

BiquadCascade butterworth_bandpass(std::size_t order, Real low_hz, Real high_hz,
                                   Real sample_rate_hz) {
  expects(low_hz < high_hz, "butterworth_bandpass: low_hz must be < high_hz");
  BiquadCascade hp = butterworth_highpass(order, low_hz, sample_rate_hz);
  BiquadCascade lp = butterworth_lowpass(order, high_hz, sample_rate_hz);
  std::vector<Biquad> sections = hp.sections();
  sections.insert(sections.end(), lp.sections().begin(), lp.sections().end());
  return BiquadCascade(std::move(sections));
}

}  // namespace esl::dsp

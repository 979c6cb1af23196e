#include "dsp/wavelet.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {

namespace {

// Daubechies scaling coefficients (natural order, sum = sqrt(2)).
// db1/db2 are exact closed forms; db3/db4 are the standard published
// values. Orthonormality (sum h[k] h[k+2m] = delta_m) is asserted in tests.
RealVector daubechies_lowpass(int vanishing_moments) {
  const Real s2 = std::sqrt(2.0);
  const Real s3 = std::sqrt(3.0);
  switch (vanishing_moments) {
    case 1:
      return {1.0 / s2, 1.0 / s2};
    case 2:
      return {(1.0 + s3) / (4.0 * s2), (3.0 + s3) / (4.0 * s2),
              (3.0 - s3) / (4.0 * s2), (1.0 - s3) / (4.0 * s2)};
    case 3: {
      // Closed form: with a = sqrt(10), b = sqrt(5 + 2 sqrt(10)),
      // h = {1+a+b, 5+a+3b, 10-2a+2b, 10-2a-2b, 5+a-3b, 1+a-b} / (16 sqrt(2)).
      const Real a = std::sqrt(10.0);
      const Real b = std::sqrt(5.0 + 2.0 * a);
      const Real denom = 16.0 * s2;
      return {(1.0 + a + b) / denom,        (5.0 + a + 3.0 * b) / denom,
              (10.0 - 2.0 * a + 2.0 * b) / denom,
              (10.0 - 2.0 * a - 2.0 * b) / denom,
              (5.0 + a - 3.0 * b) / denom,  (1.0 + a - b) / denom};
    }
    case 4:
      return {0.23037781330885523, 0.71484657055254153, 0.63088076792959036,
              -0.02798376941698385, -0.18703481171888114, 0.03084138183598697,
              0.03288301166698295, -0.01059740178499728};
    default:
      throw InvalidArgument(
          "Wavelet::daubechies: supported vanishing moments are 1..4, got " +
          std::to_string(vanishing_moments));
  }
}

/// Single-level periodic analysis, the step wavedec_into repeats per
/// level: writes the coefficient pair into `approx`/`detail` (resized,
/// capacity retained) with `padded_scratch` holding the odd-length
/// periodization copy when needed.
void dwt_single_buffers(std::span<const Real> signal, const Wavelet& wavelet,
                        RealVector& padded_scratch, RealVector& approx,
                        RealVector& detail) {
  // Odd lengths are periodized by repeating the last sample (pywt 'per').
  std::span<const Real> x = signal;
  if (signal.size() % 2 != 0) {
    padded_scratch.assign(signal.begin(), signal.end());
    padded_scratch.push_back(signal.back());
    x = padded_scratch;
  }
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  approx.resize(half);
  detail.resize(half);
  // Filter correlation through the vectorized kernel seam: wrap-free
  // interior outputs advance in packs, the wrap tail stays scalar, and
  // both accumulate taps in the same order as the historical loop.
  kernels::dwt_periodic_analysis(x.data(), n, wavelet.lowpass().data(),
                                 wavelet.highpass().data(), wavelet.length(),
                                 approx.data(), detail.data());
}

}  // namespace

Wavelet::Wavelet(std::string name, RealVector lowpass)
    : name_(std::move(name)), lowpass_(std::move(lowpass)) {
  const std::size_t n = lowpass_.size();
  highpass_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Real sign = (k % 2 == 0) ? 1.0 : -1.0;
    highpass_[k] = sign * lowpass_[n - 1 - k];
  }
}

Wavelet Wavelet::daubechies(int vanishing_moments) {
  return Wavelet("db" + std::to_string(vanishing_moments),
                 daubechies_lowpass(vanishing_moments));
}

RealVector idwt_single(std::span<const Real> approx,
                       std::span<const Real> detail, const Wavelet& wavelet,
                       std::size_t output_length) {
  expects(approx.size() == detail.size(),
          "idwt_single: approx/detail length mismatch");
  expects(!approx.empty(), "idwt_single: empty coefficients");
  const std::size_t filter_length = wavelet.length();
  const RealVector& h = wavelet.lowpass();
  const RealVector& g = wavelet.highpass();
  const std::size_t count = approx.size();
  const std::size_t n = 2 * count;
  expects(output_length == n || output_length + 1 == n,
          "idwt_single: output_length incompatible with coefficient count");
  RealVector full(n, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t k = 0; k < filter_length; ++k) {
      full[(2 * i + k) % n] += approx[i] * h[k] + detail[i] * g[k];
    }
  }
  full.resize(output_length);
  return full;
}

const RealVector& WaveletDecomposition::detail_at_level(
    std::size_t level) const {
  expects(level >= 1 && level <= details.size(),
          "WaveletDecomposition::detail_at_level: level out of range");
  return details[level - 1];
}

std::size_t min_periodic_wavedec_length(std::size_t levels) {
  expects(levels >= 1 && levels < 64,
          "min_periodic_wavedec_length: levels must lie in [1, 63]");
  return (std::size_t{1} << (levels - 1)) + 1;
}

void wavedec_into(std::span<const Real> signal, const Wavelet& wavelet,
                  std::size_t levels, Workspace& workspace,
                  WaveletDecomposition& out) {
  expects(levels >= 1, "wavedec: levels must be >= 1");
  expects(signal.size() >= 2, "wavedec: need at least 2 samples");

  out.details.resize(levels);
  out.signal_lengths.clear();
  // Cascade through the ping-pong approximation buffers; details land
  // directly in the decomposition's reused per-level storage.
  RealVector* current = &workspace.approx_ping;
  RealVector* next = &workspace.approx_pong;
  current->assign(signal.begin(), signal.end());
  for (std::size_t level = 0; level < levels; ++level) {
    expects(current->size() >= 2,
            "wavedec: signal too short for requested level count");
    out.signal_lengths.push_back(current->size());
    dwt_single_buffers(*current, wavelet, workspace.padded, *next,
                       out.details[level]);
    std::swap(current, next);
  }
  out.approx.assign(current->begin(), current->end());
}

RealVector waverec(const WaveletDecomposition& decomposition,
                   const Wavelet& wavelet) {
  expects(decomposition.levels() >= 1, "waverec: empty decomposition");
  expects(decomposition.signal_lengths.size() == decomposition.levels(),
          "waverec: corrupt decomposition metadata");
  RealVector current = decomposition.approx;
  for (std::size_t level = decomposition.levels(); level-- > 0;) {
    current = idwt_single(current, decomposition.details[level], wavelet,
                          decomposition.signal_lengths[level]);
  }
  return current;
}

void wavelet_energy_distribution_into(const WaveletDecomposition& d,
                                      RealVector& out) {
  RealVector& energies = out;
  energies.clear();
  energies.reserve(d.levels() + 1);
  Real total = 0.0;
  for (const auto& detail : d.details) {
    Real e = 0.0;
    for (const Real v : detail) {
      e += v * v;
    }
    energies.push_back(e);
    total += e;
  }
  Real approx_energy = 0.0;
  for (const Real v : d.approx) {
    approx_energy += v * v;
  }
  energies.push_back(approx_energy);
  total += approx_energy;
  if (total > 0.0) {
    for (auto& e : energies) {
      e /= total;
    }
  }
}

}  // namespace esl::dsp

#include "dsp/spectrum.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "dsp/fft.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {

void periodogram_into(std::span<const Real> signal, Real sample_rate_hz,
                      Workspace& workspace, Psd& out) {
  expects(signal.size() >= 2, "periodogram: need at least 2 samples");
  expects(sample_rate_hz > 0.0, "periodogram: sample rate must be positive");

  const std::size_t n = signal.size();
  const RealVector& w = workspace.window_cache(n);
  RealVector& tapered = workspace.tapered;
  tapered.resize(n);
  kernels::taper_multiply(signal.data(), w.data(), tapered.data(), n);

  rfft_into(tapered, workspace, workspace.spectrum);
  const ComplexVector& spectrum = workspace.spectrum;
  const Real scale = 1.0 / (sample_rate_hz * workspace.window_power_sum);

  // rfft_into writes n/2 + 1 bins, the length of the cached grid.
  const RealVector& grid = workspace.frequency_grid_cache(n, sample_rate_hz);
  out.frequency.assign(grid.begin(), grid.end());
  out.density.resize(spectrum.size());
  // |X|^2 * scale with one-sided doubling (all bins except DC and, for
  // even n, Nyquist) — the vectorized kernel keeps the scalar op order.
  kernels::power_density(spectrum.data(), spectrum.size(), scale, n % 2 == 0,
                         out.density.data());
}

Real band_power(const Psd& psd, Band band) {
  expects(band.low_hz < band.high_hz, "band_power: empty band");
  const Real df = psd.bin_width();
  if (df <= 0.0) {
    return 0.0;
  }
  Real power = 0.0;
  for (std::size_t k = 0; k < psd.frequency.size(); ++k) {
    const Real f = psd.frequency[k];
    if (f >= band.low_hz && f < band.high_hz) {
      power += psd.density[k] * df;
    }
  }
  return power;
}

Real total_power(const Psd& psd) {
  if (psd.frequency.empty()) {
    return 0.0;
  }
  return band_power(psd, Band{0.5, psd.frequency.back() + psd.bin_width()});
}

Real relative_band_power(const Psd& psd, Band band) {
  const Real total = total_power(psd);
  if (total <= 0.0) {
    return 0.0;
  }
  return band_power(psd, band) / total;
}

Real spectral_edge_frequency(const Psd& psd, Real fraction) {
  expects(fraction > 0.0 && fraction <= 1.0,
          "spectral_edge_frequency: fraction must lie in (0, 1]");
  const Real total = total_power(psd);
  if (total <= 0.0) {
    return 0.0;
  }
  const Real df = psd.bin_width();
  Real cumulative = 0.0;
  for (std::size_t k = 0; k < psd.frequency.size(); ++k) {
    if (psd.frequency[k] < 0.5) {
      continue;
    }
    cumulative += psd.density[k] * df;
    if (cumulative >= fraction * total) {
      return psd.frequency[k];
    }
  }
  return psd.frequency.back();
}

Real peak_frequency(const Psd& psd) {
  Real best_f = 0.0;
  Real best_v = -1.0;
  for (std::size_t k = 0; k < psd.frequency.size(); ++k) {
    if (psd.frequency[k] < 0.5) {
      continue;
    }
    if (psd.density[k] > best_v) {
      best_v = psd.density[k];
      best_f = psd.frequency[k];
    }
  }
  return best_f;
}

Real spectral_entropy(const Psd& psd) {
  Real total = 0.0;
  for (const Real v : psd.density) {
    total += v;
  }
  if (total <= 0.0) {
    return 0.0;
  }
  Real entropy = 0.0;
  for (const Real v : psd.density) {
    if (v > 0.0) {
      const Real p = v / total;
      entropy -= p * std::log(p);
    }
  }
  return entropy;
}

}  // namespace esl::dsp

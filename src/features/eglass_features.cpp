#include "features/eglass_features.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"

namespace esl::features {

namespace {

constexpr std::size_t k_dwt_levels = 7;

/// Appends the 12 time-domain statistics of one window.
void append_time_features(std::span<const Real> x, RealVector& out,
                          dsp::Workspace& ws) {
  const Real mu = stats::mean(x);
  out.push_back(mu);
  out.push_back(stats::variance(x));
  out.push_back(stats::skewness(x));
  out.push_back(stats::kurtosis_excess(x));
  out.push_back(stats::rms(x));
  out.push_back(stats::line_length(x));
  out.push_back(static_cast<Real>(stats::zero_crossings(x)));
  const stats::Hjorth hjorth =
      stats::hjorth_parameters(x, ws.derivative_a, ws.derivative_b);
  out.push_back(hjorth.mobility);
  out.push_back(hjorth.complexity);
  out.push_back(stats::max(x) - stats::min(x));  // peak-to-peak
  Real mean_abs = 0.0;
  for (const Real v : x) {
    mean_abs += std::abs(v - mu);
  }
  out.push_back(mean_abs / static_cast<Real>(x.size()));
  // IQR: sort once into the workspace and read both quartiles from it
  // (bit-identical to two independent stats::quantile calls).
  ws.sorted.assign(x.begin(), x.end());
  std::sort(ws.sorted.begin(), ws.sorted.end());
  out.push_back(stats::quantile_from_sorted(ws.sorted, 0.75) -
                stats::quantile_from_sorted(ws.sorted, 0.25));
}

/// Appends the 14 spectral descriptors of one window.
void append_spectral_features(std::span<const Real> x, Real sample_rate_hz,
                              RealVector& out, dsp::Workspace& ws) {
  dsp::periodogram_into(x, sample_rate_hz, ws, ws.psd);
  const dsp::Psd& psd = ws.psd;
  out.push_back(dsp::total_power(psd));
  out.push_back(dsp::band_power(psd, dsp::bands::kDelta));
  out.push_back(dsp::band_power(psd, dsp::bands::kTheta));
  out.push_back(dsp::band_power(psd, dsp::bands::kAlpha));
  out.push_back(dsp::band_power(psd, dsp::bands::kBeta));
  out.push_back(dsp::band_power(psd, dsp::bands::kGamma));
  out.push_back(dsp::relative_band_power(psd, dsp::bands::kDelta));
  out.push_back(dsp::relative_band_power(psd, dsp::bands::kTheta));
  out.push_back(dsp::relative_band_power(psd, dsp::bands::kAlpha));
  out.push_back(dsp::relative_band_power(psd, dsp::bands::kBeta));
  out.push_back(dsp::relative_band_power(psd, dsp::bands::kGamma));
  out.push_back(dsp::spectral_edge_frequency(psd, 0.9));
  out.push_back(dsp::peak_frequency(psd));
  out.push_back(dsp::spectral_entropy(psd));
}

/// Appends 4 statistics for each of the 7 db4 DWT detail levels.
void append_wavelet_features(std::span<const Real> x, const dsp::Wavelet& db4,
                             RealVector& out, dsp::Workspace& ws) {
  dsp::wavedec_into(x, db4, k_dwt_levels, ws, ws.decomposition,
                    dsp::ExtensionMode::kPeriodic);
  const dsp::WaveletDecomposition& dec = ws.decomposition;
  dsp::wavelet_energy_distribution_into(dec, ws.energy);
  const RealVector& energy = ws.energy;
  for (std::size_t level = 1; level <= k_dwt_levels; ++level) {
    const RealVector& d = dec.detail_at_level(level);
    Real mean_abs = 0.0;
    for (const Real v : d) {
      mean_abs += std::abs(v);
    }
    mean_abs /= static_cast<Real>(d.size());
    out.push_back(mean_abs);
    out.push_back(stats::stddev(d));
    out.push_back(energy[level - 1]);
    out.push_back(stats::line_length(d));
  }
}

}  // namespace

EglassFeatureExtractor::EglassFeatureExtractor(std::size_t channels)
    : channels_(channels), db4_(dsp::Wavelet::daubechies(4)) {
  expects(channels >= 1, "EglassFeatureExtractor: need at least one channel");
}

std::vector<std::string> EglassFeatureExtractor::per_channel_names() {
  std::vector<std::string> names = {
      "mean",       "variance",   "skewness",  "kurtosis",   "rms",
      "line_length", "zero_cross", "hjorth_mob", "hjorth_cmp", "peak_to_peak",
      "mean_abs_dev", "iqr",
      "power_total", "power_delta", "power_theta", "power_alpha", "power_beta",
      "power_gamma", "rel_delta",   "rel_theta",   "rel_alpha",   "rel_beta",
      "rel_gamma",   "sef90",       "peak_freq",   "spec_entropy",
  };
  for (std::size_t level = 1; level <= k_dwt_levels; ++level) {
    const std::string p = "dwt_l" + std::to_string(level) + "_";
    names.push_back(p + "mean_abs");
    names.push_back(p + "std");
    names.push_back(p + "energy");
    names.push_back(p + "line_length");
  }
  return names;
}

std::vector<std::string> EglassFeatureExtractor::feature_names() const {
  const std::vector<std::string> base = per_channel_names();
  ensures(base.size() == k_eglass_features_per_channel,
          "EglassFeatureExtractor: per-channel name count drifted");
  std::vector<std::string> names;
  names.reserve(channels_ * base.size());
  for (std::size_t c = 0; c < channels_; ++c) {
    const std::string prefix = "ch" + std::to_string(c) + ".";
    for (const auto& n : base) {
      names.push_back(prefix + n);
    }
  }
  return names;
}

std::size_t EglassFeatureExtractor::min_window_length() const {
  return dsp::min_periodic_wavedec_length(k_dwt_levels);
}

void EglassFeatureExtractor::extract_into(
    const std::vector<std::span<const Real>>& channels, Real sample_rate_hz,
    RealVector& out, dsp::Workspace& workspace) const {
  expects(channels.size() >= channels_,
          "EglassFeatureExtractor: too few channel windows");
  out.clear();
  out.reserve(channels_ * k_eglass_features_per_channel);
  for (std::size_t c = 0; c < channels_; ++c) {
    expects(channels[c].size() >= min_window_length(),
            "EglassFeatureExtractor: window too short");
    append_time_features(channels[c], out, workspace);
    append_spectral_features(channels[c], sample_rate_hz, out, workspace);
    append_wavelet_features(channels[c], db4_, out, workspace);
  }
  ensures(out.size() == channels_ * k_eglass_features_per_channel,
          "EglassFeatureExtractor: feature width drifted");
}

}  // namespace esl::features

#include "features/eglass_features.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/error.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"

namespace esl::features {

namespace {

constexpr std::size_t k_dwt_levels = 7;

// The descriptors below are fused: each family takes the fewest passes
// over its input that still let every accumulator add the same terms in
// the same order as the public per-statistic function it stands for
// (stats::mean, stats::variance, ..., dsp::band_power, ...). The row is
// therefore bit-identical to the one those calls build one at a time;
// features.EglassFeatures.RowMatchesPerStatisticReference holds it to
// that.

/// quantile_from_sorted's linear interpolation at `q` over `n` sorted
/// values: `at_lower` is the order statistic at rank floor(q (n - 1)),
/// `at_upper` the one at the next rank (the same rank at the top).
Real interpolate_quantile(Real q, std::size_t n, Real at_lower, Real at_upper) {
  const Real position = q * static_cast<Real>(n - 1);
  const Real weight = position - std::floor(position);
  return (1.0 - weight) * at_lower + weight * at_upper;
}

std::size_t quantile_rank(Real q, std::size_t n) {
  return static_cast<std::size_t>(std::floor(q * static_cast<Real>(n - 1)));
}

/// Q3 - Q1 of `x` from two selections instead of a sort: nth_element
/// puts the Q3 rank in place with no larger value before it, so the next
/// rank is the smallest value after it; a second nth_element over the
/// part before it does the same for Q1, whose next rank is the smallest
/// value in (Q1 rank, Q3 rank]. The order statistics, and so the IQR,
/// are those a full sort gives.
Real interquartile_range(std::span<const Real> x, RealVector& scratch) {
  const std::size_t n = x.size();
  scratch.assign(x.begin(), x.end());
  const auto first = scratch.begin();
  const std::size_t rank75 = quantile_rank(0.75, n);
  const std::size_t rank25 = quantile_rank(0.25, n);
  std::nth_element(first, first + rank75, scratch.end());
  const Real lower75 = scratch[rank75];
  const Real upper75 = rank75 + 1 < n
                           ? *std::min_element(first + rank75 + 1, scratch.end())
                           : lower75;
  Real lower25 = lower75;
  Real upper25 = upper75;
  if (rank25 < rank75) {
    std::nth_element(first, first + rank25, first + rank75);
    lower25 = scratch[rank25];
    upper25 = *std::min_element(first + rank25 + 1, first + rank75 + 1);
  }
  return interpolate_quantile(0.75, n, lower75, upper75) -
         interpolate_quantile(0.25, n, lower25, upper25);
}

/// Appends the 12 time-domain statistics of one window (at least three
/// samples): two passes and the IQR's two selections.
void append_time_features(std::span<const Real> x, RealVector& out,
                          dsp::Workspace& ws) {
  const std::size_t n = x.size();
  const Real count = static_cast<Real>(n);

  // Pass 1: raw sums, extremes, line length, and the sums of the first
  // and second differences (Hjorth's derivative means).
  Real sum = 0.0;
  Real sum_squares = 0.0;
  Real lowest = x[0];
  Real highest = x[0];
  Real line_length = 0.0;
  Real sum_d1 = 0.0;
  Real sum_d2 = 0.0;
  Real previous_d1 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real v = x[i];
    sum += v;
    sum_squares += v * v;
    lowest = v < lowest ? v : lowest;
    highest = highest < v ? v : highest;
    if (i >= 1) {
      const Real d1 = v - x[i - 1];
      line_length += std::abs(d1);
      sum_d1 += d1;
      if (i >= 2) {
        sum_d2 += d1 - previous_d1;
      }
      previous_d1 = d1;
    }
  }
  const Real mu = sum / count;
  const Real mu_d1 = sum_d1 / static_cast<Real>(n - 1);
  const Real mu_d2 = sum_d2 / static_cast<Real>(n - 2);

  // Pass 2: centred moments, absolute deviation, zero crossings of the
  // mean-removed signal (samples exactly on the mean carry no sign), and
  // the centred sums of squares of both differences.
  Real m2 = 0.0;
  Real m3 = 0.0;
  Real m4 = 0.0;
  Real abs_deviation = 0.0;
  std::size_t crossings = 0;
  bool have_sign = false;
  bool previous_positive = false;
  Real ss_d1 = 0.0;
  Real ss_d2 = 0.0;
  previous_d1 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real c = x[i] - mu;
    const Real c2 = c * c;
    m2 += c2;
    m3 += c2 * c;
    m4 += c2 * c2;
    abs_deviation += std::abs(c);
    const bool signed_sample = c != 0.0;
    const bool positive = c > 0.0;
    crossings += static_cast<std::size_t>(signed_sample && have_sign &&
                                          positive != previous_positive);
    previous_positive = signed_sample ? positive : previous_positive;
    have_sign = have_sign || signed_sample;
    if (i >= 1) {
      const Real d1 = x[i] - x[i - 1];
      const Real e1 = d1 - mu_d1;
      ss_d1 += e1 * e1;
      if (i >= 2) {
        const Real e2 = (d1 - previous_d1) - mu_d2;
        ss_d2 += e2 * e2;
      }
      previous_d1 = d1;
    }
  }
  const Real variance = m2 / count;
  const Real m3_mean = m3 / count;
  const Real m4_mean = m4 / count;

  out.push_back(mu);
  out.push_back(variance);
  out.push_back(variance <= 0.0 ? 0.0 : m3_mean / std::pow(variance, 1.5));
  out.push_back(variance <= 0.0 ? 0.0
                                : m4_mean / (variance * variance) - 3.0);
  out.push_back(std::sqrt(sum_squares / count));  // rms
  out.push_back(line_length);
  out.push_back(static_cast<Real>(crossings));
  // Hjorth mobility and complexity; the activity is the variance.
  const Real var_d1 = ss_d1 / static_cast<Real>(n - 1);
  const Real var_d2 = ss_d2 / static_cast<Real>(n - 2);
  const Real mobility = variance > 0.0 ? std::sqrt(var_d1 / variance) : 0.0;
  const Real mobility_d1 = var_d1 > 0.0 ? std::sqrt(var_d2 / var_d1) : 0.0;
  out.push_back(mobility);
  out.push_back(mobility > 0.0 ? mobility_d1 / mobility : 0.0);
  out.push_back(highest - lowest);  // peak-to-peak
  out.push_back(abs_deviation / count);
  out.push_back(interquartile_range(x, ws.sorted));
}

/// Appends the 14 spectral descriptors of one window. One pass over the
/// PSD gives the total power (bins from 0.5 Hz up), the five band powers
/// and the peak bin; a second scan, which stops at the edge, gives the
/// 90 % spectral edge.
void append_spectral_features(std::span<const Real> x, Real sample_rate_hz,
                              RealVector& out, dsp::Workspace& ws) {
  constexpr dsp::Band k_bands[] = {dsp::bands::kDelta, dsp::bands::kTheta,
                                   dsp::bands::kAlpha, dsp::bands::kBeta,
                                   dsp::bands::kGamma};
  constexpr Real k_low_hz = 0.5;
  constexpr Real k_edge_fraction = 0.9;
  dsp::periodogram_into(x, sample_rate_hz, ws, ws.psd);
  const RealVector& frequency = ws.psd.frequency;
  const RealVector& density = ws.psd.density;
  const Real df = ws.psd.bin_width();
  const Real top_hz = frequency.back() + df;  // total_power's upper edge

  Real total = 0.0;
  Real band[std::size(k_bands)] = {};
  Real peak_hz = 0.0;
  Real peak_density = -1.0;
  for (std::size_t k = 0; k < frequency.size(); ++k) {
    const Real f = frequency[k];
    if (f < k_low_hz) {
      continue;
    }
    const Real power = density[k] * df;
    if (f < top_hz) {
      total += power;
    }
    for (std::size_t b = 0; b < std::size(k_bands); ++b) {
      if (f >= k_bands[b].low_hz && f < k_bands[b].high_hz) {
        band[b] += power;
      }
    }
    if (density[k] > peak_density) {
      peak_density = density[k];
      peak_hz = f;
    }
  }
  Real edge_hz = 0.0;
  if (total > 0.0) {
    edge_hz = frequency.back();
    Real cumulative = 0.0;
    for (std::size_t k = 0; k < frequency.size(); ++k) {
      if (frequency[k] < k_low_hz) {
        continue;
      }
      cumulative += density[k] * df;
      if (cumulative >= k_edge_fraction * total) {
        edge_hz = frequency[k];
        break;
      }
    }
  }

  out.push_back(total);
  for (const Real power : band) {
    out.push_back(power);
  }
  for (const Real power : band) {
    out.push_back(total > 0.0 ? power / total : 0.0);
  }
  out.push_back(edge_hz);
  out.push_back(peak_hz);
  out.push_back(dsp::spectral_entropy(ws.psd));
}

/// Appends 4 statistics for each of the 7 db4 DWT detail levels: the
/// mean absolute value, standard deviation and line length in two passes
/// over the level, and its share of the energy.
void append_wavelet_features(std::span<const Real> x, const dsp::Wavelet& db4,
                             RealVector& out, dsp::Workspace& ws) {
  dsp::wavedec_into(x, db4, k_dwt_levels, ws, ws.decomposition);
  const dsp::WaveletDecomposition& dec = ws.decomposition;
  dsp::wavelet_energy_distribution_into(dec, ws.energy);
  const RealVector& energy = ws.energy;
  for (std::size_t level = 1; level <= k_dwt_levels; ++level) {
    const RealVector& d = dec.detail_at_level(level);
    const Real count = static_cast<Real>(d.size());
    Real sum = 0.0;
    Real abs_sum = 0.0;
    Real line_length = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      sum += d[i];
      abs_sum += std::abs(d[i]);
      if (i >= 1) {
        line_length += std::abs(d[i] - d[i - 1]);
      }
    }
    const Real mu = sum / count;
    Real squares = 0.0;
    for (const Real v : d) {
      const Real c = v - mu;
      squares += c * c;
    }
    out.push_back(abs_sum / count);
    out.push_back(std::sqrt(squares / count));  // stddev
    out.push_back(energy[level - 1]);
    out.push_back(line_length);
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

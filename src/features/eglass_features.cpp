#include "features/eglass_features.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"

namespace esl::features {

namespace {

constexpr std::size_t k_dwt_levels = 7;

constexpr dsp::Band k_bands[] = {dsp::bands::kDelta, dsp::bands::kTheta,
                                 dsp::bands::kAlpha, dsp::bands::kBeta,
                                 dsp::bands::kGamma};
static_assert(
    [] {
      for (std::size_t b = 0; b + 1 < std::size(k_bands); ++b) {
        if (k_bands[b].high_hz != k_bands[b + 1].low_hz) {
          return false;
        }
      }
      return true;
    }(),
    "the band index in append_spectral_features needs contiguous bands");

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

/// Moves the values `front` accepts to the front of [first, last) and
/// returns the end of that group. Branch-free Lomuto: the swap always
/// runs and only the store index depends on the comparison, so the
/// partition never mispredicts on noisy samples.
template <class Front>
Real* partition_front(Real* first, Real* last, Front front) {
  Real* store = first;
  for (Real* read = first; read != last; ++read) {
    const Real v = *read;
    const bool to_front = front(v);
    *read = *store;
    *store = v;
    store += to_front;
  }
  return store;
}

Real median_of_three(Real a, Real b, Real c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/// Puts the value of rank k of [first, last) at first[k], with nothing
/// larger before it and nothing smaller after it (the contract of
/// std::nth_element), and returns it. Each round partitions around a
/// median-of-three pivot; once a round has shown the pivot to be the
/// smallest value left, the next pivot equal to it gathers all its
/// copies at once, so ties and constant windows finish in a few rounds.
/// After 2 log2(n) rounds, or once the range is small, std::nth_element
/// finishes: a crafted window costs O(n log n), never O(n^2).
Real select_rank(Real* first, Real* last, std::size_t k) {
  constexpr std::ptrdiff_t k_small_range = 16;
  Real* const target = first + k;
  Real* lo = first;
  Real* hi = last;
  // Every value in [lo, hi) is >= floor once has_floor is set.
  bool has_floor = false;
  Real floor = 0.0;
  const auto n = static_cast<std::size_t>(last - first);
  for (auto budget = 2 * static_cast<std::size_t>(std::bit_width(n));
       budget > 0 && hi - lo > k_small_range; --budget) {
    const Real pivot = median_of_three(lo[0], lo[(hi - lo) / 2], hi[-1]);
    if (has_floor && !(floor < pivot)) {
      Real* const equal_end =
          partition_front(lo, hi, [pivot](Real v) { return !(pivot < v); });
      if (target < equal_end) {
        return *target;
      }
      lo = equal_end;
      continue;
    }
    Real* const less_end =
        partition_front(lo, hi, [pivot](Real v) { return v < pivot; });
    if (target < less_end) {
      hi = less_end;
    } else {
      lo = less_end;
      floor = pivot;
      has_floor = true;
    }
  }
  std::nth_element(lo, target, hi);
  return *target;
}

/// The smallest value in [first, last), which is not empty. Four
/// interleaved running minima, so the scan is not one long chain of
/// dependent compares; among equal values it may return a different
/// sign of zero than std::min_element would.
Real min_value(const Real* first, const Real* last) {
  Real m[4] = {*first, *first, *first, *first};
  for (; last - first >= 4; first += 4) {
    for (int j = 0; j < 4; ++j) {
      m[j] = first[j] < m[j] ? first[j] : m[j];
    }
  }
  for (; first != last; ++first) {
    m[0] = *first < m[0] ? *first : m[0];
  }
  const Real low = m[1] < m[0] ? m[1] : m[0];
  const Real high = m[3] < m[2] ? m[3] : m[2];
  return high < low ? high : low;
}

/// Q3 - Q1 of `x` from two selections instead of a sort: select_rank
/// puts the Q3 rank in place with no larger value before it, so the next
/// rank is the smallest value after it; a second selection over the
/// part before it does the same for Q1, whose next rank is the smallest
/// value in (Q1 rank, Q3 rank]. The order statistics, and so the IQR,
/// are those a full sort gives. (A quartile interpolated between zeros
/// of mixed sign may carry the other sign of zero than the sort's.)
Real interquartile_range(std::span<const Real> x, RealVector& scratch) {
  const std::size_t n = x.size();
  scratch.assign(x.begin(), x.end());
  Real* const first = scratch.data();
  Real* const last = first + n;
  const std::size_t rank75 = quantile_rank(0.75, n);
  const std::size_t rank25 = quantile_rank(0.25, n);
  const Real lower75 = select_rank(first, last, rank75);
  const Real upper75 =
      rank75 + 1 < n ? min_value(first + rank75 + 1, last) : lower75;
  Real lower25 = lower75;
  Real upper25 = upper75;
  if (rank25 < rank75) {
    lower25 = select_rank(first, first + rank75, rank25);
    upper25 = min_value(first + rank25 + 1, first + rank75 + 1);
  }
  return interpolate_quantile(0.75, n, lower75, upper75) -
         interpolate_quantile(0.25, n, lower25, upper25);
}

/// Number of time-domain statistics time_features writes per channel;
/// the IQR, the 12th, comes from interquartile_range.
constexpr std::size_t k_lane_time_features = 11;

/// The time-domain statistics of W equal-length windows `x[0..W)` (at
/// least three samples each), one window per pack lane, written to
/// out[j][0..11). Two passes; every lane runs the scalar operation
/// sequence of the per-statistic functions (the parity rule of
/// common/simd_kernels.hpp), so W = 2 and W = 1 give the same bits.
template <int W>
void time_features(const Real* const* x, std::size_t n,
                   Real (*out)[k_lane_time_features]) {
  using P = simd::Pack<Real, W>;
  using M = simd::Mask<W>;
  const Real count = static_cast<Real>(n);

  // Pass 1: raw sums, extremes, line length, and the sums of the first
  // and second differences (Hjorth's derivative means).
  P sum = P::zero();
  P sum_squares = P::zero();
  P lowest = P::gather(x, 0);
  P highest = lowest;
  P line_length = P::zero();
  P sum_d1 = P::zero();
  P sum_d2 = P::zero();
  P previous = P::zero();
  P previous_d1 = P::zero();
  for (std::size_t i = 0; i < n; ++i) {
    const P v = P::gather(x, i);
    sum = sum + v;
    sum_squares = sum_squares + v * v;
    lowest = simd::select(simd::less(v, lowest), v, lowest);
    highest = simd::select(simd::less(highest, v), v, highest);
    if (i >= 1) {
      const P d1 = v - previous;
      line_length = line_length + simd::abs(d1);
      sum_d1 = sum_d1 + d1;
      if (i >= 2) {
        sum_d2 = sum_d2 + (d1 - previous_d1);
      }
      previous_d1 = d1;
    }
    previous = v;
  }
  Real mu_lanes[W];
  Real mu_d1_lanes[W];
  Real mu_d2_lanes[W];
  for (int j = 0; j < W; ++j) {
    mu_lanes[j] = sum.lane(j) / count;
    mu_d1_lanes[j] = sum_d1.lane(j) / static_cast<Real>(n - 1);
    mu_d2_lanes[j] = sum_d2.lane(j) / static_cast<Real>(n - 2);
  }
  const P mu = P::load(mu_lanes);
  const P mu_d1 = P::load(mu_d1_lanes);
  const P mu_d2 = P::load(mu_d2_lanes);

  // Pass 2: centred moments, absolute deviation, zero crossings of the
  // mean-removed signal (samples exactly on the mean carry no sign), and
  // the centred sums of squares of both differences.
  P m2 = P::zero();
  P m3 = P::zero();
  P m4 = P::zero();
  P abs_deviation = P::zero();
  M crossings = M::zero();
  M have_sign = M::zero();
  M previous_positive = M::zero();
  P ss_d1 = P::zero();
  P ss_d2 = P::zero();
  previous = P::zero();
  previous_d1 = P::zero();
  for (std::size_t i = 0; i < n; ++i) {
    const P v = P::gather(x, i);
    const P c = v - mu;
    const P c2 = c * c;
    m2 = m2 + c2;
    m3 = m3 + c2 * c;
    m4 = m4 + c2 * c2;
    abs_deviation = abs_deviation + simd::abs(c);
    const M signed_sample = simd::not_equal(c, P::zero());
    const M positive = simd::less(P::zero(), c);
    // A set mask lane is -1, so subtracting it counts the crossing.
    crossings = crossings -
                (signed_sample & have_sign & (positive ^ previous_positive));
    previous_positive =
        simd::select(signed_sample, positive, previous_positive);
    have_sign = have_sign | signed_sample;
    if (i >= 1) {
      const P d1 = v - previous;
      const P e1 = d1 - mu_d1;
      ss_d1 = ss_d1 + e1 * e1;
      if (i >= 2) {
        const P e2 = (d1 - previous_d1) - mu_d2;
        ss_d2 = ss_d2 + e2 * e2;
      }
      previous_d1 = d1;
    }
    previous = v;
  }

  for (int j = 0; j < W; ++j) {
    const Real variance = m2.lane(j) / count;
    const Real m3_mean = m3.lane(j) / count;
    const Real m4_mean = m4.lane(j) / count;
    // Hjorth mobility and complexity; the activity is the variance.
    const Real var_d1 = ss_d1.lane(j) / static_cast<Real>(n - 1);
    const Real var_d2 = ss_d2.lane(j) / static_cast<Real>(n - 2);
    const Real mobility = variance > 0.0 ? std::sqrt(var_d1 / variance) : 0.0;
    const Real mobility_d1 = var_d1 > 0.0 ? std::sqrt(var_d2 / var_d1) : 0.0;
    Real* row = out[j];
    row[0] = mu_lanes[j];
    row[1] = variance;
    row[2] = variance <= 0.0 ? 0.0 : m3_mean / std::pow(variance, 1.5);
    row[3] = variance <= 0.0 ? 0.0 : m4_mean / (variance * variance) - 3.0;
    row[4] = std::sqrt(sum_squares.lane(j) / count);  // rms
    row[5] = line_length.lane(j);
    row[6] = static_cast<Real>(crossings.lane(j));
    row[7] = mobility;
    row[8] = mobility > 0.0 ? mobility_d1 / mobility : 0.0;
    row[9] = highest.lane(j) - lowest.lane(j);  // peak-to-peak
    row[10] = abs_deviation.lane(j) / count;
  }
}

/// Appends the 14 spectral descriptors of one window. One pass over the
/// PSD gives the total power (bins from 0.5 Hz up), the five band powers
/// and the peak bin; a second scan, which stops at the edge, gives the
/// 90 % spectral edge. The bins ascend and the bands are contiguous, so
/// the first pass advances one band index instead of testing every band
/// on every bin; each band still adds its bins in index order.
void append_spectral_features(std::span<const Real> x, Real sample_rate_hz,
                              RealVector& out, dsp::Workspace& ws) {
  constexpr Real k_low_hz = 0.5;
  constexpr Real k_edge_fraction = 0.9;
  constexpr std::size_t k_band_count = std::size(k_bands);
  dsp::periodogram_into(x, sample_rate_hz, ws, ws.psd);
  const RealVector& frequency = ws.psd.frequency;
  const RealVector& density = ws.psd.density;
  const Real df = ws.psd.bin_width();
  const Real top_hz = frequency.back() + df;  // total_power's upper edge

  Real total = 0.0;
  Real band[k_band_count] = {};
  std::size_t b = 0;  // the first band whose upper edge is above the bin
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
    while (b < k_band_count && f >= k_bands[b].high_hz) {
      ++b;
    }
    if (b < k_band_count && f >= k_bands[b].low_hz) {
      band[b] += power;
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
  for (std::size_t c = 0; c < channels_; ++c) {
    expects(channels[c].size() >= min_window_length(),
            "EglassFeatureExtractor: window too short");
  }
  out.clear();
  out.reserve(channels_ * k_eglass_features_per_channel);
  // Channels go through the time-domain passes two at a time, one per
  // pack lane; an odd last channel, or a pair whose windows differ in
  // length, takes the one-lane body.
  for (std::size_t c = 0; c < channels_;) {
    const Real* x[2] = {channels[c].data(), nullptr};
    const std::size_t n = channels[c].size();
    std::size_t lanes = 1;
    if (c + 1 < channels_ && channels[c + 1].size() == n) {
      x[1] = channels[c + 1].data();
      lanes = 2;
    }
    Real time[2][k_lane_time_features] = {};
    if (lanes == 2) {
      time_features<2>(x, n, time);
    } else {
      time_features<1>(x, n, time);
    }
    for (std::size_t j = 0; j < lanes; ++j, ++c) {
      out.insert(out.end(), time[j], time[j] + k_lane_time_features);
      out.push_back(interquartile_range(channels[c], workspace.sorted));
      append_spectral_features(channels[c], sample_rate_hz, out, workspace);
      append_wavelet_features(channels[c], db4_, out, workspace);
    }
  }
  ensures(out.size() == channels_ * k_eglass_features_per_channel,
          "EglassFeatureExtractor: feature width drifted");
}

}  // namespace esl::features

#include "features/eglass_features.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/statistics.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"
#include "features/extractor.hpp"
#include "sim/cohort.hpp"

namespace esl::features {
namespace {

TEST(EglassFeatures, FiftyFourPerChannel) {
  EXPECT_EQ(EglassFeatureExtractor::per_channel_names().size(),
            k_eglass_features_per_channel);
  const EglassFeatureExtractor two(2);
  EXPECT_EQ(two.feature_names().size(), 108u);
  const EglassFeatureExtractor one(1);
  EXPECT_EQ(one.feature_names().size(), 54u);
}

TEST(EglassFeatures, NamesAreUniqueAndPrefixed) {
  const EglassFeatureExtractor extractor(2);
  const auto names = extractor.feature_names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_EQ(names[0].rfind("ch0.", 0), 0u);
  EXPECT_EQ(names[54].rfind("ch1.", 0), 0u);
}

TEST(EglassFeatures, OutputMatchesNameCount) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(0, 12.0, 1);
  const EglassFeatureExtractor extractor(2);
  const WindowedFeatures out = extract_windowed_features(record, extractor);
  EXPECT_EQ(out.features.cols(), 108u);
  EXPECT_EQ(out.count(), 9u);
}

TEST(EglassFeatures, AllValuesFinite) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(1, 20.0, 2);
  const EglassFeatureExtractor extractor(2);
  const WindowedFeatures out = extract_windowed_features(record, extractor);
  for (std::size_t w = 0; w < out.count(); ++w) {
    for (std::size_t f = 0; f < out.features.cols(); ++f) {
      EXPECT_TRUE(std::isfinite(out.features(w, f)))
          << "window " << w << " feature " << f;
    }
  }
}

TEST(EglassFeatures, ConstantWindowIsDegenerateButFinite) {
  const EglassFeatureExtractor extractor(1);
  const RealVector constant(1024, 5.0);
  dsp::Workspace ws;
  RealVector out;
  extractor.extract_into({constant}, 256.0, out, ws);
  ASSERT_EQ(out.size(), 54u);
  for (const Real v : out) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_DOUBLE_EQ(out[0], 5.0);  // mean
  EXPECT_DOUBLE_EQ(out[1], 0.0);  // variance
}

TEST(EglassFeatures, SeizureChangesManyFeatures) {
  const sim::CohortSimulator simulator;
  const auto& event = simulator.events().front();
  const auto record = simulator.synthesize_sample(event, 0, 600.0, 700.0);
  const auto seizure = record.seizures().front();

  const EglassFeatureExtractor extractor(2);
  const auto& samples0 = record.channel(0).samples;
  const auto& samples1 = record.channel(1).samples;
  const auto window_at = [&](Seconds t) {
    const std::size_t s = record.seconds_to_sample(t);
    return std::vector<std::span<const Real>>{
        std::span<const Real>(samples0).subspan(s, 1024),
        std::span<const Real>(samples1).subspan(s, 1024)};
  };
  dsp::Workspace ws;
  RealVector ictal;
  RealVector background;
  extractor.extract_into(window_at(seizure.midpoint()), 256.0, ictal, ws);
  extractor.extract_into(window_at(seizure.onset - 120.0), 256.0, background,
                         ws);
  std::size_t changed = 0;
  for (std::size_t f = 0; f < ictal.size(); ++f) {
    const Real denom = std::max({std::abs(background[f]), std::abs(ictal[f]), 1e-12});
    if (std::abs(ictal[f] - background[f]) / denom > 0.5) {
      ++changed;
    }
  }
  // A seizure should move a large part of the feature vector.
  EXPECT_GT(changed, 30u);
}

TEST(EglassFeatures, RejectsTooFewChannels) {
  const EglassFeatureExtractor extractor(2);
  const RealVector window(1024, 0.0);
  dsp::Workspace ws;
  RealVector out;
  EXPECT_THROW(extractor.extract_into({window}, 256.0, out, ws),
               InvalidArgument);
}

TEST(EglassFeatures, RejectsTinyWindows) {
  // The 7-level periodic db4 decomposition needs 65 samples, and the
  // extractor's own check says so before the decomposition runs.
  const EglassFeatureExtractor extractor(1);
  EXPECT_EQ(extractor.min_window_length(), 65u);
  dsp::Workspace ws;
  RealVector out;
  for (const std::size_t length : {8u, 64u}) {
    const RealVector window(length, 0.0);
    EXPECT_THROW(extractor.extract_into({window}, 256.0, out, ws),
                 InvalidArgument)
        << length << " samples";
  }
  RealVector shortest(65);
  for (std::size_t i = 0; i < shortest.size(); ++i) {
    shortest[i] = std::sin(0.3 * static_cast<Real>(i));
  }
  extractor.extract_into({shortest}, 16.25, out, ws);
  ASSERT_EQ(out.size(), 54u);
  for (const Real v : out) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

/// One channel's 54 descriptors, built from the public per-statistic
/// calls one at a time (a full sort for the IQR): the oracle the fused
/// passes in extract_into must reproduce bit for bit.
RealVector reference_channel_row(std::span<const Real> x, Real sample_rate_hz) {
  RealVector row;
  const Real mu = stats::mean(x);
  row.push_back(mu);
  row.push_back(stats::variance(x));
  row.push_back(stats::skewness(x));
  row.push_back(stats::kurtosis_excess(x));
  row.push_back(stats::rms(x));
  row.push_back(stats::line_length(x));
  row.push_back(static_cast<Real>(stats::zero_crossings(x)));
  RealVector d1;
  RealVector d2;
  const stats::Hjorth hjorth = stats::hjorth_parameters(x, d1, d2);
  row.push_back(hjorth.mobility);
  row.push_back(hjorth.complexity);
  row.push_back(stats::max(x) - stats::min(x));
  Real mean_abs = 0.0;
  for (const Real v : x) {
    mean_abs += std::abs(v - mu);
  }
  row.push_back(mean_abs / static_cast<Real>(x.size()));
  RealVector sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  row.push_back(stats::quantile_from_sorted(sorted, 0.75) -
                stats::quantile_from_sorted(sorted, 0.25));

  dsp::Workspace ws;
  dsp::Psd psd;
  dsp::periodogram_into(x, sample_rate_hz, ws, psd);
  row.push_back(dsp::total_power(psd));
  const dsp::Band bands[] = {dsp::bands::kDelta, dsp::bands::kTheta,
                             dsp::bands::kAlpha, dsp::bands::kBeta,
                             dsp::bands::kGamma};
  for (const dsp::Band band : bands) {
    row.push_back(dsp::band_power(psd, band));
  }
  for (const dsp::Band band : bands) {
    row.push_back(dsp::relative_band_power(psd, band));
  }
  row.push_back(dsp::spectral_edge_frequency(psd, 0.9));
  row.push_back(dsp::peak_frequency(psd));
  row.push_back(dsp::spectral_entropy(psd));

  const dsp::Wavelet db4 = dsp::Wavelet::daubechies(4);
  dsp::WaveletDecomposition dec;
  dsp::wavedec_into(x, db4, 7, ws, dec);
  RealVector energy;
  dsp::wavelet_energy_distribution_into(dec, energy);
  for (std::size_t level = 1; level <= 7; ++level) {
    const RealVector& d = dec.detail_at_level(level);
    Real level_abs = 0.0;
    for (const Real v : d) {
      level_abs += std::abs(v);
    }
    row.push_back(level_abs / static_cast<Real>(d.size()));
    row.push_back(stats::stddev(d));
    row.push_back(energy[level - 1]);
    row.push_back(stats::line_length(d));
  }
  return row;
}

/// Windows that stress each accumulator: plain noise, AR(1) EEG-like
/// drift, a constant, samples exactly at the mean, ties at the quartile
/// ranks, and a large DC offset; then orders that are hard on a
/// quartile selection: ascending, descending, two-valued, organ-pipe
/// and a median-of-three killer.
std::vector<std::pair<std::string, RealVector>> reference_windows(
    std::size_t n) {
  std::vector<std::pair<std::string, RealVector>> windows;
  Rng rng(1000 + n);
  RealVector noise(n);
  for (auto& v : noise) {
    v = rng.normal();
  }
  windows.emplace_back("normal noise", noise);
  RealVector ar(n);
  Real state = 0.0;
  for (auto& v : ar) {
    state = 0.95 * state + rng.normal(0.0, 12.0);
    v = state;
  }
  windows.emplace_back("AR(1)", ar);
  windows.emplace_back("constant", RealVector(n, 5.0));
  // 0, -1, 0, 1, ...: the mean is exactly 0 and every other sample sits
  // on it (an unpaired last -1 becomes 0).
  RealVector on_mean(n);
  for (std::size_t i = 0; i < n; ++i) {
    on_mean[i] = i % 2 == 0 ? 0.0 : (i % 4 == 1 ? -1.0 : 1.0);
  }
  if ((n / 2) % 2 == 1) {
    on_mean[2 * (n / 2) - 1] = 0.0;
  }
  windows.emplace_back("samples on the mean", on_mean);
  RealVector ties(n);
  for (auto& v : ties) {
    v = std::round(rng.normal() * 2.0) / 2.0;
  }
  windows.emplace_back("tied quartiles", ties);
  RealVector offset(noise);
  for (auto& v : offset) {
    v += 1e6;
  }
  windows.emplace_back("DC offset 1e6", offset);

  RealVector ascending(n);
  RealVector descending(n);
  RealVector two_valued(n);
  RealVector organ_pipe(n);
  for (std::size_t i = 0; i < n; ++i) {
    ascending[i] = static_cast<Real>(i) - 100.5;
    descending[i] = static_cast<Real>(n - i) * 0.25;
    two_valued[i] = rng.uniform() < 0.3 ? -1.5 : 2.5;
    organ_pipe[i] = static_cast<Real>(std::min(i, n - 1 - i));
  }
  windows.emplace_back("ascending", ascending);
  windows.emplace_back("descending", descending);
  windows.emplace_back("two-valued", two_valued);
  windows.emplace_back("organ pipe", organ_pipe);
  // Musser's sequence against a first/middle/last median-of-three pivot:
  // 1, k+1, 3, k+3, ..., then 2, 4, ..., 2k (one more value if n is odd).
  RealVector killer(n);
  const std::size_t k = n / 2;
  for (std::size_t i = 0; i < k; ++i) {
    killer[i] = static_cast<Real>(i % 2 == 0 ? i + 1 : k + i);
    killer[k + i] = static_cast<Real>(2 * (i + 1));
  }
  if (n % 2 == 1) {
    killer[n - 1] = static_cast<Real>(n);
  }
  windows.emplace_back("median-of-three killer", killer);
  return windows;
}

void expect_channel_row(const RealVector& row, std::size_t channel,
                        std::span<const Real> x, const std::string& label) {
  const std::vector<std::string> names =
      EglassFeatureExtractor::per_channel_names();
  const RealVector expected = reference_channel_row(x, 256.0);
  ASSERT_GE(row.size(), (channel + 1) * expected.size());
  for (std::size_t f = 0; f < expected.size(); ++f) {
    const Real actual = row[channel * expected.size() + f];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
              std::bit_cast<std::uint64_t>(expected[f]))
        << label << ", channel " << channel << ": " << names[f] << " is "
        << actual << ", reference " << expected[f];
  }
}

TEST(EglassFeatures, RowMatchesPerStatisticReference) {
  // One channel takes the one-lane time-domain body; two and three
  // channels run pairs through the two-lane body (and a third channel
  // through the one-lane body). Every channel sees a different kind of
  // window, so the lanes of a pair disagree on the variance test, the
  // crossings and the extremes.
  dsp::Workspace ws;  // reused across lengths, as a session reuses it
  RealVector row;
  for (const std::size_t channels : {1u, 2u, 3u}) {
    const EglassFeatureExtractor extractor(channels);
    for (const std::size_t n : {65u, 256u, 768u, 1000u, 1024u, 1025u}) {
      const auto windows = reference_windows(n);
      for (std::size_t w = 0; w < windows.size(); ++w) {
        std::vector<std::span<const Real>> spans;
        std::string label = std::to_string(n) + " samples:";
        for (std::size_t c = 0; c < channels; ++c) {
          const auto& [name, x] = windows[(w + 5 * c) % windows.size()];
          spans.emplace_back(x);
          label += " [" + name + "]";
        }
        extractor.extract_into(spans, 256.0, row, ws);
        ASSERT_EQ(row.size(), channels * k_eglass_features_per_channel);
        for (std::size_t c = 0; c < channels; ++c) {
          expect_channel_row(row, c, spans[c], label);
        }
      }
    }
  }
}

TEST(EglassFeatures, PairOfUnequalLengthsMatchesReference) {
  // Windows of different lengths cannot share the two-lane body; each
  // takes the one-lane body and still matches its own reference.
  const EglassFeatureExtractor extractor(2);
  const auto long_windows = reference_windows(1024);
  const auto short_windows = reference_windows(1000);
  dsp::Workspace ws;
  RealVector row;
  for (std::size_t w = 0; w < long_windows.size(); ++w) {
    const RealVector& a = long_windows[w].second;
    const auto& [short_name, b] = short_windows[(w + 1) % short_windows.size()];
    extractor.extract_into({a, b}, 256.0, row, ws);
    ASSERT_EQ(row.size(), 2 * k_eglass_features_per_channel);
    expect_channel_row(row, 0, a, long_windows[w].first);
    expect_channel_row(row, 1, b, short_name);
  }
}

TEST(EglassFeatures, NonFiniteSamplesStillGiveAFullRow) {
  // NaN and infinities make every comparison in the quartile selection
  // and the extremes meaningless; the row must still come back full
  // width, without running out of bounds or forever (CI runs this under
  // ASan).
  for (const std::size_t n : {65u, 1024u, 1025u}) {
    RealVector x = reference_windows(n)[1].second;
    for (std::size_t i = 0; i < n; i += 7) {
      x[i] = std::numeric_limits<Real>::quiet_NaN();
    }
    for (std::size_t i = 3; i < n; i += 11) {
      x[i] = i % 2 == 0 ? std::numeric_limits<Real>::infinity()
                        : -std::numeric_limits<Real>::infinity();
    }
    const RealVector all_nan(n, std::numeric_limits<Real>::quiet_NaN());
    dsp::Workspace ws;
    RealVector row;
    const EglassFeatureExtractor one(1);
    one.extract_into({x}, 256.0, row, ws);
    EXPECT_EQ(row.size(), k_eglass_features_per_channel);
    const EglassFeatureExtractor three(3);
    three.extract_into({all_nan, x, x}, 256.0, row, ws);
    EXPECT_EQ(row.size(), 3 * k_eglass_features_per_channel);
  }
}

TEST(EglassFeatures, RejectsZeroChannels) {
  EXPECT_THROW(EglassFeatureExtractor{0}, InvalidArgument);
}

}  // namespace
}  // namespace esl::features

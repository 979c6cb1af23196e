// The paper's 10-feature set (§III-A).
//
// Selected by backward elimination in the original work:
//   from F7-T3:  total theta ([4,8] Hz) power, relative theta power,
//                total delta ([0.5,4] Hz) power;
//   from F8-T4:  relative theta power,
//                permutation entropy of DWT level 7 (n = 5 and n = 7),
//                permutation entropy of DWT level 6 (n = 7),
//                Rényi entropy of DWT level 3,
//                sample entropy of DWT level 6 (r = k sigma, k = 0.2, 0.35).
// DWT: Daubechies-4, 7 levels.
#pragma once

#include "dsp/wavelet.hpp"
#include "features/extractor.hpp"

namespace esl::features {

/// Tunables of the 10-feature extractor; defaults follow the paper.
struct PaperFeatureConfig {
  std::size_t dwt_levels = 7;
  Real renyi_alpha = 2.0;
  std::size_t renyi_bins = 16;
  std::size_t sample_entropy_m = 2;
};

/// Window extractor producing exactly the 10 selected features.
/// Channel 0 must be F7-T3 and channel 1 F8-T4.
class PaperFeatureExtractor final : public WindowFeatureExtractor {
 public:
  explicit PaperFeatureExtractor(PaperFeatureConfig config = {});

  std::vector<std::string> feature_names() const override;
  std::size_t required_channels() const override { return 2; }
  /// Minimum input length of the configured periodic DWT.
  std::size_t min_window_length() const override;
  /// PSD/DWT/entropy scratch comes from the caller-owned workspace.
  void extract_into(const std::vector<std::span<const Real>>& channels,
                    Real sample_rate_hz, RealVector& out,
                    dsp::Workspace& workspace) const override;

  /// Number of features (10).
  static constexpr std::size_t k_feature_count = 10;

 private:
  PaperFeatureConfig config_;
  /// db4 filter bank cached at construction (the paper's basis).
  dsp::Wavelet db4_;
};

}  // namespace esl::features

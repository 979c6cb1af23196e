#include "core/hierarchical.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "features/extractor.hpp"

namespace esl::core {

HierarchicalDetector::HierarchicalDetector(HierarchicalConfig config)
    : config_(config), extractor_(2), forest_(config.realtime.forest) {
  expects(config_.stage1_target_sensitivity > 0.0 &&
              config_.stage1_target_sensitivity <= 1.0,
          "HierarchicalDetector: stage-1 sensitivity must lie in (0, 1]");
}

Real fit_stage1_threshold(const ml::Dataset& train, Real sensitivity,
                          std::size_t feature) {
  train.check();
  expects(sensitivity > 0.0 && sensitivity <= 1.0,
          "fit_stage1_threshold: sensitivity must lie in (0, 1]");
  expects(train.feature_count() > feature,
          "fit_stage1_threshold: screening feature out of range");
  expects(train.positives() >= 2,
          "fit_stage1_threshold: need at least 2 seizure windows");

  // Keep the configured fraction of positive windows above the threshold.
  RealVector positive_values;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (train.y[i] == 1) {
      positive_values.push_back(train.x(i, feature));
    }
  }
  std::sort(positive_values.begin(), positive_values.end());
  return stats::quantile_from_sorted(positive_values, 1.0 - sensitivity);
}

void HierarchicalDetector::fit(const ml::Dataset& train, std::uint64_t seed) {
  threshold_ = fit_stage1_threshold(train, config_.stage1_target_sensitivity,
                                    config_.screening_feature);

  // Stage-2 forest on z-scored features.
  scaler_ = features::fit_column_stats(train.x);
  ml::Dataset scaled = train;
  features::apply_zscore(scaled.x, *scaler_);
  forest_.fit(scaled, seed);
}

Real HierarchicalDetector::stage1_threshold() const {
  expects(threshold_.has_value(), "HierarchicalDetector: not fitted");
  return *threshold_;
}

HierarchicalPrediction HierarchicalDetector::predict(
    const signal::EegRecord& record) const {
  expects(is_fitted(), "HierarchicalDetector::predict: not fitted");
  const features::WindowedFeatures windowed = features::extract_windowed_features(
      record, extractor_, config_.realtime.window_seconds,
      config_.realtime.overlap);

  HierarchicalPrediction out;
  out.total_windows = windowed.count();
  out.labels.assign(windowed.count(), 0);

  RealVector row(windowed.features.cols());
  for (std::size_t w = 0; w < windowed.count(); ++w) {
    // Stage 1: cheap screening on the raw feature.
    if (windowed.features(w, config_.screening_feature) < *threshold_) {
      continue;  // declared non-seizure without waking the classifier
    }
    // Stage 2: the full forest on the scaled feature vector.
    ++out.stage2_windows;
    const auto src = windowed.features.row(w);
    for (std::size_t f = 0; f < row.size(); ++f) {
      const Real sigma = scaler_->stddev[f];
      row[f] = sigma > 0.0 ? (src[f] - scaler_->mean[f]) / sigma : 0.0;
    }
    out.labels[w] = forest_.predict(row);
  }
  return out;
}

}  // namespace esl::core

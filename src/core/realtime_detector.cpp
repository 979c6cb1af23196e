#include "core/realtime_detector.hpp"

#include "common/error.hpp"
#include "features/extractor.hpp"

namespace esl::core {

namespace {

/// Window label: 1 when overlap with any seizure interval reaches the
/// configured fraction of the window length.
int window_label(Seconds window_start, Seconds window_seconds,
                 const std::vector<signal::Interval>& seizures) {
  const signal::Interval window{window_start, window_start + window_seconds};
  for (const auto& s : seizures) {
    if (window.overlap(s) >= k_window_label_overlap * window_seconds) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

ml::Dataset build_window_dataset(const signal::EegRecord& record,
                                 const std::vector<signal::Interval>& seizures,
                                 const RealtimeConfig& config) {
  const features::EglassFeatureExtractor extractor(2);
  const features::WindowedFeatures windowed = features::extract_windowed_features(
      record, extractor, config.window_seconds, config.overlap);

  ml::Dataset data;
  for (std::size_t w = 0; w < windowed.count(); ++w) {
    data.push_back(windowed.features.row(w),
                   window_label(windowed.window_start_s[w],
                                config.window_seconds, seizures));
  }
  return data;
}

RealtimeDetector::RealtimeDetector(RealtimeConfig config)
    : config_(config),
      extractor_(2),
      // Constructing the (unfitted) forest validates config.forest up
      // front, exactly as the by-value member used to.
      forest_(std::make_shared<const ml::RandomForest>(config.forest)) {}

void RealtimeDetector::fit(const ml::Dataset& train, std::uint64_t seed) {
  train.check();
  expects(train.size() >= 4, "RealtimeDetector::fit: dataset too small");
  features::ColumnStats stats = features::fit_column_stats(train.x);
  ml::Dataset scaled = train;
  features::apply_zscore(scaled.x, stats);
  scaler_ = ml::RowScaler{std::move(stats.mean), std::move(stats.stddev)};
  // Train a fresh forest and share it into an immutable deployable
  // artifact: the engine holds models only through that seam, so a later
  // re-fit installs a new ensemble instead of mutating the one a shard
  // may still be predicting with.
  auto fitted = std::make_shared<ml::RandomForest>(config_.forest);
  fitted->fit(scaled, seed);
  forest_ = fitted;
  model_ = std::make_shared<const ml::ForestModel>(forest_, scaler_);
}

std::shared_ptr<const ml::CompiledForest> RealtimeDetector::compile() const {
  expects(is_fitted(), "RealtimeDetector::compile: not fitted");
  return std::make_shared<const ml::CompiledForest>(*forest_, scaler_);
}

std::vector<int> RealtimeDetector::predict_windows(
    const signal::EegRecord& record) const {
  expects(is_fitted(), "RealtimeDetector::predict_windows: not fitted");
  features::WindowedFeatures windowed = features::extract_windowed_features(
      record, extractor_, config_.window_seconds, config_.overlap);
  RealVector proba;
  std::vector<int> labels;
  model_->predict_into(windowed.features, proba, labels);
  return labels;
}

ml::ConfusionMatrix RealtimeDetector::evaluate(
    const signal::EegRecord& record,
    const std::vector<signal::Interval>& truth) const {
  expects(is_fitted(), "RealtimeDetector::evaluate: not fitted");
  features::WindowedFeatures windowed = features::extract_windowed_features(
      record, extractor_, config_.window_seconds, config_.overlap);
  const std::size_t windows = windowed.count();
  std::vector<int> labels(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    labels[w] = window_label(windowed.window_start_s[w],
                             config_.window_seconds, truth);
  }
  RealVector proba;
  std::vector<int> predicted;
  model_->predict_into(windowed.features, proba, predicted);
  return ml::confusion(labels, predicted);
}

bool RealtimeDetector::raises_alarm(const signal::EegRecord& record,
                                    std::size_t min_consecutive) const {
  const std::vector<int> predicted = predict_windows(record);
  std::size_t run = 0;
  for (const int p : predicted) {
    run = (p == 1) ? run + 1 : 0;
    if (run >= min_consecutive) {
      return true;
    }
  }
  return false;
}

}  // namespace esl::core

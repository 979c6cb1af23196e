#include "core/realtime_detector.hpp"

#include <algorithm>

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

ml::Dataset RealtimeDetector::scale(const ml::Dataset& data) const {
  expects(scaler_.has_value(), "RealtimeDetector: scaler not fitted");
  ml::Dataset scaled = data;
  features::apply_zscore(scaled.x, *scaler_);
  return scaled;
}

void RealtimeDetector::fit(const ml::Dataset& train, std::uint64_t seed) {
  train.check();
  expects(train.size() >= 4, "RealtimeDetector::fit: dataset too small");
  scaler_ = features::fit_column_stats(train.x);
  row_scaler_ = ml::RowScaler{scaler_->mean, scaler_->stddev};
  ml::Dataset scaled = train;
  features::apply_zscore(scaled.x, *scaler_);
  // Train a fresh forest and share it into an immutable deployable
  // artifact: the engine holds models only through that seam, so a later
  // re-fit installs a new ensemble instead of mutating the one a shard
  // may still be predicting with.
  auto fitted = std::make_shared<ml::RandomForest>(config_.forest);
  fitted->fit(scaled, seed);
  forest_ = fitted;
  model_ = std::make_shared<const ml::ForestModel>(forest_, row_scaler_);
}

std::shared_ptr<const ml::CompiledForest> RealtimeDetector::compile() const {
  expects(is_fitted(), "RealtimeDetector::compile: not fitted");
  return std::make_shared<const ml::CompiledForest>(*forest_, row_scaler_);
}

void RealtimeDetector::scale_rows_in_place(Matrix& raw_rows) const {
  expects(scaler_.has_value(),
          "RealtimeDetector::scale_rows_in_place: not fitted");
  // RowScaler::apply is the one row-major z-score implementation (shared
  // with the deployable artifacts); it validates the row width and stays
  // bit-identical to the offline column-major path.
  row_scaler_.apply(raw_rows);
}

int RealtimeDetector::predict_row(std::span<const Real> raw_row,
                                  RealVector& scratch) const {
  expects(is_fitted(), "RealtimeDetector::predict_row: not fitted");
  expects(raw_row.size() == scaler_->size(),
          "RealtimeDetector::predict_row: row width mismatch");
  scratch.resize(raw_row.size());
  row_scaler_.apply_row(raw_row, scratch);
  return forest_->predict(scratch);
}

std::vector<int> RealtimeDetector::predict_windows(
    const signal::EegRecord& record) const {
  expects(is_fitted(), "RealtimeDetector::predict_windows: not fitted");
  const features::WindowedFeatures windowed = features::extract_windowed_features(
      record, extractor_, config_.window_seconds, config_.overlap);
  Matrix scaled = windowed.features;
  features::apply_zscore(scaled, *scaler_);
  return forest_->predict_all(scaled);
}

ml::ConfusionMatrix RealtimeDetector::evaluate(
    const signal::EegRecord& record,
    const std::vector<signal::Interval>& truth) const {
  expects(is_fitted(), "RealtimeDetector::evaluate: not fitted");
  const features::WindowedFeatures windowed = features::extract_windowed_features(
      record, extractor_, config_.window_seconds, config_.overlap);
  Matrix scaled = windowed.features;
  features::apply_zscore(scaled, *scaler_);
  const std::vector<int> predicted = forest_->predict_all(scaled);
  std::vector<int> labels(windowed.count());
  for (std::size_t w = 0; w < windowed.count(); ++w) {
    labels[w] = window_label(windowed.window_start_s[w],
                             config_.window_seconds, truth);
  }
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

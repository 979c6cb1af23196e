// Supervised real-time seizure detection (§III-C).
//
// A random forest over the e-Glass 54-features-per-electrode set [7],
// trained on windows labeled either by medical experts (ground truth) or
// by the a-posteriori labeling algorithm — the comparison behind Fig. 4.
#pragma once

#include <memory>

#include "features/eglass_features.hpp"
#include "features/normalize.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"
#include "ml/inference_model.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "signal/eeg_record.hpp"

namespace esl::core {

/// Window labeling rule: a window is a seizure window when at least this
/// fraction of it overlaps a labeled seizure interval.
inline constexpr Real k_window_label_overlap = 0.5;

/// Real-time detector configuration.
struct RealtimeConfig {
  ml::ForestConfig forest;
  Seconds window_seconds = 4.0;
  Real overlap = 0.75;
};

/// Builds a labeled window dataset from a record: one e-Glass feature row
/// per window, label 1 when the window overlaps a `seizure` interval by at
/// least k_window_label_overlap of its length.
ml::Dataset build_window_dataset(const signal::EegRecord& record,
                                 const std::vector<signal::Interval>& seizures,
                                 const RealtimeConfig& config = {});

/// The trainable detector.
///
/// Thread safety: fit() is not synchronized, but once fitted the object
/// is logically immutable — every const method (predict_windows,
/// model(), compile(), forest() traversal, evaluate, raises_alarm) only
/// reads the trained state, with no mutable members or internal
/// caching. A fitted detector may therefore be shared read-only across
/// engine shards and their worker threads (the DetectionService hands
/// one fleet model to every shard). Re-fitting while other threads
/// predict is a data race; train a fresh detector and swap it in between
/// polls instead — the engine's personalization path does exactly this
/// under its shard lock.
class RealtimeDetector {
 public:
  explicit RealtimeDetector(RealtimeConfig config = {});

  /// Fits the forest (and the feature scaler) on a labeled dataset.
  void fit(const ml::Dataset& train, std::uint64_t seed = 1);

  bool is_fitted() const { return model_ != nullptr; }

  /// Per-window hard labels for a record, predicted through model().
  std::vector<int> predict_windows(const signal::EegRecord& record) const;

  const ml::RandomForest& forest() const { return *forest_; }

  /// The deployable inference artifact rebuilt by every fit(): a
  /// ForestModel adapter bundling the fitted forest with its scaler.
  /// nullptr before the first fit. The streaming engine predicts only
  /// through this (or a compiled/swapped-in replacement) — never through
  /// forest() directly.
  std::shared_ptr<const ml::InferenceModel> model() const { return model_; }

  /// Compiles the fitted forest (+ scaler) into an immutable flat
  /// artifact (ml/compiled_forest.hpp). Predictions are bit-identical to
  /// model()'s but traverse contiguous arrays; deploy it with
  /// Engine::swap_model / DetectionService::swap_model. Each call builds
  /// a fresh artifact from the current fit.
  std::shared_ptr<const ml::CompiledForest> compile() const;

  /// Confusion matrix of the detector against ground-truth intervals.
  ml::ConfusionMatrix evaluate(const signal::EegRecord& record,
                               const std::vector<signal::Interval>& truth) const;

  /// True when the record triggers a seizure alarm: at least
  /// `min_consecutive` consecutive positive windows.
  bool raises_alarm(const signal::EegRecord& record,
                    std::size_t min_consecutive = 3) const;

  const RealtimeConfig& config() const { return config_; }

 private:
  RealtimeConfig config_;
  features::EglassFeatureExtractor extractor_;
  /// The fitted ensemble. fit() installs a *fresh* forest here (never
  /// mutates the old one), so the ForestModel artifact sharing it stays
  /// immutable; never null (unfitted before the first fit).
  std::shared_ptr<const ml::RandomForest> forest_;
  /// The fit's z-score parameters, baked into the deployable artifacts
  /// that model() and compile() hand out.
  ml::RowScaler scaler_;
  std::shared_ptr<const ml::InferenceModel> model_;  // rebuilt by fit()
};

}  // namespace esl::core

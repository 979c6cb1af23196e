// Windowed feature extraction pipeline.
//
// Implements the paper's segmentation (§III-A): features are computed on
// 4-second windows with 75 % overlap, i.e. the window slides by one second,
// producing one feature row per second of signal. The extractor interface
// is implemented by the paper's 10-feature set and by the e-Glass-style
// 54-feature-per-electrode set. It has a single extraction entry point,
// extract_into, which computes a row from caller-owned buffers only.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "signal/eeg_record.hpp"

namespace esl::dsp {
class Workspace;
}  // namespace esl::dsp

namespace esl::features {

/// Computes one feature row from synchronized windows of every channel.
class WindowFeatureExtractor {
 public:
  virtual ~WindowFeatureExtractor() = default;

  /// Stable, human-readable names, one per output feature.
  virtual std::vector<std::string> feature_names() const = 0;

  /// Number of channels the extractor expects.
  virtual std::size_t required_channels() const = 0;

  /// Shortest per-channel window (in samples) the extractor can process.
  /// engine::PatientSession rejects a shorter window geometry up front.
  virtual std::size_t min_window_length() const { return 1; }

  /// Extracts features from one multichannel window into `out` (cleared,
  /// capacity retained). `channels[c]` is the window of channel c; all
  /// spans have equal length. Every DSP and statistics temporary comes
  /// from the caller-owned `workspace`, so a warm (extractor,
  /// window-geometry, workspace) triple computes the row with zero heap
  /// allocations, and a warm workspace yields the same bits as a fresh
  /// one. One workspace per stream: never share one across threads (see
  /// dsp/workspace.hpp).
  virtual void extract_into(const std::vector<std::span<const Real>>& channels,
                            Real sample_rate_hz, RealVector& out,
                            dsp::Workspace& workspace) const = 0;

  /// Number of output features (== feature_names().size()).
  std::size_t feature_count() const { return feature_names().size(); }
};

/// Feature matrix plus the window geometry needed to map feature-space
/// indices back to seconds.
struct WindowedFeatures {
  Matrix features;  // L x F: one row per window
  std::vector<Seconds> window_start_s;
  Seconds window_seconds = 4.0;
  Seconds hop_seconds = 1.0;

  std::size_t count() const { return features.rows(); }

  /// Record time (seconds) of the start of window index i.
  Seconds index_to_seconds(std::size_t i) const;
  /// Window index whose start is closest to time t (clamped).
  std::size_t seconds_to_index(Seconds t) const;
};

/// Runs `extractor` over the record with the paper's window plan.
/// The record must contain at least required_channels() channels; the
/// first required_channels() are used in order.
WindowedFeatures extract_windowed_features(const signal::EegRecord& record,
                                           const WindowFeatureExtractor& extractor,
                                           Seconds window_seconds = 4.0,
                                           Real overlap = 0.75);

}  // namespace esl::features

// Streaming window feature extraction for the edge device.
//
// The wearable does not see whole records: samples arrive continuously
// from the AFE. StreamingExtractor buffers a multichannel stream and
// emits one feature row whenever a full 4-second window completes,
// sliding by the configured hop — byte-identical to the batch
// extract_windowed_features() output (verified by tests).
//
// The buffering is a per-channel fixed-capacity SampleRing plus reused
// linearization/row scratch buffers and one dsp::Workspace owned by the
// stream: after warm-up the per-window path — windowing, DSP internals
// and feature row included — performs zero heap allocations (asserted by
// the ZeroAllocation test suites).
#pragma once

#include <vector>

#include "dsp/workspace.hpp"
#include "features/extractor.hpp"
#include "signal/sample_ring.hpp"

namespace esl::features {

/// Receives completed windows from StreamingExtractor::push without any
/// per-window allocation. `row` is only valid during the call.
class WindowSink {
 public:
  virtual ~WindowSink() = default;

  /// `index` is the global window counter (0-based since stream start),
  /// `start_s` the window start time, `row` the feature row.
  virtual void on_window(std::size_t index, Seconds start_s,
                         std::span<const Real> row) = 0;
};

/// Incremental counterpart of extract_windowed_features().
class StreamingExtractor {
 public:
  /// `extractor` must outlive this object (it is borrowed, not copied).
  /// Throws InvalidArgument when the window is shorter than
  /// extractor.min_window_length() samples.
  StreamingExtractor(const WindowFeatureExtractor& extractor,
                     Real sample_rate_hz, Seconds window_seconds = 4.0,
                     Real overlap = 0.75);

  // Non-copyable/movable: views_ aliases this object's own scratch
  // buffers, so a byte-wise copy would read the source's storage.
  StreamingExtractor(const StreamingExtractor&) = delete;
  StreamingExtractor& operator=(const StreamingExtractor&) = delete;

  /// Feeds one block of samples (one span per channel, equal lengths;
  /// blocks of any size, including single samples) and hands every window
  /// completed by this block to `sink`. Returns the number of windows
  /// emitted. This path does not allocate once warm.
  std::size_t push(const std::vector<std::span<const Real>>& block,
                   WindowSink& sink);

  /// Number of windows emitted so far.
  std::size_t emitted() const { return emitted_; }

  /// Start time (seconds since stream start) of emitted window `index`.
  Seconds window_start_s(std::size_t index) const;

  /// Samples per window / hop, as derived from the constructor arguments.
  std::size_t window_length() const { return window_length_; }
  std::size_t hop() const { return hop_; }

  /// Current buffer fill (samples pending before the next emission).
  std::size_t buffered() const {
    return rings_.empty() ? 0 : rings_.front().size();
  }

  /// Width of the emitted feature rows.
  std::size_t feature_count() const { return feature_count_; }

  /// Channels the stream consumes (== extractor's required_channels()).
  std::size_t channel_count() const { return rings_.size(); }

 private:
  const WindowFeatureExtractor& extractor_;
  Real sample_rate_hz_;
  std::size_t window_length_;
  std::size_t hop_;
  std::size_t feature_count_;
  std::vector<signal::SampleRing> rings_;  // one per channel
  // Reused scratch: linearized windows, their views, the feature row, and
  // the DSP workspace handed to the extractor (one per stream, so shard
  // workers driving different sessions never share scratch).
  std::vector<RealVector> window_scratch_;
  std::vector<std::span<const Real>> views_;
  RealVector row_scratch_;
  dsp::Workspace workspace_;
  std::size_t emitted_ = 0;
};

}  // namespace esl::features

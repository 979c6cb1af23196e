// Sliding-window segmentation.
//
// The paper extracts features from 4-second windows with 75 % overlap,
// i.e. a 1-second hop (§III-A). window_geometry() turns seconds into
// samples; the batch plan below and every engine::PatientSession stream
// take their window length and hop from it, so the two paths cannot
// round differently. SlidingWindows enumerates the window start
// positions and exposes spans over the underlying signal.
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace esl::signal {

/// Window length and hop in samples.
struct WindowGeometry {
  std::size_t length;
  std::size_t hop;
};

/// lround(window_seconds * rate) and lround(window_seconds * (1 - overlap)
/// * rate), with a hop of 0 raised to 1. Throws InvalidArgument unless
/// the rate and window are positive and overlap lies in [0, 1).
WindowGeometry window_geometry(Real sample_rate_hz, Real window_seconds,
                               Real overlap);

/// Window plan over a signal of `signal_length` samples.
class SlidingWindows {
 public:
  /// window_length and hop are in samples; both must be >= 1 and the
  /// window must fit the signal at least once.
  SlidingWindows(std::size_t signal_length, std::size_t window_length,
                 std::size_t hop);

  /// Builds the paper's plan: window_seconds = 4, overlap = 0.75.
  static SlidingWindows paper_plan(std::size_t signal_length,
                                   Real sample_rate_hz,
                                   Real window_seconds = 4.0,
                                   Real overlap = 0.75);

  std::size_t count() const { return count_; }
  std::size_t window_length() const { return window_length_; }
  std::size_t hop() const { return hop_; }

  /// Start sample of window w.
  std::size_t start(std::size_t w) const {
    expects(w < count_, "SlidingWindows::start: window index out of range");
    return w * hop_;
  }

  /// View of window w over `signal` (whose size must match the plan).
  std::span<const Real> view(std::span<const Real> signal, std::size_t w) const;

 private:
  std::size_t signal_length_;
  std::size_t window_length_;
  std::size_t hop_;
  std::size_t count_;
};

}  // namespace esl::signal

#include "signal/sliding_window.hpp"

#include <cmath>

namespace esl::signal {

WindowGeometry window_geometry(Real sample_rate_hz, Real window_seconds,
                               Real overlap) {
  expects(sample_rate_hz > 0.0,
          "window_geometry: sample rate must be positive");
  expects(window_seconds > 0.0, "window_geometry: window must be positive");
  expects(overlap >= 0.0 && overlap < 1.0,
          "window_geometry: overlap must lie in [0, 1)");
  const auto length =
      static_cast<std::size_t>(std::lround(window_seconds * sample_rate_hz));
  const auto hop = static_cast<std::size_t>(
      std::lround(window_seconds * (1.0 - overlap) * sample_rate_hz));
  return {length, hop == 0 ? 1 : hop};
}

SlidingWindows::SlidingWindows(std::size_t signal_length,
                               std::size_t window_length, std::size_t hop)
    : signal_length_(signal_length),
      window_length_(window_length),
      hop_(hop) {
  expects(window_length >= 1, "SlidingWindows: window_length must be >= 1");
  expects(hop >= 1, "SlidingWindows: hop must be >= 1");
  expects(signal_length >= window_length,
          "SlidingWindows: signal shorter than one window");
  count_ = (signal_length - window_length) / hop + 1;
}

SlidingWindows SlidingWindows::paper_plan(std::size_t signal_length,
                                          Real sample_rate_hz,
                                          Real window_seconds, Real overlap) {
  const WindowGeometry geometry =
      window_geometry(sample_rate_hz, window_seconds, overlap);
  return SlidingWindows(signal_length, geometry.length, geometry.hop);
}

std::span<const Real> SlidingWindows::view(std::span<const Real> signal,
                                           std::size_t w) const {
  expects(signal.size() == signal_length_,
          "SlidingWindows::view: signal length does not match plan");
  return signal.subspan(start(w), window_length_);
}

}  // namespace esl::signal

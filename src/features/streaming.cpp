#include "features/streaming.hpp"

#include <cmath>

#include "common/error.hpp"

namespace esl::features {

StreamingExtractor::StreamingExtractor(const WindowFeatureExtractor& extractor,
                                       Real sample_rate_hz,
                                       Seconds window_seconds, Real overlap)
    : extractor_(extractor), sample_rate_hz_(sample_rate_hz) {
  expects(sample_rate_hz > 0.0,
          "StreamingExtractor: sample rate must be positive");
  expects(window_seconds > 0.0,
          "StreamingExtractor: window must be positive");
  expects(overlap >= 0.0 && overlap < 1.0,
          "StreamingExtractor: overlap must lie in [0, 1)");
  window_length_ = static_cast<std::size_t>(
      std::lround(window_seconds * sample_rate_hz));
  hop_ = static_cast<std::size_t>(
      std::lround(window_seconds * (1.0 - overlap) * sample_rate_hz));
  if (hop_ == 0) {
    hop_ = 1;
  }
  expects(window_length_ >= extractor_.min_window_length(),
          "StreamingExtractor: window shorter than the extractor's minimum");
  feature_count_ = extractor_.feature_count();

  const std::size_t channels = extractor_.required_channels();
  rings_.reserve(channels);
  window_scratch_.resize(channels);
  views_.resize(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    rings_.emplace_back(window_length_);
    window_scratch_[c].resize(window_length_);
    views_[c] = window_scratch_[c];
  }
  row_scratch_.reserve(feature_count_);
}

std::size_t StreamingExtractor::push(
    const std::vector<std::span<const Real>>& block, WindowSink& sink) {
  expects(block.size() >= rings_.size(),
          "StreamingExtractor::push: too few channels in block");
  const std::size_t block_length = block.empty() ? 0 : block[0].size();
  for (std::size_t c = 0; c < rings_.size(); ++c) {
    expects(block[c].size() == block_length,
            "StreamingExtractor::push: channel block lengths differ");
  }
  if (rings_.empty()) {
    return 0;
  }

  // Consume the block in slices so the rings never overflow: fill up to
  // one window, emit, slide by one hop, repeat.
  std::size_t produced = 0;
  std::size_t offset = 0;
  while (true) {
    const std::size_t need = window_length_ - rings_.front().size();
    const std::size_t take = std::min(need, block_length - offset);
    for (std::size_t c = 0; c < rings_.size(); ++c) {
      rings_[c].push(block[c].subspan(offset, take));
    }
    offset += take;
    if (rings_.front().size() < window_length_) {
      break;  // block exhausted before the next window completed
    }
    for (std::size_t c = 0; c < rings_.size(); ++c) {
      rings_[c].copy_front(window_length_, window_scratch_[c]);
    }
    extractor_.extract_into(views_, sample_rate_hz_, row_scratch_, workspace_);
    sink.on_window(emitted_,
                   static_cast<Seconds>(emitted_ * hop_) / sample_rate_hz_,
                   row_scratch_);
    ++emitted_;
    ++produced;
    for (auto& ring : rings_) {
      ring.drop_front(hop_);
    }
  }
  return produced;
}

Seconds StreamingExtractor::window_start_s(std::size_t index) const {
  expects(index < emitted_,
          "StreamingExtractor::window_start_s: window not yet emitted");
  return static_cast<Seconds>(index * hop_) / sample_rate_hz_;
}

}  // namespace esl::features

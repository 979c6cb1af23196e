#include "engine/patient_session.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "signal/montage.hpp"
#include "signal/sliding_window.hpp"

namespace esl::engine {

void validate(const SessionConfig& config) {
  expects(std::isfinite(config.sample_rate_hz) && config.sample_rate_hz > 0.0,
          "SessionConfig: sample_rate_hz must be positive");
  expects(std::isfinite(config.window_seconds) && config.window_seconds > 0.0,
          "SessionConfig: window_seconds must be positive");
  expects(std::isfinite(config.overlap) && config.overlap >= 0.0 &&
              config.overlap < 1.0,
          "SessionConfig: overlap must be in [0, 1)");
  expects(config.alarm_consecutive >= 1,
          "SessionConfig: alarm_consecutive must be positive");
  expects(std::isfinite(config.history_seconds) &&
              config.history_seconds >= 0.0,
          "SessionConfig: history_seconds must be non-negative");
  // Geometry plausibility bounds (found by fuzz/fuzz_ingest.cpp): the
  // session sizes its per-channel rings from
  // lround(window_seconds * sample_rate_hz), so a hostile config like
  // sample_rate_hz = 1e30 passed positivity checks and then hit lround
  // overflow (UB) plus a colossal ring allocation. Products are bounded
  // *before* any rounding or allocation can see them. The limits are
  // far beyond any wearable EEG geometry (window cap = 4 s at ~16 MHz;
  // history cap = one hour at ~1 MHz) but small enough that the rings
  // they imply are allocatable.
  constexpr double k_max_window_samples = 67108864.0;     // 2^26
  constexpr double k_max_history_samples = 4294967296.0;  // 2^32
  expects(config.window_seconds * config.sample_rate_hz <=
              k_max_window_samples,
          "SessionConfig: window sample count implausibly large");
  expects(config.history_seconds * config.sample_rate_hz <=
              k_max_history_samples,
          "SessionConfig: history sample count implausibly large");
}

PatientSession::PatientSession(
    std::uint64_t id, const features::WindowFeatureExtractor& extractor,
    const SessionConfig& config)
    : extractor_(extractor), id_(id), config_(config) {
  validate(config_);
  const signal::WindowGeometry geometry = signal::window_geometry(
      config_.sample_rate_hz, config_.window_seconds, config_.overlap);
  window_length_ = geometry.length;
  hop_ = geometry.hop;
  expects(window_length_ >= extractor.min_window_length(),
          "PatientSession: window shorter than the extractor's minimum");
  const auto history = static_cast<std::size_t>(
      std::lround(config_.history_seconds * config_.sample_rate_hz));
  expects(!history_enabled() || history >= window_length_,
          "PatientSession: history shorter than one window");

  const std::size_t channels = extractor.required_channels();
  rings_.reserve(channels);
  window_scratch_.resize(channels);
  views_.resize(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    rings_.emplace_back(std::max(window_length_, history));
    window_scratch_[c].resize(window_length_);
    views_[c] = window_scratch_[c];
  }
  const std::size_t features = extractor.feature_count();
  row_scratch_.reserve(features);
  pending_.reserve_rows(16, features);
}

std::size_t PatientSession::ingest(
    const std::vector<std::span<const Real>>& chunk) {
  // Validate the whole chunk before touching any state, so a rejected
  // chunk cannot leave the rings half-updated or misaligned.
  expects(chunk.size() >= rings_.size(),
          "PatientSession::ingest: too few channels");
  const std::size_t length = chunk.empty() ? 0 : chunk[0].size();
  for (std::size_t c = 0; c < rings_.size(); ++c) {
    expects(chunk[c].size() == length,
            "PatientSession::ingest: channel chunk lengths differ");
  }

  // Push in slices that end where the next window does; at each such
  // end the window is the newest window_length_ samples of every ring.
  std::size_t produced = 0;
  std::size_t offset = 0;
  while (offset < length) {
    const std::size_t window_end = window_length_ + emitted_ * hop_;
    const std::size_t take = std::min(window_end - pushed_, length - offset);
    for (std::size_t c = 0; c < rings_.size(); ++c) {
      rings_[c].push(chunk[c].subspan(offset, take));
    }
    offset += take;
    pushed_ += take;
    if (pushed_ < window_end) {
      break;  // chunk exhausted before the next window completed
    }
    for (std::size_t c = 0; c < rings_.size(); ++c) {
      rings_[c].copy_back(window_length_, window_scratch_[c]);
    }
    extractor_.extract_into(views_, config_.sample_rate_hz, row_scratch_,
                            workspace_);
    pending_.append_row(row_scratch_);
    pending_indices_.push_back(emitted_);
    ++emitted_;
    ++produced;
  }
  return produced;
}

void PatientSession::clear_pending() {
  pending_.clear_rows();
  pending_indices_.clear();
}

Seconds PatientSession::window_start_s(std::size_t window_index) const {
  expects(window_index < emitted_,
          "PatientSession::window_start_s: window not yet emitted");
  return static_cast<Seconds>(window_index * hop_) / config_.sample_rate_hz;
}

bool PatientSession::observe_label(int label) {
  alarm_run_ = label == 1 ? alarm_run_ + 1 : 0;
  if (alarm_run_ == config_.alarm_consecutive) {
    ++alarms_;
    return true;
  }
  return false;
}

Seconds PatientSession::history_buffered_s() const {
  return history_enabled() ? static_cast<Seconds>(rings_.front().size()) /
                                 config_.sample_rate_hz
                           : 0.0;
}

signal::EegRecord PatientSession::history_record(
    const std::string& record_id) const {
  expects(history_enabled(),
          "PatientSession::history_record: history disabled");
  const std::size_t available = rings_.front().size();
  expects(available >= window_length_,
          "PatientSession::history_record: less than one window buffered");

  signal::EegRecord record(
      config_.sample_rate_hz,
      record_id.empty() ? "session-" + std::to_string(id_) : record_id);
  const auto pairs = signal::montage::wearable_pairs();
  for (std::size_t c = 0; c < rings_.size(); ++c) {
    RealVector samples(available);
    rings_[c].copy_all(samples);
    // Wearable montage labels for the first pairs; synthetic labels for
    // any extra channels so multi-channel sessions still materialize.
    signal::ElectrodePair electrodes;
    if (c < pairs.size()) {
      electrodes = pairs[c];
    } else {
      electrodes.anode = 'C' + std::to_string(c);
      electrodes.cathode = "Cz";
    }
    record.add_channel(std::move(electrodes), std::move(samples));
  }
  return record;
}

}  // namespace esl::engine

// One monitored patient inside the streaming engine.
//
// A PatientSession ingests raw EEG in arbitrary-size chunks (from a radio
// packet, a file reader, a socket — the engine does not care) into one
// sample ring per channel. The ring serves both of the session's uses of
// the stream: every time a 4 s window completes, its newest
// window_length samples are copied out and extracted into a raw e-Glass
// feature row, parked in a pending matrix that the Engine drains into
// batched inference; and, when history_seconds > 0, the whole ring is
// the retrospective "last hour of signal" a patient button press
// relabels a posteriori. Each sample is copied into the ring once. The
// session owns its window scratch and one dsp::Workspace, so a warm
// ingest -> extract -> pending -> clear_pending cycle performs zero heap
// allocations end to end (see the engine ZeroAllocation suite);
// sessions never share scratch, which keeps shard workers
// data-race-free by construction. It also owns the per-patient
// post-processing state (consecutive-positive alarm runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "dsp/workspace.hpp"
#include "features/extractor.hpp"
#include "signal/eeg_record.hpp"
#include "signal/sample_ring.hpp"

namespace esl::engine {

/// Per-session stream geometry and post-processing knobs.
struct SessionConfig {
  Real sample_rate_hz = 256.0;
  Seconds window_seconds = 4.0;
  Real overlap = 0.75;
  /// Consecutive positive windows required to raise an alarm (§III-C
  /// post-processing; RealtimeDetector::raises_alarm uses the same rule).
  std::size_t alarm_consecutive = 3;
  /// Length of the retrospective raw-signal buffer used for a-posteriori
  /// labeling on patient trigger ("the last hour"). 0 disables it.
  Seconds history_seconds = 0.0;
  /// Model policy, read by the Engine: when false the session never uses
  /// the shared fleet detector and stays cold until its own self-learning
  /// pipeline trains a personal one (the paper's patient-specific
  /// scenario, §III).
  bool use_fleet_model = true;
};

/// Throws InvalidArgument unless `config` describes a usable stream:
/// positive sample rate and window length, overlap in [0, 1),
/// alarm_consecutive >= 1, history_seconds >= 0. Engine::add_session and
/// DetectionService::create_session validate through this so bad
/// geometry is rejected up front instead of failing deep inside the
/// windowing path. A window shorter than the extractor's
/// min_window_length() is rejected by the PatientSession constructor,
/// which knows the extractor, with the same InvalidArgument.
void validate(const SessionConfig& config);

/// Chunked ingest -> incremental windowing -> pending feature rows.
class PatientSession final {
 public:
  /// `extractor` must outlive the session (the engine owns one shared
  /// extractor; sessions borrow it). Throws InvalidArgument for a config
  /// validate() rejects, a window shorter than the extractor's
  /// min_window_length(), or a history shorter than one window.
  PatientSession(std::uint64_t id,
                 const features::WindowFeatureExtractor& extractor,
                 const SessionConfig& config);

  // Non-copyable: views_ aliases this object's own window scratch.
  PatientSession(const PatientSession&) = delete;
  PatientSession& operator=(const PatientSession&) = delete;

  std::uint64_t id() const { return id_; }
  const SessionConfig& config() const { return config_; }

  /// Feeds one chunk (one span per channel, equal lengths, any size).
  /// Completed windows accumulate as rows of pending(). Returns the
  /// number of windows completed by this chunk. A rejected chunk leaves
  /// the session unchanged.
  std::size_t ingest(const std::vector<std::span<const Real>>& chunk);

  /// Raw (unscaled) feature rows awaiting inference, in window order.
  const Matrix& pending() const { return pending_; }
  /// Global window index of each pending row.
  const std::vector<std::size_t>& pending_window_indices() const {
    return pending_indices_;
  }
  /// Drops the pending rows after the engine consumed them; storage
  /// capacity is retained so steady-state ingest does not allocate.
  void clear_pending();

  /// Windows emitted since the stream started.
  std::size_t windows_emitted() const { return emitted_; }
  /// Stream time (seconds) of the start of window `window_index`, which
  /// must have been emitted.
  Seconds window_start_s(std::size_t window_index) const;
  /// Samples pushed since the start of the next window.
  std::size_t buffered_samples() const { return pushed_ - emitted_ * hop_; }

  /// Feeds one classified window into the alarm post-processing, in
  /// window order. Returns true when this window completes a run of
  /// config().alarm_consecutive positive windows (an alarm).
  bool observe_label(int label);
  /// Alarms raised so far.
  std::size_t alarms() const { return alarms_; }

  bool history_enabled() const { return config_.history_seconds > 0.0; }
  /// Seconds of signal the history holds (0 when it is disabled).
  Seconds history_buffered_s() const;
  /// Materializes the retrospective history as an EegRecord (wearable
  /// montage labels) for a-posteriori labeling. Requires history_enabled()
  /// and at least one buffered window's worth of signal.
  signal::EegRecord history_record(const std::string& record_id = "") const;

 private:
  const features::WindowFeatureExtractor& extractor_;
  std::uint64_t id_;
  SessionConfig config_;
  std::size_t window_length_;
  std::size_t hop_;
  /// One per channel, max(window_length_, history samples) long.
  std::vector<signal::SampleRing> rings_;
  std::size_t pushed_ = 0;   // samples per channel since the stream began
  std::size_t emitted_ = 0;  // windows extracted since the stream began
  // Reused scratch: the newest window of each channel, views over it,
  // the feature row, and the DSP workspace handed to the extractor.
  std::vector<RealVector> window_scratch_;
  std::vector<std::span<const Real>> views_;
  RealVector row_scratch_;
  dsp::Workspace workspace_;
  Matrix pending_;
  std::vector<std::size_t> pending_indices_;
  std::size_t alarm_run_ = 0;
  std::size_t alarms_ = 0;
};

}  // namespace esl::engine

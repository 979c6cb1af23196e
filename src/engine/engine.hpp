// Streaming multi-patient detection engine.
//
// The paper's real-time detector (§III-C) classifies one window of one
// patient at a time. A production service monitoring a fleet of wearables
// instead amortizes work across patients: the Engine owns many
// PatientSessions, drains their ready windows into a single batched
// random-forest pass per model (tree-major, cache-hot), applies an
// optional hierarchical stage-1 screen before the forest ever runs
// ([24]-style self-aware wake-up), and dispatches per-session alarm
// post-processing and self-learning label hooks.
//
// Model sharing: every session starts on the shared fleet detector, so
// one batch covers the whole fleet. A session with an attached
// SelfLearningPipeline switches to its personalized detector as soon as
// the pipeline has trained one; batches are then grouped per distinct
// model so personalization never breaks batching for the rest.
//
// Models: the engine predicts exclusively through the immutable
// ml::InferenceModel seam (shared_ptr<const>, one per slot) — never
// through a detector's forest directly. swap_model() deploys an explicit
// replacement (typically a RealtimeDetector::compile() artifact) for one
// session between polls with no flush or stream pause: it is a
// shared_ptr assignment, the old model serves until the assignment and
// the new one from the next poll on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/realtime_detector.hpp"
#include "core/self_learning.hpp"
#include "engine/patient_session.hpp"
#include "features/eglass_features.hpp"
#include "ml/inference_model.hpp"

namespace esl::engine {

/// Stage-1 screen applied to raw rows before batching into the forest:
/// rows with feature `feature` below `threshold` are declared non-seizure
/// without invoking the classifier (see core::fit_stage1_threshold).
struct ScreeningConfig {
  std::size_t feature = 14;  // ch0.power_theta, as in HierarchicalConfig
  Real threshold = 0.0;
};

struct EngineConfig {
  /// Defaults applied by add_session().
  SessionConfig session;
  /// Optional pre-batch hierarchical screen.
  std::optional<ScreeningConfig> screening;
};

/// One classified window, as returned by Engine::poll.
struct Detection {
  std::uint64_t session_id = 0;
  std::size_t window_index = 0;  // per-session global window counter
  Seconds window_start_s = 0.0;
  int label = 0;
  bool screened_out = false;  // stage 1 rejected it; the forest never ran
  bool alarm = false;         // completed a consecutive-positive alarm run
};

/// Aggregate counters since construction.
struct EngineStats {
  std::size_t windows_classified = 0;
  std::size_t forest_windows = 0;    // went through a batched forest pass
  std::size_t screened_windows = 0;  // rejected by the stage-1 screen
  std::size_t unmodeled_windows = 0; // no fitted model yet (label 0)
  std::size_t alarms = 0;
  std::size_t polls = 0;
  std::size_t batches = 0;  // batched forest invocations
};

class Engine {
 public:
  /// `fleet_model` is the shared detector every new session starts on; it
  /// may be unfitted (cold-start self-learning fleet), in which case
  /// windows are passed through as non-seizure until a model exists.
  explicit Engine(std::shared_ptr<const core::RealtimeDetector> fleet_model,
                  EngineConfig config = {});

  /// Adds a session with the engine-default SessionConfig; returns its id.
  /// The config is validated up front (see validate(SessionConfig)):
  /// invalid geometry raises InvalidArgument here, not inside the
  /// windowing path on the first chunk.
  std::uint64_t add_session();
  std::uint64_t add_session(const SessionConfig& config);
  /// Rolls back the most recent add_session: `id` must be the id it
  /// returned, with no add_session in between. This is the creation
  /// rollback hook for DetectionService — when a backend fails to
  /// mirror a freshly created session (remote open rejected), the local
  /// slot is removed so local and remote session sets stay consistent.
  void pop_session(std::uint64_t id);
  /// Tombstones a live session: its state (session, pipeline, models)
  /// is released, its id is never reused, and polls skip the slot from
  /// now on. Pending windows not yet polled are dropped. ingest() for a
  /// tombstoned id silently discards the chunk — under a threaded
  /// backend, chunks already queued when the close lands race the
  /// worker benignly instead of faulting — while every other accessor
  /// (session(), swap_model(), ...) treats the id as unknown.
  void remove_session(std::uint64_t id);
  /// Created-session high-watermark: tombstones still count (ids are
  /// never reused, so this is "ids handed out", not "sessions alive").
  std::size_t session_count() const { return slots_.size(); }
  PatientSession& session(std::uint64_t id);
  const PatientSession& session(std::uint64_t id) const;

  /// Forwards one chunk to the session's ingest.
  std::size_t ingest(std::uint64_t id,
                     const std::vector<std::span<const Real>>& chunk);

  /// Drains every session's pending windows through (screen ->) batched
  /// inference -> alarm post-processing, appending the detections onto
  /// `out` (execution backends reuse one buffer across polls), grouped by
  /// session (ascending id), in window order within a session. The alarm
  /// hook fires for each detection that completed an alarm run.
  void poll_into(std::vector<Detection>& out);

  /// Attaches a personal self-learning pipeline to a session (enables
  /// patient_trigger). The session keeps using the fleet model until the
  /// pipeline trains a personal one.
  void attach_self_learning(std::uint64_t id,
                            const core::SelfLearningConfig& config);
  bool has_self_learning(std::uint64_t id) const;

  /// Patient button press after a missed seizure: reconstructs the
  /// session's history record, labels it with Algorithm 1 via the attached
  /// pipeline (which retrains), switches the session to the personalized
  /// detector once fitted, fires the label hook, and returns the label.
  /// Clears any swap_model override so the freshly retrained model is
  /// never masked by a stale pinned artifact.
  signal::Interval patient_trigger(std::uint64_t id);

  /// Deploys `model` for session `id`: every window classified by a poll
  /// after the swap uses it, including windows already pending at swap
  /// time. The override wins over the automatic fleet/pipeline model
  /// choice until cleared with nullptr or by the next patient_trigger.
  /// Typical use: compile the session's retrained detector and swap the
  /// flat artifact in without stopping the stream.
  void swap_model(std::uint64_t id,
                  std::shared_ptr<const ml::InferenceModel> model);
  /// The model classifying session `id`'s windows as of the last poll
  /// (or swap); nullptr while the session is cold.
  std::shared_ptr<const ml::InferenceModel> session_model(
      std::uint64_t id) const;

  /// Called for every detection that raised an alarm (during poll_into()).
  void set_alarm_hook(std::function<void(const Detection&)> hook) {
    alarm_hook_ = std::move(hook);
  }
  /// Called with each a-posteriori label produced by patient_trigger.
  void set_label_hook(
      std::function<void(std::uint64_t, const signal::Interval&)> hook) {
    label_hook_ = std::move(hook);
  }

  const EngineStats& stats() const { return stats_; }
  const EngineConfig& config() const { return config_; }
  /// The shared feature extractor sessions run on.
  const features::WindowFeatureExtractor& extractor() const {
    return extractor_;
  }

 private:
  struct Slot {
    std::unique_ptr<PatientSession> session;
    std::unique_ptr<core::SelfLearningPipeline> pipeline;
    /// Model classifying this session's windows: the override, the
    /// pipeline's personal model, the fleet model, or nullptr while none
    /// is fitted.
    std::shared_ptr<const ml::InferenceModel> model;
    /// Explicit deployment via swap_model(); wins over the automatic
    /// fleet/pipeline choice until cleared (or the next patient_trigger).
    std::shared_ptr<const ml::InferenceModel> override_model;
  };

  Slot& slot(std::uint64_t id);
  const Slot& slot(std::uint64_t id) const;
  /// slot(id) plus an alive check: throws for tombstoned sessions.
  Slot& live_slot(std::uint64_t id);
  const Slot& live_slot(std::uint64_t id) const;
  /// Fleet model when fitted, nullptr otherwise.
  std::shared_ptr<const ml::InferenceModel> fleet_model() const;
  /// Recomputes the slot's effective model: override > personalized
  /// pipeline > fleet (unless opted out) > none. The one precedence rule
  /// poll, swap_model and patient_trigger all share.
  void refresh_model(Slot& s) const;
  /// Classifies the pending rows of every slot whose model is `model`
  /// into labels_; one batched inference pass.
  void classify_group(const ml::InferenceModel* model);

  std::shared_ptr<const core::RealtimeDetector> fleet_;
  EngineConfig config_;
  features::EglassFeatureExtractor extractor_;
  std::vector<Slot> slots_;  // id == index
  std::function<void(const Detection&)> alarm_hook_;
  std::function<void(std::uint64_t, const signal::Interval&)> label_hook_;
  EngineStats stats_;

  // Reused poll_into() scratch.
  Matrix batch_;
  std::vector<std::pair<std::size_t, std::size_t>> batch_src_;  // slot, row
  std::vector<std::vector<int>> labels_;  // per slot, per pending row
  // Stage-1 screen verdict per pending row, decided once in
  // classify_group and reused when assembling detections.
  std::vector<std::vector<std::uint8_t>> screened_;
  RealVector proba_scratch_;
  std::vector<int> predicted_scratch_;
};

}  // namespace esl::engine

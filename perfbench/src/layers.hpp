// Per-layer numbers for the traced run: spans recorded around the
// benchmark's calls during the live run, plus a replay that times each
// layer's public call on the workload's own generated inputs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "ml/inference_model.hpp"

namespace perfbench {

struct LayerInputs {
  std::vector<const esl::signal::EegRecord*> records;
  std::size_t chunk_samples = k_hop_samples;
  /// Chunks cross a socket on this workload (adds the wire codec to the
  /// per-window stage sum).
  bool wire = false;
  /// The model the workload's sessions are served by.
  std::shared_ptr<const esl::ml::InferenceModel> model;
  /// Batch size the live engine ran at (EngineStats forest windows per
  /// batch).
  double rows_per_batch = 1.0;
  /// History a button press labels, and the patient's average seizure
  /// length (Algorithm 1's only expert input).
  double history_seconds = 600.0;
  double average_seizure_duration_s = 60.0;
  /// Seizure of records[0], in record seconds.
  esl::signal::Interval seizure{};
  std::string workdir;
};

/// Live-run layer metrics from the spans and counters of the traced run.
void record_live_layers(const Tracer& tracer, std::vector<double> lags_ms,
                        double open_phase_s, std::uint64_t chunks,
                        std::uint64_t windows,
                        const esl::engine::EngineStats& stats,
                        double windows_per_s, std::size_t workers,
                        Result& result);

/// Replays each layer's public call on `inputs` and adds the per-layer
/// metrics plus the stage sums shown beside the end-to-end figures.
void replay_layers(const LayerInputs& inputs, const Tracer& tracer,
                   double windows_per_s, std::size_t workers, Result& result);

/// Writes every span as CSV (name, start_us, end_us from the first span).
void write_spans(const Tracer& tracer, const std::string& path);

}  // namespace perfbench

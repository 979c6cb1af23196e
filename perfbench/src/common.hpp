// Shared pieces of the benchmark: options, results, generated inputs and
// the detection sink that times windows from outside the program.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/realtime_detector.hpp"
#include "engine/service.hpp"
#include "signal/eeg_record.hpp"
#include "sim/cohort.hpp"
#include "timing.hpp"

namespace perfbench {

using esl::Real;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (sockets, model registry,
  /// span dumps).
  std::string workdir = ".bench_build/perfbench/work";
  /// Recorded self_learning quality values, one line per seed.
  std::string golden;
  /// self_learning only: run the script once, print its quality as a line
  /// for the recorded-values file, and skip every timed phase.
  bool record_quality = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked.
struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Operations attempted (chunks, opens, closes, triggers) and those that
  /// failed or produced output that disagrees with the reference.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed check, printed before the result.
  std::vector<std::string> failures;
  /// Human-readable lines (sample counts, percentiles, stage sums).
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void fail(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    failures.push_back(what);
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Adds `<prefix>_p50<suffix>` from `s` to `into` and, when `tail_into`
  /// is given, `<prefix>_p99<suffix>` to it; notes both with the sample
  /// count (and the lower percentile actually supported, when fewer than
  /// 1000 samples exist).
  void timing(std::vector<Metric>& into, const std::string& prefix,
              const std::string& suffix, const Summary& s,
              const std::string& unit, std::vector<Metric>* tail_into);
};

/// Per-chunk channel views into a record.
std::vector<std::span<const Real>> chunk_views(const esl::signal::EegRecord& record,
                                               std::size_t offset,
                                               std::size_t count);

/// Copy of samples [offset, offset + count) of `record` as a new record
/// with the same montage and sample rate (no annotations).
esl::signal::EegRecord slice_record(const esl::signal::EegRecord& record,
                                    std::size_t offset, std::size_t count);

/// A seizure record drawn from the cohort for one seed.
struct SeizureRecord {
  std::size_t patient = 0;
  esl::signal::EegRecord record;
  esl::signal::Interval seizure;  // record seconds
};

/// Draws `count` single-seizure records of `duration_s` seconds.
std::vector<SeizureRecord> draw_seizure_records(
    const esl::sim::CohortSimulator& simulator, esl::Rng& rng,
    std::size_t count, double duration_s);

/// Fleet detector trained on one held-aside cohort record.
std::shared_ptr<const esl::core::RealtimeDetector> train_fleet_model(
    const esl::sim::CohortSimulator& simulator, esl::Rng& rng);

/// The window geometry every workload streams with (the paper's 4 s
/// windows on a 1 s hop at 256 Hz).
inline constexpr std::size_t k_sample_rate = 256;
inline constexpr std::size_t k_window_samples = 4 * k_sample_rate;
inline constexpr std::size_t k_hop_samples = k_sample_rate;

/// Maps a delivered window back to the round whose chunk completed it.
/// A lifetime is one session handle; round0 is the generator round in
/// which that handle's first chunk was sent (negative when the session
/// predates the current numbering).
struct Lifetime {
  std::uint32_t slot = 0;
  std::int64_t round0 = 0;
};

/// Detection sink timing every window from outside the program. Each
/// shard's detections arrive from one thread at a time (its worker, or the
/// caller for inline and remote backends), so per-shard state needs no
/// lock; the generator reads it only after a flush.
class TimingSink final : public esl::engine::DetectionSink {
 public:
  TimingSink(std::size_t shards, std::size_t slots, std::size_t chunk_samples);

  /// Lifetime table entry for `handle`; written by the generator before the
  /// handle's first chunk is ingested.
  void register_lifetime(esl::engine::SessionHandle handle, Lifetime lifetime);
  /// Capture every detection of `slot` for the parity check.
  void capture(std::uint32_t slot) { captured_[slot] = true; }
  const std::vector<esl::engine::Detection>& captured(std::uint32_t slot) const {
    return detections_[slot];
  }

  /// Starts timing windows completed in rounds >= first_round against
  /// `schedule` (event = round * slots + slot), filing each sample under
  /// segment event / events_per_segment of its completing chunk. Call only
  /// while no worker is delivering (after a flush).
  void start_latency(const OpenLoopSchedule& schedule, std::int64_t first_round,
                     std::uint64_t events_per_segment);
  void stop_latency() { timing_ = false; }

  /// Windows delivered since the last reset; readable while workers run.
  std::uint64_t windows() const;
  /// Call only after a flush.
  void reset_windows();
  /// Latency samples (ms) collected since start_latency, per segment.
  std::vector<std::vector<double>> latency_segments() const;
  /// Counts each window, captures the sampled slots' detections, and times
  /// windows completed during the open loop.
  void on_detections(std::span<const esl::engine::Detection> detections) override;

 private:
  struct alignas(64) ShardState {
    std::vector<Lifetime> lifetimes;  // indexed by engine-local id
    std::atomic<std::uint64_t> windows{0};
    std::vector<std::pair<std::uint32_t, double>> latencies;  // segment, ms
  };
  std::size_t slots_;
  std::size_t chunk_samples_;
  std::vector<ShardState> shards_;
  std::vector<char> captured_;
  std::vector<std::vector<esl::engine::Detection>> detections_;
  bool timing_ = false;
  std::int64_t first_round_ = 0;
  std::uint64_t events_per_segment_ = 1;
  OpenLoopSchedule schedule_{Clock::time_point{}, 1.0};
};

/// Per-segment figures of a closed loop: the delivered window rate
/// (windows per second of wall time) and the process CPU time per
/// delivered window (microseconds: generator, server and workers alike).
struct ClosedLoopSegments {
  std::vector<double> windows_per_s;
  std::vector<double> cpu_us_per_window;

  /// Adds a segment that delivered `windows` in `wall_s` seconds while the
  /// process used `cpu_s` seconds of CPU; empty segments are skipped.
  void add(std::uint64_t windows, double wall_s, double cpu_s) {
    if (windows == 0 || wall_s <= 0.0) {
      return;
    }
    windows_per_s.push_back(static_cast<double>(windows) / wall_s);
    cpu_us_per_window.push_back(1e6 * cpu_s / static_cast<double>(windows));
  }
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// True when two detection streams agree window by window on every field
/// but the session id (bit parity).
bool same_detections(const std::vector<esl::engine::Detection>& a,
                     const std::vector<esl::engine::Detection>& b);

/// The redeploy half of a button press: compiles the session's retrained
/// forest (the ml::ForestModel patient_trigger left serving) into the flat
/// artifact and swaps it in. `owner` is a DetectionService or an Engine.
template <typename Owner, typename Handle>
std::shared_ptr<const esl::ml::InferenceModel> compile_and_swap(
    Owner& owner, Handle handle, Tracer& tracer, std::uint32_t span_compile,
    std::uint32_t span_swap) {
  const auto personal =
      std::dynamic_pointer_cast<const esl::ml::ForestModel>(owner.session_model(handle));
  if (personal == nullptr) {
    throw std::runtime_error("retrained session model is not a forest model");
  }
  const auto compiled = traced(tracer, span_compile, [&] {
    return esl::ml::compile(personal->forest(), personal->scaler(),
                            esl::ml::InferenceBackend::kCompiled);
  });
  traced(tracer, span_swap, [&] { owner.swap_model(handle, compiled); });
  return compiled;
}

/// The end-to-end metrics every workload reports (peak_rss_mb is added
/// by the driver): windows_per_s, the median over `closed` segments,
/// window_latency_p50_ms and setup_s. The closed loop's CPU time per
/// window goes to the per-layer metrics of a traced run
/// (bench.cpu_us_per_window). The p99 tail of window latency, the
/// session-open times and the button-press latency swing between
/// identical runs with the host far more than any bound could absorb, so
/// they are printed here and reported beside the per-layer metrics of a
/// traced run (the press as bench.trigger_e2e_ms), not gated.
void report_end_to_end(const Options& options, ClosedLoopSegments closed,
                       const Summary& window_latency, const Summary& session_open,
                       const Summary& trigger_latency, std::vector<double> setups_s,
                       Result& result);

/// Sends events on an open-loop schedule until `seconds` have passed and
/// the current round is complete: event i goes to slot i % slots in round
/// i / slots, no earlier than its due time and regardless of how the
/// system coped with earlier events. `round_end(round)` runs after the
/// last slot of each round. Returns the generator lag of every event (ms).
template <typename Send, typename RoundEnd>
std::vector<double> run_open_loop(const OpenLoopSchedule& schedule,
                                  std::size_t slots, double seconds,
                                  Send&& send, RoundEnd&& round_end) {
  std::vector<double> lags;
  lags.reserve(1 << 18);
  const Clock::time_point end =
      schedule.start() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  for (std::uint64_t event = 0;;) {
    const Clock::time_point now = Clock::now();
    if (now >= end && event % slots == 0) {
      break;
    }
    const Clock::time_point due = schedule.due(event);
    if (due > now) {
      std::this_thread::sleep_until(due);
      continue;
    }
    lags.push_back(generator_lag_ms(due, now));
    send(static_cast<std::size_t>(event % slots), event / slots);
    ++event;
    if (event % slots == 0) {
      round_end(event / slots - 1);
    }
  }
  return lags;
}

/// Workload entry points (stream.cpp, self_learning.cpp) and the per-layer
/// replay (layers.cpp).
void run_stream(const Options& options, bool remote, Result& result);
void run_self_learning(const Options& options, Result& result);

}  // namespace perfbench

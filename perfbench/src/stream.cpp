// stream_local and stream_wire: a fleet of wearable sessions streaming
// cohort records through a DetectionService.
//
// stream_local runs the service in-process on a ThreadPoolBackend (3
// shards: one generator thread plus three workers on a 4-core host) with
// 1 s chunks, so feature extraction dominates. stream_wire sends the same
// cohort through net::RemoteBackend to a ShardServer on a loopback unix
// socket (client thread, server loop, 2 workers) in 1/8 s chunks, so the
// wire codec and the ingest queue carry eight frames and pushes per
// window. Both run the same phases:
//   1. session opens: open/close cycles on the idle service, then the
//      fleet's own sessions;
//   2. closed loop: every session sends its next chunk as fast as
//      backpressure allows -> windows_per_s;
//   3. open loop at a fixed offered window rate -> window latency, timed
//      from the due time of the chunk that completed each window;
//      closed- and open-loop slices alternate over the run, so that each
//      phase's median samples the host at many moments, not in one block;
//   4. button presses on sessions holding 10 min of history, three before
//      the first slice, three halfway and three after the last ->
//      trigger latency (press to the retrained model serving);
//   5. parity: sampled sessions' detection streams against a single
//      Engine fed the same chunks.
// A fixed share of sessions closes and reopens every stream-second, so
// control traffic runs beside data. In stream_wire a session's first chunk
// goes out in one of the stream-second's eight rounds, chosen by its slot,
// so that windows complete in every round, not all in the last one.
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>

#include "common.hpp"
#include "core/self_learning.hpp"
#include "engine/engine.hpp"
#include "layers.hpp"
#include "ml/artifact.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"

namespace perfbench {
namespace {

namespace engine = esl::engine;
namespace net = esl::net;

constexpr std::size_t k_sessions = 192;
/// Cohort records the fleet streams, at fixed length so that set-up cost
/// and memory do not depend on the seed.
constexpr std::size_t k_records = 3;
constexpr double k_record_s = 2700.0;
/// Sessions closed and reopened per stream-second (1/32 of the fleet).
constexpr std::size_t k_churn_per_second = 6;
/// Open/close cycles on the idle service before streaming: the
/// session-open sample, above the 1000 a p99 needs. Opens under load
/// (churn) are not sampled: behind a stream-second of queued frames their
/// latency follows the host's speed more than the program's.
constexpr std::size_t k_open_cycles = 1200;
/// Sessions whose detection streams are checked against an Engine replay.
constexpr std::size_t k_parity_stride = 24;
/// Button presses, in three groups spread over the run (before the first
/// slice, halfway, after the last), so that their median samples the host
/// at more than one moment.
constexpr std::size_t k_presses_per_group = 3;
constexpr double k_trigger_history_s = 600.0;
/// Closed-loop figures are medians over segments of this length.
constexpr std::chrono::milliseconds k_segment{500};
/// Closed- and open-loop slices each, alternating after the warm-up; even,
/// so that a traced run alternates untraced and traced closed slices.
constexpr int k_slices = 8;
/// Shares of --seconds: closed-loop warm-up, closed loop and open loop.
constexpr double k_warm_up_share = 0.1;
constexpr double k_closed_share = 0.5;
constexpr double k_open_share = 0.36;

struct Shape {
  const char* name;
  bool remote;
  std::size_t shards;
  std::size_t chunk_samples;
  /// Offered window rate of the open-loop phase (windows/s, all sessions):
  /// about half of the closed-loop rate on a 4-core host.
  double open_loop_wps;
};

constexpr Shape k_local{"stream_local", false, 3, 256, 4000.0};
constexpr Shape k_wire{"stream_wire", true, 2, 32, 2000.0};

/// Everything a set-up builds: inputs from the seed, the fleet model, and
/// the serving stack ready for its first session.
struct Stack {
  esl::sim::CohortSimulator simulator;
  std::vector<SeizureRecord> records;
  std::shared_ptr<const esl::core::RealtimeDetector> fleet;
  std::unique_ptr<net::ShardServer> server;
  net::RemoteBackend* remote = nullptr;
  std::unique_ptr<engine::DetectionService> service;

  explicit Stack(std::uint64_t seed) : simulator(seed) {}
};

std::unique_ptr<Stack> set_up(const Options& options, const Shape& shape,
                              std::size_t attempt) {
  auto stack = std::make_unique<Stack>(options.seed);
  esl::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 17);
  stack->records =
      draw_seizure_records(stack->simulator, rng, k_records, k_record_s);
  stack->fleet = train_fleet_model(stack->simulator, rng);
  engine::ServiceConfig config;
  config.shards = shape.shards;
  std::unique_ptr<engine::ExecutionBackend> backend;
  if (shape.remote) {
    const std::string registry = options.workdir + "/registry";
    std::filesystem::create_directories(registry);
    const std::string socket =
        options.workdir + "/wire" + std::to_string(attempt) + ".sock";
    std::filesystem::remove(socket);
    net::ShardServerConfig server_config;
    server_config.address = esl::platform::SocketAddress::parse("unix:" + socket);
    server_config.service.shards = shape.shards;
    server_config.threaded_backend = true;
    server_config.registry_directory = registry;
    stack->server = std::make_unique<net::ShardServer>(stack->fleet, server_config);
    stack->server->start();
    auto remote = std::make_unique<net::RemoteBackend>(stack->server->address());
    stack->remote = remote.get();
    backend = std::move(remote);
  } else {
    engine::ThreadPoolConfig pool;
    pool.single_producer = true;  // one generator thread feeds every shard
    backend = std::make_unique<engine::ThreadPoolBackend>(pool);
  }
  stack->service = std::make_unique<engine::DetectionService>(
      stack->fleet, config, std::move(backend));
  return stack;
}

/// What the open-loop slices measured, summed over slices.
struct OpenLoopTotals {
  /// Window latencies (ms), one segment per slice.
  std::vector<std::vector<double>> latencies;
  std::vector<double> lags;
  std::uint64_t chunks = 0;
  std::uint64_t windows = 0;
  double phase_s = 0.0;
};

/// Generator-side state of one fleet slot: which record it streams from
/// where, and its current session handle.
struct Slot {
  std::size_t record = 0;
  std::size_t start = 0;  // first sample, a multiple of the chunk size
  engine::SessionHandle handle;
  std::int64_t round0 = 0;   // round of the current lifetime's first chunk
  std::uint64_t chunks = 0;  // chunks sent in the current lifetime
};

class Fleet {
 public:
  Fleet(const Shape& shape, Stack& stack, TimingSink& sink, Tracer& tracer,
        Result& result)
      : shape_(shape),
        stack_(stack),
        service_(*stack.service),
        sink_(sink),
        tracer_(tracer),
        result_(result),
        rounds_per_second_(k_hop_samples / shape.chunk_samples),
        span_create_(tracer.name("service.create_session")),
        span_close_(tracer.name("service.close_session")),
        span_ingest_(tracer.name("service.ingest")),
        span_ingest_closed_(tracer.name("service.ingest_closed_loop")),
        span_flush_(tracer.name("service.flush")) {}

  /// Open/close cycles on the idle service (the session-open sample), then
  /// the fleet itself.
  void open_fleet() {
    for (std::size_t i = 0; i < k_open_cycles; ++i) {
      const Clock::time_point t0 = Clock::now();
      const engine::SessionHandle handle = open(1'000'000 + i);
      open_ms_.push_back(ms_between(t0, Clock::now()));
      traced(tracer_, span_close_, [&] { service_.close_session(handle); });
      ++result_.attempted;
    }
    slots_.resize(k_sessions);
    for (std::size_t s = 0; s < k_sessions; ++s) {
      Slot& slot = slots_[s];
      slot.record = s % k_records;
      const std::size_t usable = usable_samples(slot.record);
      slot.start = (s * 37 * k_hop_samples) % usable;
      if (s % k_parity_stride == 5) {
        sink_.capture(static_cast<std::uint32_t>(s));
      } else {
        churnable_.push_back(s);
      }
      open_slot(s, 0);
    }
  }

  /// Closed loop for `seconds`, traced when `trace`; adds each whole
  /// segment to `segments`.
  void closed_loop(double seconds, bool trace, ClosedLoopSegments& segments) {
    tracer_.set_enabled(trace);
    sink_.reset_windows();
    const Clock::time_point start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    Clock::time_point mark = start;
    std::uint64_t mark_windows = 0;
    double mark_cpu_s = process_cpu_s();
    while (Clock::now() < end) {
      for (std::size_t s = 0; s < k_sessions; ++s) {
        send(s, round_, span_ingest_closed_);
      }
      end_round(round_++);
      const Clock::time_point now = Clock::now();
      if (now - mark >= k_segment) {
        const std::uint64_t windows = sink_.windows();
        const double cpu_s = process_cpu_s();
        segments.add(windows - mark_windows,
                     std::chrono::duration<double>(now - mark).count(), cpu_s - mark_cpu_s);
        mark_cpu_s = cpu_s;
        mark = now;
        mark_windows = windows;
      }
    }
    traced(tracer_, span_flush_, [&] { service_.flush(); });
  }

  /// Open loop for `seconds` at the shape's offered rate, traced when
  /// `trace`; adds its window latencies (ms, one segment), generator lags,
  /// chunks sent, windows delivered and duration to `totals`.
  void open_loop(double seconds, bool trace, OpenLoopTotals& totals) {
    tracer_.set_enabled(trace);
    traced(tracer_, span_flush_, [&] { service_.flush(); });
    sink_.reset_windows();
    const std::int64_t first = round_;
    const double chunk_rate =
        shape_.open_loop_wps * static_cast<double>(rounds_per_second_);
    const OpenLoopSchedule schedule(Clock::now() + std::chrono::milliseconds(2),
                                    chunk_rate);
    // The whole slice is one latency segment.
    sink_.start_latency(schedule, first, std::numeric_limits<std::uint64_t>::max());
    const std::uint64_t before = sent_;
    const std::vector<double> lags = run_open_loop(
        schedule, k_sessions, seconds,
        [&](std::size_t s, std::uint64_t round) {
          send(s, first + static_cast<std::int64_t>(round), span_ingest_);
        },
        [&](std::uint64_t round) {
          end_round(first + static_cast<std::int64_t>(round));
          round_ = first + static_cast<std::int64_t>(round) + 1;
        });
    traced(tracer_, span_flush_, [&] { service_.flush(); });
    totals.phase_s +=
        std::chrono::duration<double>(Clock::now() - schedule.start()).count();
    sink_.stop_latency();
    totals.chunks += sent_ - before;
    totals.windows += sink_.windows();
    for (std::vector<double>& segment : sink_.latency_segments()) {
      totals.latencies.push_back(std::move(segment));
    }
    totals.lags.insert(totals.lags.end(), lags.begin(), lags.end());
  }

  /// create_session latencies (ms) of the open/close cycles.
  const std::vector<double>& open_ms() const { return open_ms_; }

  /// Replays each sampled slot's chunks through one Engine and compares the
  /// detection streams window by window.
  void check_parity() {
    for (std::size_t s = 0; s < k_sessions; ++s) {
      if (s % k_parity_stride != 5) {
        continue;
      }
      const Slot& slot = slots_[s];
      engine::Engine reference(stack_.fleet);
      const std::uint64_t id = reference.add_session(engine::SessionConfig{});
      std::vector<engine::Detection> expected;
      for (std::uint64_t c = 0; c < slot.chunks; ++c) {
        reference.ingest(id, chunk(slot, c));
        reference.poll_into(expected);
      }
      const auto& got = sink_.captured(static_cast<std::uint32_t>(s));
      const bool same = same_detections(got, expected);
      if (!same) {
        result_.fail(std::string(shape_.name) + ": slot " + std::to_string(s) +
                     " detections differ from the single-Engine replay (" +
                     std::to_string(got.size()) + " vs " +
                     std::to_string(expected.size()) + " windows)");
      }
      result_.note("parity slot " + std::to_string(s) + ": " +
                   std::to_string(got.size()) + " windows " +
                   (same ? "match" : "DIFFER"));
    }
  }

 private:
  std::size_t usable_samples(std::size_t record) const {
    const std::size_t length = stack_.records[record].record.length_samples();
    return length - length % k_hop_samples;
  }

  std::vector<std::span<const Real>> chunk(const Slot& slot,
                                           std::uint64_t index) const {
    const std::size_t usable = usable_samples(slot.record);
    const std::size_t offset =
        (slot.start + index * shape_.chunk_samples) % usable;
    return chunk_views(stack_.records[slot.record].record, offset,
                       shape_.chunk_samples);
  }

  engine::SessionHandle open(std::uint64_t key) {
    ++result_.attempted;
    return traced(tracer_, span_create_, [&] {
      return service_.create_session(key, engine::SessionConfig{});
    });
  }

  /// Opens slot `s`'s next session. Its first chunk goes out `s` rounds
  /// into the stream-second that starts at `round`, so that sessions
  /// complete their windows in every round of a second, as wearables
  /// switched on at different moments do, not all in its last round.
  void open_slot(std::size_t s, std::int64_t round) {
    Slot& slot = slots_[s];
    slot.handle = open(next_key_++);
    slot.round0 = round + static_cast<std::int64_t>(s % rounds_per_second_);
    slot.chunks = 0;
    sink_.register_lifetime(slot.handle,
                            {static_cast<std::uint32_t>(s), slot.round0});
  }

  void send(std::size_t s, std::int64_t round, std::uint32_t span) {
    Slot& slot = slots_[s];
    if (round < slot.round0) {
      return;  // the session's first chunk is not due yet
    }
    const auto views = chunk(slot, static_cast<std::uint64_t>(round - slot.round0));
    traced(tracer_, span, [&] { service_.ingest(slot.handle, views); });
    ++slot.chunks;
    ++sent_;
    ++result_.attempted;
  }

  /// Stream-second boundary: flush when the backend only delivers at a
  /// flush, then churn a fixed share of sessions.
  void end_round(std::int64_t round) {
    if ((round + 1) % static_cast<std::int64_t>(rounds_per_second_) != 0) {
      return;
    }
    if (shape_.remote) {
      traced(tracer_, span_flush_, [&] { service_.flush(); });
    }
    for (std::size_t i = 0; i < k_churn_per_second; ++i) {
      const std::size_t s = churnable_[next_churn_++ % churnable_.size()];
      traced(tracer_, span_close_,
             [&] { service_.close_session(slots_[s].handle); });
      ++result_.attempted;
      open_slot(s, round + 1);
    }
  }

  const Shape& shape_;
  Stack& stack_;
  engine::DetectionService& service_;
  TimingSink& sink_;
  Tracer& tracer_;
  Result& result_;
  std::size_t rounds_per_second_;
  std::uint32_t span_create_, span_close_, span_ingest_, span_ingest_closed_,
      span_flush_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> churnable_;
  std::size_t next_churn_ = 0;
  std::uint64_t next_key_ = 0;
  std::int64_t round_ = 0;
  std::uint64_t sent_ = 0;
  std::vector<double> open_ms_;
};

/// Button presses on sessions that streamed 10 min around a seizure:
/// press -> Algorithm 1 + retrain -> compile -> deploy. In-process the
/// session's own history ring and pipeline serve the press; over the wire
/// the client labels the history it sent and deploys through the server's
/// model registry. Presses `first` .. `first + k_presses_per_group - 1`,
/// appending press-to-serving latencies (ms).
void press_buttons(const Options& options, const Shape& shape, Stack& stack,
                   Tracer& tracer, std::size_t first, std::vector<double>& latencies,
                   Result& result) {
  engine::DetectionService& service = *stack.service;
  const std::uint32_t span_trigger = tracer.name("core.patient_trigger");
  const std::uint32_t span_compile = tracer.name("ml.compile");
  const std::uint32_t span_swap = tracer.name("engine.swap_model");
  const std::uint32_t span_press = tracer.name("bench.trigger");
  const std::size_t history = static_cast<std::size_t>(k_trigger_history_s) * k_sample_rate;
  for (std::size_t k = first; k < first + k_presses_per_group; ++k) {
    const SeizureRecord& drawn = stack.records[k % stack.records.size()];
    const std::size_t length = drawn.record.length_samples();
    // Presses on the same record see its seizure at different places.
    const double centre_s = drawn.seizure.onset + 60.0 * static_cast<double>(k / stack.records.size());
    const double centre = centre_s * k_sample_rate;
    std::size_t start =
        centre > history / 2.0 ? static_cast<std::size_t>(centre) - history / 2 : 0;
    start = std::min(start, length - history);
    start -= start % shape.chunk_samples;
    engine::SessionConfig config;
    config.history_seconds = shape.remote ? 0.0 : k_trigger_history_s;
    const engine::SessionHandle handle =
        service.create_session(5'000'000 + k, config);
    esl::core::SelfLearningConfig learning;
    learning.average_seizure_duration_s =
        stack.simulator.average_seizure_duration(drawn.patient);
    if (!shape.remote) {
      service.attach_self_learning(handle, learning);
    }
    for (std::size_t offset = 0; offset < history; offset += shape.chunk_samples) {
      service.ingest(handle, chunk_views(drawn.record, start + offset,
                                         shape.chunk_samples));
      ++result.attempted;
    }
    service.flush();
    // The client's copy of what it streamed (not timed: it already holds it).
    const esl::signal::EegRecord sent =
        shape.remote ? slice_record(drawn.record, start, history)
                     : esl::signal::EegRecord(k_sample_rate);

    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<const esl::ml::InferenceModel> deployed;
    if (shape.remote) {
      esl::core::SelfLearningPipeline pipeline(learning);
      traced(tracer, span_trigger, [&] { pipeline.on_patient_trigger(sent); });
      const auto compiled =
          traced(tracer, span_compile, [&] { return pipeline.detector().compile(); });
      const std::string key = "patient" + std::to_string(k);
      traced(tracer, span_swap, [&] {
        esl::ml::save_artifact(options.workdir + "/registry/" + key + ".eslm",
                               *compiled);
        stack.remote->remote_swap_model(handle, key);
      });
    } else {
      traced(tracer, span_trigger, [&] { service.patient_trigger(handle); });
      deployed = compile_and_swap(service, handle, tracer, span_compile, span_swap);
    }
    const Clock::time_point t1 = Clock::now();
    tracer.record(span_press, t0, t1);
    latencies.push_back(ms_between(t0, t1));
    ++result.attempted;
    if (!shape.remote && service.session_model(handle) != deployed) {
      result.fail(std::string(shape.name) + ": retrained model not serving");
    }
    service.close_session(handle);
    ++result.attempted;
  }
}

}  // namespace

void run_stream(const Options& options, bool remote, Result& result) {
  const Shape& shape = remote ? k_wire : k_local;
  std::filesystem::create_directories(options.workdir);

  // Set up three times; the median is setup_s and the last stack runs.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (std::size_t attempt = 0; attempt < 3; ++attempt) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = set_up(options, shape, attempt);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  Tracer tracer(options.trace);
  TimingSink sink(shape.shards, k_sessions, shape.chunk_samples);
  stack->service->set_detection_sink(&sink);
  Fleet fleet(shape, *stack, sink, tracer, result);

  fleet.open_fleet();
  std::vector<double> triggers;
  press_buttons(options, shape, *stack, tracer, 0, triggers, result);
  ClosedLoopSegments warm_up;
  fleet.closed_loop(k_warm_up_share * options.seconds, false, warm_up);
  // Closed- and open-loop slices alternate. A traced run alternates
  // untraced and traced closed slices: the difference of their median
  // window rates is the tracing cost.
  ClosedLoopSegments closed[2];
  OpenLoopTotals open;
  for (int slice = 0; slice < k_slices; ++slice) {
    const int traced_slice = options.trace && slice % 2 == 1 ? 1 : 0;
    fleet.closed_loop(k_closed_share * options.seconds / k_slices, traced_slice == 1,
                      closed[traced_slice]);
    fleet.open_loop(k_open_share * options.seconds / k_slices, options.trace, open);
    if (slice + 1 == k_slices / 2) {
      press_buttons(options, shape, *stack, tracer, k_presses_per_group, triggers, result);
    }
  }
  press_buttons(options, shape, *stack, tracer, 2 * k_presses_per_group, triggers, result);
  fleet.check_parity();
  const ClosedLoopSegments& measured = closed[options.trace ? 1 : 0];
  std::vector<double> rates = measured.windows_per_s;
  const double windows_per_s = percentile(rates, 50.0);
  if (options.trace) {
    const double untraced = percentile(closed[0].windows_per_s, 50.0);
    result.layer("bench.trace_overhead_pct",
                 100.0 * (untraced - windows_per_s) / untraced, "%");
  }

  const esl::engine::EngineStats stats =
      remote ? stack->remote->remote_stats() : stack->service->stats();
  stack->service->stop();
  if (stack->server != nullptr) {
    stack->server->stop();
  }

  const double sent_rate = static_cast<double>(open.chunks) / open.phase_s /
                           static_cast<double>(k_hop_samples / shape.chunk_samples);
  char line[256];
  std::snprintf(line, sizeof line,
                "open loop: offered %.0f windows/s, sent %.0f, delivered %.0f "
                "(session restarts deliver fewer windows than offered hops)",
                shape.open_loop_wps, sent_rate,
                static_cast<double>(open.windows) / open.phase_s);
  result.note(line);
  if (sent_rate < 0.95 * shape.open_loop_wps) {
    result.note("warning: the generator fell behind the offered rate "
                "(see bench.generator_lag_p99_ms)");
  }

  report_end_to_end(options, measured, summarize_segments(open.latencies),
                    summarize(fleet.open_ms()), summarize(triggers), setups, result);

  if (options.trace) {
    record_live_layers(tracer, open.lags, open.phase_s, open.chunks, open.windows, stats,
                       windows_per_s, shape.shards, result);
    LayerInputs inputs;
    for (const SeizureRecord& drawn : stack->records) {
      inputs.records.push_back(&drawn.record);
    }
    inputs.chunk_samples = shape.chunk_samples;
    inputs.wire = shape.remote;
    inputs.model = stack->fleet->model();
    inputs.history_seconds = k_trigger_history_s;
    inputs.average_seizure_duration_s =
        stack->simulator.average_seizure_duration(stack->records[0].patient);
    inputs.seizure = stack->records[0].seizure;
    inputs.rows_per_batch = stats.batches == 0
                                ? 1.0
                                : static_cast<double>(stats.forest_windows) /
                                      static_cast<double>(stats.batches);
    inputs.workdir = options.workdir;
    replay_layers(inputs, tracer, windows_per_s, shape.shards, result);
    write_spans(tracer, options.workdir + "/spans-" + shape.name + "-" +
                            std::to_string(options.seed) + ".csv");
  }
}

}  // namespace perfbench

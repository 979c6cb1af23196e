#include "layers.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/statistics.hpp"
#include "core/aposteriori.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"
#include "entropy/permutation_entropy.hpp"
#include "entropy/sample_entropy.hpp"
#include "features/eglass_features.hpp"
#include "features/paper_features.hpp"
#include "ml/dataset.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"
#include "net/wire.hpp"

namespace perfbench {
namespace {

namespace engine = esl::engine;
namespace net = esl::net;
using esl::Matrix;
using esl::RealVector;

constexpr std::size_t k_replay_windows = 1500;
constexpr std::size_t k_replay_poll_rounds = 200;
constexpr std::size_t k_replay_net_sessions = 32;
constexpr std::size_t k_replay_net_seconds = 64;

double p50(std::vector<double> values) { return summarize(std::move(values)).p50; }

template <typename F>
double time_us(F&& call) {
  const Clock::time_point t0 = Clock::now();
  call();
  return us_between(t0, Clock::now());
}

/// The calls e-Glass makes from common/statistics for one channel-window.
double time_domain_stats(std::span<const Real> x, esl::dsp::Workspace& ws) {
  namespace stats = esl::stats;
  Real sink = stats::mean(x) + stats::variance(x) + stats::skewness(x) +
              stats::kurtosis_excess(x) + stats::rms(x) + stats::line_length(x) +
              static_cast<Real>(stats::zero_crossings(x));
  const stats::Hjorth hjorth =
      stats::hjorth_parameters(x, ws.derivative_a, ws.derivative_b);
  sink += hjorth.mobility + hjorth.complexity + stats::max(x) - stats::min(x);
  ws.sorted.assign(x.begin(), x.end());
  std::sort(ws.sorted.begin(), ws.sorted.end());
  sink += stats::quantile_from_sorted(ws.sorted, 0.75) -
          stats::quantile_from_sorted(ws.sorted, 0.25);
  return sink;
}

/// Window views (2 channels x 4 s) cycling over the workload's records.
std::vector<std::vector<std::span<const Real>>> replay_windows(
    const LayerInputs& inputs) {
  std::vector<std::vector<std::span<const Real>>> windows;
  std::size_t record = 0;
  std::size_t offset = 0;
  while (windows.size() < k_replay_windows) {
    const esl::signal::EegRecord& r = *inputs.records[record];
    if (offset + k_window_samples > r.length_samples()) {
      record = (record + 1) % inputs.records.size();
      offset = 0;
      continue;
    }
    windows.push_back(chunk_views(r, offset, k_window_samples));
    offset += k_hop_samples;
  }
  return windows;
}

/// Feature, DSP, statistics and entropy calls per window.
Matrix replay_features(const LayerInputs& inputs, Result& result) {
  const auto windows = replay_windows(inputs);
  const esl::features::EglassFeatureExtractor eglass(2);
  const esl::features::PaperFeatureExtractor paper;
  const esl::dsp::Wavelet db4 = esl::dsp::Wavelet::daubechies(4);
  esl::dsp::Workspace ws;
  esl::dsp::WaveletDecomposition dec;
  RealVector row;
  Matrix rows;
  std::vector<double> eglass_us, paper_us, periodogram_us, wavedec_us,
      stats_us, permutation_us, sample_us;
  volatile Real sink = 0.0;
  for (const auto& window : windows) {
    row.clear();
    eglass_us.push_back(time_us([&] { eglass.extract_into(window, k_sample_rate, row, ws); }));
    rows.append_row(row);
    row.clear();
    paper_us.push_back(time_us([&] { paper.extract_into(window, k_sample_rate, row, ws); }));
    for (const std::span<const Real> x : window) {
      periodogram_us.push_back(time_us([&] {
        esl::dsp::periodogram_into(x, k_sample_rate, ws, ws.psd);
      }));
      wavedec_us.push_back(time_us([&] {
        esl::dsp::wavedec_into(x, db4, 7, ws, dec);
      }));
      stats_us.push_back(time_us([&] { sink = sink + time_domain_stats(x, ws); }));
    }
    // Paper features run the entropies on DWT details of one channel.
    const RealVector& level6 = dec.detail_at_level(6);
    permutation_us.push_back(time_us([&] {
      sink = sink + esl::entropy::permutation_entropy(level6, 7, 1, ws.counts);
    }));
    sample_us.push_back(time_us([&] {
      sink = sink + esl::entropy::sample_entropy_relative(level6, 2, 0.2);
    }));
  }
  result.timing(result.per_layer, "features.eglass_extract", "_us", summarize(eglass_us), "us", &result.per_layer);
  result.layer("dsp.periodogram_us", p50(periodogram_us), "us");
  result.layer("dsp.wavedec_us", p50(wavedec_us), "us");
  result.layer("stats.time_domain_us", p50(stats_us), "us");
  result.layer("features.paper_extract_us", p50(paper_us), "us");
  result.layer("entropy.permutation_us", p50(permutation_us), "us");
  result.layer("entropy.sample_us", p50(sample_us), "us");
  return rows;
}

/// PatientSession ingest per window, and what the history ring adds.
double replay_session(const LayerInputs& inputs, Result& result) {
  const esl::features::EglassFeatureExtractor extractor(2);
  const esl::signal::EegRecord& record = *inputs.records[0];
  const std::size_t seconds = 600;
  // One sample per window: the ingest time of the chunks that completed it.
  auto per_window = [&](double history_seconds, std::vector<double>& out) {
    engine::SessionConfig config;
    config.history_seconds = history_seconds;
    engine::PatientSession session(0, extractor, config);
    double pending_us = 0.0;
    for (std::size_t offset = 0; offset + inputs.chunk_samples <= seconds * k_sample_rate;
         offset += inputs.chunk_samples) {
      std::size_t windows = 0;
      pending_us += time_us([&] {
        windows = session.ingest(chunk_views(record, offset, inputs.chunk_samples));
      });
      session.clear_pending();
      if (windows > 0) {
        out.push_back(pending_us / static_cast<double>(windows));
        pending_us = 0.0;
      }
    }
  };
  // Alternate the two configurations so host drift hits both alike, and
  // compare medians: the ring's cost is small beside extraction.
  std::vector<double> without, with;
  for (int pass = 0; pass < 3; ++pass) {
    per_window(0.0, without);
    per_window(inputs.history_seconds, with);
  }
  const double base = p50(without);
  result.layer("session.ingest_us_per_window", base, "us");
  result.layer("session.history_us_per_window", p50(with) - base, "us");
  return base;
}

/// Engine poll at the live batch size, and the model's per-row cost.
double replay_engine(const LayerInputs& inputs, const Matrix& rows, Result& result) {
  const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(inputs.rows_per_batch)));
  engine::Engine eng(std::make_shared<esl::core::RealtimeDetector>());
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < batch; ++s) {
    ids.push_back(eng.add_session());
    eng.swap_model(ids.back(), inputs.model);
  }
  const esl::signal::EegRecord& record = *inputs.records[0];
  std::vector<engine::Detection> out;
  std::vector<double> poll_us;
  for (std::size_t round = 0; round < k_replay_poll_rounds + 3; ++round) {
    const std::size_t offset = (round * k_hop_samples) %
                               (record.length_samples() - k_hop_samples);
    for (const std::uint64_t id : ids) {
      eng.ingest(id, chunk_views(record, offset, k_hop_samples));
    }
    out.clear();
    const double us = time_us([&] { eng.poll_into(out); });
    if (round >= 3) {  // the first three chunks complete no window
      poll_us.push_back(us);
    }
  }
  const double poll = p50(poll_us);
  result.layer("engine.poll_p50_us", poll, "us");

  Matrix scratch;
  RealVector proba;
  std::vector<int> labels;
  std::vector<double> per_row;
  for (std::size_t rep = 0; rep < 400; ++rep) {
    scratch.clear_rows();
    for (std::size_t r = 0; r < batch; ++r) {
      scratch.append_row(rows.row((rep * batch + r) % rows.rows()));
    }
    per_row.push_back(time_us([&] { inputs.model->predict_into(scratch, proba, labels); }) /
                      static_cast<double>(batch));
  }
  result.layer("ml.predict_us_per_row", p50(per_row), "us");
  return poll / static_cast<double>(batch);
}

/// The stages of one button press on a history-length record.
double replay_trigger(const LayerInputs& inputs, const Tracer& tracer, Result& result) {
  const esl::features::EglassFeatureExtractor extractor(2);
  const esl::signal::EegRecord& source = *inputs.records[0];
  const auto history = static_cast<std::size_t>(inputs.history_seconds) * k_sample_rate;
  const double onset = inputs.seizure.onset * k_sample_rate;
  std::size_t start = onset > history / 2.0 ? static_cast<std::size_t>(onset) - history / 2 : 0;
  start = std::min(start, source.length_samples() - std::min(history, source.length_samples()));
  start -= start % k_hop_samples;
  const std::size_t samples = std::min(history, source.length_samples() - start);

  std::vector<double> record_ms, paper_ms, label_ms, dataset_ms, fit_ms, compile_ms;
  for (int rep = 0; rep < 2; ++rep) {
    engine::SessionConfig config;
    config.history_seconds = inputs.history_seconds;
    engine::PatientSession session(0, extractor, config);
    for (std::size_t offset = 0; offset + k_hop_samples <= samples; offset += k_hop_samples) {
      session.ingest(chunk_views(source, start + offset, k_hop_samples));
      session.clear_pending();
    }
    esl::signal::EegRecord record(k_sample_rate);
    record_ms.push_back(time_us([&] { record = session.history_record(); }) / 1000.0);
    const esl::features::PaperFeatureExtractor paper;
    esl::features::WindowedFeatures windowed;
    paper_ms.push_back(time_us([&] {
      windowed = esl::features::extract_windowed_features(record, paper);
    }) / 1000.0);
    const esl::core::APosterioriDetector labeler;
    esl::signal::Interval label{};
    label_ms.push_back(time_us([&] {
      label = labeler.label(windowed, inputs.average_seizure_duration_s);
    }) / 1000.0);
    esl::ml::Dataset data;
    dataset_ms.push_back(time_us([&] {
      data = esl::core::build_window_dataset(record, {label});
    }) / 1000.0);
    esl::Rng rng(7);
    const esl::ml::Dataset balanced = esl::ml::balance_classes(data, rng);
    esl::core::RealtimeDetector detector;
    fit_ms.push_back(time_us([&] { detector.fit(balanced, 7); }) / 1000.0);
    compile_ms.push_back(time_us([&] { (void)detector.compile(); }) / 1000.0);
  }
  const double swap_us = p50(tracer.durations_us("engine.swap_model"));
  result.layer("core.history_record_ms", p50(record_ms), "ms");
  result.layer("features.paper_windowed_ms", p50(paper_ms), "ms");
  result.layer("core.label_ms", p50(label_ms), "ms");
  result.layer("core.build_dataset_ms", p50(dataset_ms), "ms");
  result.layer("ml.fit_ms", p50(fit_ms), "ms");
  result.layer("ml.compile_ms", p50(compile_ms), "ms");
  return p50(record_ms) + p50(paper_ms) + p50(label_ms) + p50(dataset_ms) +
         p50(fit_ms) + p50(compile_ms) + swap_us / 1000.0;
}

/// Wire codec and a loopback conversation with a ShardServer.
double replay_net(const LayerInputs& inputs, const std::shared_ptr<const esl::core::RealtimeDetector>& fleet,
                  Result& result) {
  const esl::signal::EegRecord& record = *inputs.records[0];
  const std::size_t chunks_per_window = k_hop_samples / inputs.chunk_samples;
  std::vector<std::byte> frame;
  std::vector<double> encode_us, parse_us;
  std::size_t frame_bytes = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto views = chunk_views(record, (i * inputs.chunk_samples) %
                                               (record.length_samples() - inputs.chunk_samples),
                                   inputs.chunk_samples);
    frame.clear();
    encode_us.push_back(time_us([&] { net::encode_chunk(frame, 1, i, views); }));
    frame_bytes = frame.size();
    parse_us.push_back(time_us([&] {
      const net::FrameView view = net::parse_frame(frame);
      (void)net::decode_chunk(view);
    }));
  }
  result.layer("net.encode_chunk_us", p50(encode_us), "us");
  result.layer("net.parse_frame_us", p50(parse_us), "us");
  result.layer("net.bytes_per_window", static_cast<double>(frame_bytes * chunks_per_window), "B");

  const std::string socket = inputs.workdir + "/replay.sock";
  std::filesystem::remove(socket);
  net::ShardServerConfig config;
  config.address = esl::platform::SocketAddress::parse("unix:" + socket);
  config.service.shards = 2;
  config.threaded_backend = true;
  net::ShardServer server(fleet, config);
  server.start();
  net::ShardClient client;
  client.connect(server.address());
  std::vector<double> open_ms, ingest_us, flush_ms, close_ms;
  for (std::size_t s = 0; s < k_replay_net_sessions; ++s) {
    open_ms.push_back(time_us([&] { client.open_session(s, s, engine::SessionConfig{}); }) / 1000.0);
  }
  std::vector<engine::Detection> detections;
  for (std::size_t round = 0; round < k_replay_net_seconds * chunks_per_window; ++round) {
    for (std::size_t s = 0; s < k_replay_net_sessions; ++s) {
      const std::size_t offset = (s * 37 * k_hop_samples + round * inputs.chunk_samples) %
                                 (record.length_samples() - inputs.chunk_samples);
      const auto views = chunk_views(record, offset, inputs.chunk_samples);
      ingest_us.push_back(time_us([&] { client.ingest(s, views); }));
    }
    if ((round + 1) % chunks_per_window == 0) {
      detections.clear();
      flush_ms.push_back(time_us([&] { client.flush(detections); }) / 1000.0);
    }
  }
  for (std::size_t s = 0; s < k_replay_net_sessions; ++s) {
    close_ms.push_back(time_us([&] { client.close_session(s); }) / 1000.0);
  }
  client.close();
  server.stop();
  result.timing(result.per_layer, "net.ingest_call", "_us", summarize(ingest_us), "us", &result.per_layer);
  result.timing(result.per_layer, "net.flush_rtt", "_ms", summarize(flush_ms), "ms", &result.per_layer);
  result.layer("net.open_rtt_ms", p50(open_ms), "ms");
  result.layer("net.close_rtt_ms", p50(close_ms), "ms");
  return (p50(encode_us) + p50(parse_us)) * static_cast<double>(chunks_per_window);
}

}  // namespace

void record_live_layers(const Tracer& tracer, std::vector<double> lags_ms,
                        double open_phase_s, std::uint64_t chunks,
                        std::uint64_t windows,
                        const engine::EngineStats& stats,
                        double windows_per_s, std::size_t workers,
                        Result& result) {
  const std::vector<double> ingest = tracer.durations_us("service.ingest");
  double blocked_us = 0.0;
  for (const double us : ingest) {
    blocked_us += us;
  }
  result.timing(result.per_layer, "service.ingest_call", "_us", summarize(ingest), "us", &result.per_layer);
  result.layer("service.ingest_stall_share", blocked_us / (open_phase_s * 1e6), "share");
  std::vector<double> flush_ms = tracer.durations_us("service.flush");
  for (double& v : flush_ms) {
    v /= 1000.0;
  }
  result.timing(result.per_layer, "service.flush", "_ms", summarize(flush_ms), "ms", &result.per_layer);
  result.layer("service.create_session_us", p50(tracer.durations_us("service.create_session")), "us");
  result.layer("queue.pushes_per_window",
               windows == 0 ? 0.0 : static_cast<double>(chunks) / static_cast<double>(windows),
               "count");
  result.layer("engine.rows_per_batch",
               stats.batches == 0 ? 0.0
                                  : static_cast<double>(stats.forest_windows) /
                                        static_cast<double>(stats.batches),
               "count");
  result.layer("engine.swap_model_us", p50(tracer.durations_us("engine.swap_model")), "us");
  const Summary lag = summarize(std::move(lags_ms));
  result.layer("bench.generator_lag_p99_ms", lag.tail, "ms");
  result.layer("bench.e2e_worker_us_per_window",
               static_cast<double>(workers) * 1e6 / windows_per_s, "us");
}

void replay_layers(const LayerInputs& inputs, const Tracer& tracer,
                   double windows_per_s, std::size_t workers, Result& result) {
  const Matrix rows = replay_features(inputs, result);
  const double session_us = replay_session(inputs, result);
  const double poll_per_window_us = replay_engine(inputs, rows, result);
  const double trigger_ms = replay_trigger(inputs, tracer, result);
  // A cold fleet detector for the loopback server: the replay times the
  // transport, so the model it serves does not matter.
  auto fleet = std::make_shared<esl::core::RealtimeDetector>();
  const double wire_us = replay_net(inputs, fleet, result);

  const double stage_sum = session_us + poll_per_window_us + (inputs.wire ? wire_us : 0.0);
  const double e2e = static_cast<double>(workers) * 1e6 / windows_per_s;
  result.layer("bench.stage_sum_us_per_window", stage_sum, "us");
  const double trigger_e2e = p50(tracer.durations_us("bench.trigger")) / 1000.0;
  result.layer("bench.trigger_stage_sum_ms", trigger_ms, "ms");
  result.layer("bench.trigger_e2e_ms", trigger_e2e, "ms");
  char line[320];
  std::snprintf(line, sizeof line,
                "stage sum per window %.1f us (session ingest %.1f + poll %.2f%s) "
                "beside end-to-end %.1f worker-us per window (%zu workers)",
                stage_sum, session_us, poll_per_window_us,
                inputs.wire ? (" + wire codec " + std::to_string(wire_us)).c_str() : "",
                e2e, workers);
  result.note(line);
  std::snprintf(line, sizeof line,
                "trigger stage sum %.1f ms beside end-to-end press-to-serving %.1f ms",
                trigger_ms, trigger_e2e);
  result.note(line);
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "name,start_us,end_us\n";
  if (tracer.spans().empty()) {
    return;
  }
  const Clock::time_point origin = tracer.spans().front().start;
  for (const Tracer::Span& span : tracer.spans()) {
    out << tracer.names()[span.name] << ',' << us_between(origin, span.start)
        << ',' << us_between(origin, span.end) << '\n';
  }
}

}  // namespace perfbench

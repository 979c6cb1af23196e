#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>

#include "ml/dataset.hpp"

namespace perfbench {

namespace engine = esl::engine;

void Result::timing(std::vector<Metric>& into, const std::string& prefix,
                    const std::string& suffix, const Summary& s,
                    const std::string& unit, std::vector<Metric>* tail_into) {
  into.push_back({prefix + "_p50" + suffix, s.p50, unit});
  if (tail_into != nullptr) {
    tail_into->push_back({prefix + "_p99" + suffix, s.tail, unit});
  }
  char line[320];
  if (tail_into == nullptr && s.n < 1000) {
    std::snprintf(line, sizeof line, "%s%s: p50 %.4g %s (n=%zu)", prefix.c_str(),
                  suffix.c_str(), s.p50, unit.c_str(), s.n);
    note(line);
    return;
  }
  std::snprintf(line, sizeof line,
                "%s%s: p50 %.4g, p%g %.4g %s (n=%zu%s%s)%s", prefix.c_str(),
                suffix.c_str(), s.p50, s.tail_pct, s.tail, unit.c_str(), s.n,
                s.segments > 1 ? ", medians over segments: " : "",
                s.segments > 1 ? std::to_string(s.segments).c_str() : "",
                s.tail_supported ? ""
                                 : " [too few samples for p99: the p99 metric "
                                   "holds this lower percentile]");
  note(line);
}

std::vector<std::span<const Real>> chunk_views(
    const esl::signal::EegRecord& record, std::size_t offset,
    std::size_t count) {
  std::vector<std::span<const Real>> views;
  views.reserve(record.channel_count());
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(std::span<const Real>(record.channel(c).samples)
                        .subspan(offset, count));
  }
  return views;
}

esl::signal::EegRecord slice_record(const esl::signal::EegRecord& record,
                                    std::size_t offset, std::size_t count) {
  esl::signal::EegRecord out(record.sample_rate_hz(), record.id());
  for (const esl::signal::Channel& channel : record.channels()) {
    out.add_channel(channel.electrodes,
                    esl::RealVector(channel.samples.begin() + offset,
                                    channel.samples.begin() + offset + count));
  }
  return out;
}

std::vector<SeizureRecord> draw_seizure_records(
    const esl::sim::CohortSimulator& simulator, esl::Rng& rng,
    std::size_t count, double duration_s) {
  std::vector<SeizureRecord> out;
  const auto& events = simulator.events();
  for (std::size_t i = 0; i < count; ++i) {
    const esl::sim::SeizureEvent& event =
        events[rng.uniform_index(events.size())];
    SeizureRecord drawn{event.patient_index,
                        simulator.synthesize_sample(event, rng.next_u64(),
                                                    duration_s, duration_s),
                        {}};
    drawn.seizure = drawn.record.seizures().front();
    out.push_back(std::move(drawn));
  }
  return out;
}

std::shared_ptr<const esl::core::RealtimeDetector> train_fleet_model(
    const esl::sim::CohortSimulator& simulator, esl::Rng& rng) {
  const auto& events = simulator.events();
  const esl::signal::EegRecord train = simulator.synthesize_sample(
      events[rng.uniform_index(events.size())], rng.next_u64(), 1800.0,
      1800.0);
  const esl::ml::Dataset data =
      esl::core::build_window_dataset(train, train.seizures());
  esl::Rng balance(rng.next_u64());
  auto detector = std::make_shared<esl::core::RealtimeDetector>();
  detector->fit(esl::ml::balance_classes(data, balance), rng.next_u64());
  return detector;
}

// ------------------------------------------------------------ TimingSink

/// Session handles per shard the lifetime table can address; the
/// generator stops opening sessions before it runs out.
constexpr std::size_t k_lifetimes_per_shard = 1 << 16;

TimingSink::TimingSink(std::size_t shards, std::size_t slots,
                       std::size_t chunk_samples)
    : slots_(slots),
      chunk_samples_(chunk_samples),
      shards_(shards),
      captured_(slots, 0),
      detections_(slots) {
  for (ShardState& shard : shards_) {
    shard.lifetimes.resize(k_lifetimes_per_shard);
    shard.latencies.reserve(1 << 18);
  }
}

void TimingSink::register_lifetime(engine::SessionHandle handle,
                                   Lifetime lifetime) {
  std::vector<Lifetime>& table = shards_.at(handle.shard()).lifetimes;
  if (handle.local_id() >= table.size()) {
    throw std::runtime_error("TimingSink: lifetime table exhausted");
  }
  table[handle.local_id()] = lifetime;
}

void TimingSink::start_latency(const OpenLoopSchedule& schedule,
                               std::int64_t first_round,
                               std::uint64_t events_per_segment) {
  for (ShardState& shard : shards_) {
    shard.latencies.clear();
  }
  schedule_ = schedule;
  first_round_ = first_round;
  events_per_segment_ = std::max<std::uint64_t>(1, events_per_segment);
  timing_ = true;
}

std::uint64_t TimingSink::windows() const {
  std::uint64_t total = 0;
  for (const ShardState& shard : shards_) {
    total += shard.windows.load(std::memory_order_relaxed);
  }
  return total;
}

void TimingSink::reset_windows() {
  for (ShardState& shard : shards_) {
    shard.windows.store(0, std::memory_order_relaxed);
  }
}

std::vector<std::vector<double>> TimingSink::latency_segments() const {
  std::vector<std::vector<double>> out;
  for (const ShardState& shard : shards_) {
    for (const auto& [segment, ms] : shard.latencies) {
      if (segment >= out.size()) {
        out.resize(segment + 1);
      }
      out[segment].push_back(ms);
    }
  }
  return out;
}

void TimingSink::on_detections(
    std::span<const engine::Detection> detections) {
  const Clock::time_point now = Clock::now();
  for (const engine::Detection& d : detections) {
    const engine::SessionHandle handle{d.session_id};
    ShardState& shard = shards_[handle.shard()];
    shard.windows.fetch_add(1, std::memory_order_relaxed);
    const Lifetime& life = shard.lifetimes[handle.local_id()];
    if (captured_[life.slot] != 0) {
      detections_[life.slot].push_back(d);
    }
    if (!timing_) {
      continue;
    }
    // The chunk holding the window's last sample completed it.
    const auto chunk = static_cast<std::int64_t>(
        (d.window_index * k_hop_samples + k_window_samples - 1) /
        chunk_samples_);
    const std::int64_t round = life.round0 + chunk;
    if (round < first_round_) {
      continue;  // completed during an earlier phase
    }
    const auto event = static_cast<std::uint64_t>(round - first_round_) *
                           slots_ +
                       life.slot;
    shard.latencies.emplace_back(
        static_cast<std::uint32_t>(event / events_per_segment_),
        ms_between(schedule_.due(event), now));
  }
}

void report_end_to_end(const Options& options, ClosedLoopSegments closed,
                       const Summary& window_latency, const Summary& session_open,
                       const Summary& trigger_latency, std::vector<double> setups_s,
                       Result& result) {
  std::vector<Metric>* tails = options.trace ? &result.per_layer : nullptr;
  std::vector<double>& cpu = closed.cpu_us_per_window;
  std::vector<double>& rates = closed.windows_per_s;
  const double cpu_us = percentile(cpu, 50.0);
  const double windows_per_s = percentile(rates, 50.0);
  char closed_line[200];
  std::snprintf(closed_line, sizeof closed_line,
                "closed loop (n=%zu segments): windows_per_s p25 %.4g p50 %.4g p75 %.4g; "
                "cpu_us_per_window p25 %.4g p50 %.4g p75 %.4g",
                rates.size(), percentile(rates, 25.0), windows_per_s, percentile(rates, 75.0),
                percentile(cpu, 25.0), cpu_us, percentile(cpu, 75.0));
  result.note(closed_line);
  result.e2e("windows_per_s", windows_per_s, "1/s");
  if (options.trace) {
    result.layer("bench.cpu_us_per_window", cpu_us, "us");
  }
  result.timing(result.end_to_end, "window_latency", "_ms", window_latency, "ms", tails);
  std::vector<Metric> opens;
  result.timing(opens, "session_open", "_ms", session_open, "ms", &opens);
  if (options.trace) {
    result.per_layer.insert(result.per_layer.end(), opens.begin(), opens.end());
  }
  std::vector<Metric> printed_only;
  result.timing(printed_only, "trigger_latency", "_ms", trigger_latency, "ms", nullptr);
  const std::size_t setups = setups_s.size();
  const double setup_s = percentile(setups_s, 50.0);
  result.e2e("setup_s", setup_s, "s");
  char line[128];
  std::snprintf(line, sizeof line, "setup_s: median of %zu set-ups %.4g s", setups, setup_s);
  result.note(line);
}

bool same_detections(const std::vector<engine::Detection>& a,
                     const std::vector<engine::Detection>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].window_index != b[i].window_index || a[i].label != b[i].label ||
        a[i].alarm != b[i].alarm || a[i].screened_out != b[i].screened_out ||
        a[i].window_start_s != b[i].window_start_s) {
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

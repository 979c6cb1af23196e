// Timing helpers shared by every workload: the percentile rule, open-loop
// scheduling from due times, and in-memory spans.
//
// Percentile rule: a timing is reported as its median plus the highest
// percentile of a fixed ladder that still has at least ten samples beyond
// it, together with the sample count. A "p99" therefore needs at least
// 1000 samples; with fewer the rule falls back to p95, p90, ... and says so.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// CPU time (seconds) consumed so far by every thread of this process.
/// Time the host takes from a virtual CPU (steal) is not counted, so CPU
/// per unit of work varies far less between runs than wall time does.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Samples needed beyond a reported percentile.
inline constexpr std::size_t k_tail_samples = 10;

/// The highest percentile in {99.9, 99.5, 99, 95, 90, 75, 50} with at least
/// k_tail_samples samples beyond it among `n`; 0 when not even the median
/// qualifies.
inline double tail_percentile(std::size_t n) {
  for (const double pct : {99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Integer arithmetic on per-mille units keeps 99.9 exact.
    const auto per_mille = static_cast<std::size_t>(std::lround(pct * 10.0));
    if (n * (1000 - per_mille) >= k_tail_samples * 1000) {
      return pct;
    }
  }
  return 0.0;
}

/// Nearest-rank percentile of `values` (sorted in place). 0 when empty.
inline double percentile(std::vector<double>& values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Median and tail of one timing distribution.
struct Summary {
  std::size_t n = 0;
  /// Segments the figures are medians over (1: the whole sample).
  std::size_t segments = 1;
  double p50 = 0.0;
  /// The requested tail percentile, or the highest one the sample count
  /// supports when that is lower (see tail_percentile).
  double tail_pct = 0.0;
  double tail = 0.0;
  /// False when the sample count could not support the requested tail.
  bool tail_supported = false;
};

inline Summary summarize(std::vector<double> values, double want_pct = 99.0) {
  Summary s;
  s.n = values.size();
  s.p50 = percentile(values, 50.0);
  const double supported = tail_percentile(s.n);
  s.tail_supported = supported >= want_pct;
  s.tail_pct = std::min(want_pct, supported);
  s.tail = s.tail_pct > 0.0 ? percentile(values, s.tail_pct) : s.p50;
  return s;
}

/// A run cut into consecutive segments (by due time or wall time): the
/// median over segments of each segment's p50 and tail, so that one stall
/// moves one segment's figures and not the run's. Segments with fewer
/// samples than the requested tail needs are left out unless none has
/// enough, in which case every non-empty segment counts.
inline Summary summarize_segments(const std::vector<std::vector<double>>& segments,
                                  double want_pct = 99.0) {
  std::vector<Summary> parts;
  std::size_t n = 0;
  for (const bool need_tail : {true, false}) {
    for (const std::vector<double>& segment : segments) {
      if (!segment.empty() && (!need_tail || tail_percentile(segment.size()) >= want_pct)) {
        parts.push_back(summarize(segment, want_pct));
      }
    }
    if (!parts.empty()) {
      break;
    }
  }
  for (const std::vector<double>& segment : segments) {
    n += segment.size();
  }
  Summary s;
  s.n = n;
  s.segments = parts.size();
  if (parts.empty()) {
    return s;
  }
  std::vector<double> p50s;
  std::vector<double> tails;
  s.tail_pct = want_pct;
  s.tail_supported = true;
  for (const Summary& part : parts) {
    p50s.push_back(part.p50);
    tails.push_back(part.tail);
    s.tail_pct = std::min(s.tail_pct, part.tail_pct);
    s.tail_supported = s.tail_supported && part.tail_supported;
  }
  s.p50 = percentile(p50s, 50.0);
  s.tail = percentile(tails, 50.0);
  return s;
}

/// Open-loop schedule: event `i` is due at start + i / rate, whatever
/// the system did with earlier events. Latency is timed from the due time,
/// so a stall is charged to every event queued behind it, and the
/// generator's own lateness (sent - due) is recorded separately.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double events_per_s)
      : start_(start), interval_s_(1.0 / events_per_s) {}

  Clock::time_point due(std::uint64_t event) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(event) * interval_s_));
  }
  Clock::time_point start() const { return start_; }

 private:
  Clock::time_point start_;
  double interval_s_;
};

/// Generator lateness in milliseconds: how long after its due time an
/// event was actually handed to the system (0 when on time or early).
inline double generator_lag_ms(Clock::time_point due, Clock::time_point sent) {
  return std::max(0.0, ms_between(due, sent));
}

/// In-memory spans around the calls the benchmark makes into each layer.
/// Disabled tracers record nothing and cost one branch per call site.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 20);
    }
  }
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Interns a span name; call once per call site, outside hot loops.
  std::uint32_t name(const std::string& label) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == label) {
        return static_cast<std::uint32_t>(i);
      }
    }
    names_.push_back(label);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  void record(std::uint32_t name, Clock::time_point start,
              Clock::time_point end) {
    if (enabled_) {
      spans_.push_back({name, start, end});
    }
  }
  /// Durations (microseconds) of every span named `label`.
  std::vector<double> durations_us(const std::string& label) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (names_[span.name] == label) {
        out.push_back(us_between(span.start, span.end));
      }
    }
    return out;
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Times one call into `tracer` when it is enabled.
template <typename F>
decltype(auto) traced(Tracer& tracer, std::uint32_t name, F&& call) {
  if (!tracer.enabled()) {
    return call();
  }
  struct Scope {
    Tracer& tracer;
    std::uint32_t name;
    Clock::time_point start = Clock::now();
    ~Scope() { tracer.record(name, start, Clock::now()); }
  } scope{tracer, name};
  return call();
}

}  // namespace perfbench

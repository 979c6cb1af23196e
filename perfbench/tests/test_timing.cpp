#include "timing.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace perfbench {
namespace {

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(9999), 99.5);
  EXPECT_EQ(tail_percentile(2000), 99.5);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(0), 0.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);
  }
  EXPECT_EQ(percentile(values, 50.0), 50.0);
  EXPECT_EQ(percentile(values, 99.0), 99.0);
  EXPECT_EQ(percentile(values, 100.0), 100.0);
  EXPECT_EQ(percentile(values, 0.0), 1.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50.0), 0.0);
}

TEST(Summarize, ReportsRequestedTailOnlyWhenSupported) {
  std::vector<double> many(1000);
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<double>(i + 1);
  }
  const Summary full = summarize(many);
  EXPECT_EQ(full.n, 1000u);
  EXPECT_TRUE(full.tail_supported);
  EXPECT_EQ(full.tail_pct, 99.0);
  EXPECT_EQ(full.tail, 990.0);
  EXPECT_EQ(full.p50, 500.0);

  many.resize(500);
  const Summary short_run = summarize(many);
  EXPECT_FALSE(short_run.tail_supported);
  EXPECT_EQ(short_run.tail_pct, 95.0);
  EXPECT_EQ(short_run.tail, 475.0);

  const Summary tiny = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(tiny.tail_pct, 0.0);
  EXPECT_EQ(tiny.tail, 2.0);
}

TEST(SummarizeSegments, MedianOfSegmentFiguresIgnoresOneStall) {
  std::vector<std::vector<double>> segments(5);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    for (int i = 1; i <= 1000; ++i) {
      segments[s].push_back(static_cast<double>(i));
    }
  }
  // One segment stalls: its whole tail is a hundred times slower.
  for (std::size_t i = 900; i < 1000; ++i) {
    segments[2][i] *= 100.0;
  }
  const Summary s = summarize_segments(segments);
  EXPECT_EQ(s.n, 5000u);
  EXPECT_EQ(s.segments, 5u);
  EXPECT_TRUE(s.tail_supported);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.p50, 500.0);
}

TEST(SummarizeSegments, SkipsSegmentsTooSmallForTheTail) {
  std::vector<std::vector<double>> segments = {std::vector<double>(1000, 2.0),
                                               std::vector<double>(10, 50.0), {}};
  const Summary s = summarize_segments(segments);
  EXPECT_EQ(s.segments, 1u);
  EXPECT_EQ(s.n, 1010u);
  EXPECT_EQ(s.tail, 2.0);

  // With no segment large enough, every non-empty one counts.
  const Summary small = summarize_segments({{1.0, 2.0, 3.0}, {5.0}});
  EXPECT_EQ(small.segments, 2u);
  EXPECT_FALSE(small.tail_supported);
  EXPECT_EQ(small.p50, 2.0);
}

TEST(OpenLoopSchedule, DueTimesIgnoreTheSystem) {
  const Clock::time_point start = Clock::now();
  const OpenLoopSchedule schedule(start, 1000.0);  // one event per ms
  EXPECT_EQ(schedule.due(0), start);
  EXPECT_NEAR(ms_between(start, schedule.due(250)), 250.0, 1e-6);
  EXPECT_NEAR(ms_between(schedule.due(1000), schedule.due(3000)), 2000.0, 1e-6);
}

TEST(OpenLoopSchedule, LatencyCountsFromDueTimeNotSendTime) {
  // A stalled generator sends late; the event's latency still starts at
  // its due time and the lateness shows as generator lag.
  const Clock::time_point start = Clock::now();
  const OpenLoopSchedule schedule(start, 100.0);
  const Clock::time_point due = schedule.due(3);
  const Clock::time_point sent = due + std::chrono::milliseconds(7);
  const Clock::time_point done = sent + std::chrono::milliseconds(2);
  EXPECT_NEAR(generator_lag_ms(due, sent), 7.0, 1e-6);
  EXPECT_NEAR(ms_between(due, done), 9.0, 1e-6);
  EXPECT_EQ(generator_lag_ms(due, due - std::chrono::milliseconds(1)), 0.0);
}

TEST(ProcessCpu, CountsBusyWorkNotSleep) {
  const double start = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double slept = process_cpu_s() - start;
  volatile double sink = 0.0;
  const Clock::time_point busy_until = Clock::now() + std::chrono::milliseconds(50);
  while (Clock::now() < busy_until) {
    sink = sink + 1.0;
  }
  const double busy = process_cpu_s() - start - slept;
  EXPECT_LT(slept, 0.025);
  EXPECT_GT(busy, 0.005);
}

TEST(Tracer, RecordsOnlyWhenEnabled) {
  Tracer off(false);
  const std::uint32_t a = off.name("layer.call");
  EXPECT_EQ(traced(off, a, [] { return 7; }), 7);
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  const std::uint32_t b = on.name("layer.call");
  EXPECT_EQ(on.name("layer.call"), b);
  traced(on, b, [] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
  const std::vector<double> us = on.durations_us("layer.call");
  ASSERT_EQ(us.size(), 1u);
  EXPECT_GE(us[0], 1000.0);
  EXPECT_TRUE(on.durations_us("other").empty());
}

}  // namespace
}  // namespace perfbench

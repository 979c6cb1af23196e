#include "signal/annotation.hpp"

#include <gtest/gtest.h>

namespace esl::signal {
namespace {

TEST(Interval, DurationAndMidpoint) {
  const Interval i{10.0, 30.0};
  EXPECT_DOUBLE_EQ(i.duration(), 20.0);
  EXPECT_DOUBLE_EQ(i.midpoint(), 20.0);
}

TEST(Interval, ContainsIsHalfOpen) {
  const Interval i{10.0, 30.0};
  EXPECT_TRUE(i.contains(10.0));
  EXPECT_TRUE(i.contains(29.999));
  EXPECT_FALSE(i.contains(30.0));
  EXPECT_FALSE(i.contains(9.999));
}

TEST(Interval, OverlapOfNestedIntervals) {
  const Interval outer{0.0, 100.0};
  const Interval inner{40.0, 60.0};
  EXPECT_DOUBLE_EQ(outer.overlap(inner), 20.0);
  EXPECT_DOUBLE_EQ(inner.overlap(outer), 20.0);
}

TEST(Interval, OverlapOfPartialIntersection) {
  const Interval a{0.0, 10.0};
  const Interval b{5.0, 20.0};
  EXPECT_DOUBLE_EQ(a.overlap(b), 5.0);
}

TEST(Interval, DisjointIntervalsHaveZeroOverlap) {
  const Interval a{0.0, 10.0};
  const Interval b{20.0, 30.0};
  EXPECT_DOUBLE_EQ(a.overlap(b), 0.0);
  EXPECT_FALSE(a.intersects(b));
}

TEST(Interval, TouchingIntervalsDoNotIntersect) {
  const Interval a{0.0, 10.0};
  const Interval b{10.0, 20.0};
  EXPECT_DOUBLE_EQ(a.overlap(b), 0.0);
  EXPECT_FALSE(a.intersects(b));
}

TEST(Annotations, SeizureIntervalsFiltersAndSorts) {
  std::vector<Annotation> all = {
      {{50.0, 60.0}, EventKind::kSeizure},
      {{5.0, 8.0}, EventKind::kArtifact},
      {{10.0, 20.0}, EventKind::kSeizure},
  };
  const auto seizures = seizure_intervals(all);
  ASSERT_EQ(seizures.size(), 2u);
  EXPECT_DOUBLE_EQ(seizures[0].onset, 10.0);
  EXPECT_DOUBLE_EQ(seizures[1].onset, 50.0);
}

}  // namespace
}  // namespace esl::signal

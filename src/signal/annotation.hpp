// Seizure annotations: expert-style ground-truth intervals attached to a
// record, and the interval arithmetic the evaluation metric needs.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace esl::signal {

/// Half-open time interval [onset, offset) in seconds from record start.
struct Interval {
  Seconds onset = 0.0;
  Seconds offset = 0.0;

  Seconds duration() const { return offset - onset; }
  Seconds midpoint() const { return 0.5 * (onset + offset); }

  bool contains(Seconds t) const { return t >= onset && t < offset; }

  /// Length of the overlap with `other` (0 when disjoint).
  Seconds overlap(const Interval& other) const;

  /// True when the intervals share any time span.
  bool intersects(const Interval& other) const { return overlap(other) > 0.0; }

  bool operator==(const Interval&) const = default;
};

/// Kind of annotated event.
enum class EventKind {
  kSeizure,
  kArtifact,  // simulator-injected noise bursts (not visible to detectors)
};

/// One annotated event on a record.
struct Annotation {
  Interval interval;
  EventKind kind = EventKind::kSeizure;

  bool operator==(const Annotation&) const = default;
};

/// Returns only the seizure intervals from an annotation list, sorted by
/// onset.
std::vector<Interval> seizure_intervals(const std::vector<Annotation>& all);

}  // namespace esl::signal

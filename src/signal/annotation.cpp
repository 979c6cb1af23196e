#include "signal/annotation.hpp"

#include <algorithm>

namespace esl::signal {

Seconds Interval::overlap(const Interval& other) const {
  const Seconds lo = std::max(onset, other.onset);
  const Seconds hi = std::min(offset, other.offset);
  return std::max(0.0, hi - lo);
}

std::vector<Interval> seizure_intervals(const std::vector<Annotation>& all) {
  std::vector<Interval> out;
  for (const auto& a : all) {
    if (a.kind == EventKind::kSeizure) {
      out.push_back(a.interval);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Interval& a, const Interval& b) { return a.onset < b.onset; });
  return out;
}

}  // namespace esl::signal

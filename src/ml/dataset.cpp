#include "ml/dataset.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esl::ml {

void Dataset::push_back(std::span<const Real> row, int label) {
  expects(label == 0 || label == 1, "Dataset: labels must be 0 or 1");
  x.append_row(row);
  y.push_back(label);
}

void Dataset::append(const Dataset& other) {
  expects(other.x.rows() == other.y.size(), "Dataset::append: corrupt other");
  for (std::size_t r = 0; r < other.size(); ++r) {
    push_back(other.x.row(r), other.y[r]);
  }
}

std::size_t Dataset::positives() const {
  return static_cast<std::size_t>(std::count(y.begin(), y.end(), 1));
}

void Dataset::check() const {
  expects(x.rows() == y.size(), "Dataset: row/label count mismatch");
  for (const int label : y) {
    expects(label == 0 || label == 1, "Dataset: labels must be 0 or 1");
  }
}

Dataset balance_classes(const Dataset& data, Rng& rng) {
  data.check();
  std::vector<std::size_t> pos;
  std::vector<std::size_t> neg;
  for (std::size_t i = 0; i < data.size(); ++i) {
    (data.y[i] == 1 ? pos : neg).push_back(i);
  }
  expects(!pos.empty() && !neg.empty(),
          "balance_classes: both classes must be present");
  const std::size_t target = std::min(pos.size(), neg.size());
  rng.shuffle(pos);
  rng.shuffle(neg);
  pos.resize(target);
  neg.resize(target);
  std::vector<std::size_t> keep;
  keep.reserve(2 * target);
  keep.insert(keep.end(), pos.begin(), pos.end());
  keep.insert(keep.end(), neg.begin(), neg.end());
  std::sort(keep.begin(), keep.end());

  Dataset out;
  for (const std::size_t i : keep) {
    out.push_back(data.x.row(i), data.y[i]);
  }
  return out;
}

}  // namespace esl::ml

#include "signal/sample_ring.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esl::signal {

SampleRing::SampleRing(std::size_t capacity) : data_(capacity) {
  expects(capacity >= 1, "SampleRing: capacity must be positive");
}

void SampleRing::push(std::span<const Real> samples) {
  const std::size_t cap = data_.size();
  // A block longer than the ring reduces to its trailing `cap` samples.
  if (samples.size() > cap) {
    head_ = 0;
    size_ = cap;
    std::copy(samples.end() - static_cast<std::ptrdiff_t>(cap), samples.end(),
              data_.begin());
    return;
  }
  // At most two contiguous copies: up to the end of storage, then from
  // its start. Whatever lands on the oldest samples overwrites them.
  const std::size_t count = samples.size();
  const std::size_t tail = (head_ + size_) % cap;
  const std::size_t first = std::min(count, cap - tail);
  std::copy_n(samples.begin(), first,
              data_.begin() + static_cast<std::ptrdiff_t>(tail));
  std::copy_n(samples.begin() + static_cast<std::ptrdiff_t>(first),
              count - first, data_.begin());
  const std::size_t overwritten = size_ + count > cap ? size_ + count - cap : 0;
  head_ = (head_ + overwritten) % cap;
  size_ += count - overwritten;
}

void SampleRing::copy_back(std::size_t count, std::span<Real> out) const {
  // An oversized count wraps the start index; copy_from rejects it.
  copy_from((head_ + size_ - count) % data_.size(), count, out);
}

void SampleRing::copy_from(std::size_t start, std::size_t count,
                           std::span<Real> out) const {
  expects(count <= size_, "SampleRing::copy: not enough samples");
  expects(out.size() >= count, "SampleRing::copy: output too small");
  const std::size_t first = std::min(count, data_.size() - start);
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(start), first,
              out.begin());
  std::copy_n(data_.begin(), count - first,
              out.begin() + static_cast<std::ptrdiff_t>(first));
}

}  // namespace esl::signal
